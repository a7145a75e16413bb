package retry

import (
	"errors"
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/simrand"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// TestRetryBackoffShape checks the exponential growth, the cap, and the
// jitter bounds of the backoff schedule.
func TestRetryBackoffShape(t *testing.T) {
	p := Policy{MaxAttempts: 10, Base: time.Second, Max: 8 * time.Second, Multiplier: 2, Jitter: 0}
	for i, want := range []time.Duration{
		time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second, 8 * time.Second,
	} {
		if got := p.Backoff(i, nil); got != want {
			t.Fatalf("Backoff(%d) = %v, want %v", i, got, want)
		}
	}

	p.Jitter = 0.5
	rng := simrand.New("retry-test")
	for i := 0; i < 100; i++ {
		got := p.Backoff(2, rng) // nominal 4s
		if got < 2*time.Second || got > 4*time.Second {
			t.Fatalf("jittered Backoff(2) = %v, want within [2s, 4s]", got)
		}
	}
}

// TestRetryBackoffDeterministic: identical seeds yield identical jittered
// schedules (the chaos-determinism contract reaches into backoff waits).
func TestRetryBackoffDeterministic(t *testing.T) {
	p := TaskDefault()
	a, b := simrand.New("retry-det"), simrand.New("retry-det")
	for i := 0; i < 50; i++ {
		if x, y := p.Backoff(i%4, a), p.Backoff(i%4, b); x != y {
			t.Fatalf("draw %d: %v != %v", i, x, y)
		}
	}
}

// TestRetryDoConsumesVirtualClock verifies DoObserved's waits happen on the
// simulated clock: three failures under a no-jitter policy advance
// virtual time by exactly base+2*base.
func TestRetryDoConsumesVirtualClock(t *testing.T) {
	clk := simclock.New(epoch)
	p := Policy{MaxAttempts: 3, Base: time.Second, Max: 8 * time.Second, Multiplier: 2, Jitter: 0}
	fail := errors.New("transient")
	attempts := 0
	var elapsed time.Duration
	clk.Go(func() {
		start := clk.Now()
		_ = DoObserved(clk, nil, p, time.Time{}, nil, func(int) error { attempts++; return fail })
		elapsed = clk.Now().Sub(start)
	})
	clk.Quiesce()
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	if want := 3 * time.Second; elapsed != want {
		t.Fatalf("virtual time consumed = %v, want %v", elapsed, want)
	}
}

// TestRetryDoStopsOnSuccessAndPermanent covers the early exits.
func TestRetryDoStopsOnSuccessAndPermanent(t *testing.T) {
	clk := simclock.New(epoch)
	p := RequestDefault()

	n := 0
	clk.Go(func() {
		if err := DoObserved(clk, nil, p, time.Time{}, nil, func(int) error {
			n++
			if n < 2 {
				return errors.New("transient")
			}
			return nil
		}); err != nil {
			t.Errorf("DoObserved = %v, want success on second attempt", err)
		}
	})
	clk.Quiesce()
	if n != 2 {
		t.Fatalf("attempts = %d, want 2", n)
	}

	sentinel := errors.New("precondition failed")
	n = 0
	clk.Go(func() {
		err := DoObserved(clk, nil, p, time.Time{}, nil, func(int) error { n++; return Permanent(sentinel) })
		if !errors.Is(err, sentinel) {
			t.Errorf("DoObserved = %v, want the unwrapped sentinel", err)
		}
	})
	clk.Quiesce()
	if n != 1 {
		t.Fatalf("permanent error retried: %d attempts", n)
	}

	if Permanent(nil) != nil {
		t.Fatal("Permanent(nil) must stay nil")
	}
}

// TestRetryDoDeadline verifies deadline propagation: no attempt starts
// past the deadline and the error reports both causes.
func TestRetryDoDeadline(t *testing.T) {
	clk := simclock.New(epoch)
	p := Policy{MaxAttempts: 10, Base: 2 * time.Second, Max: 2 * time.Second, Multiplier: 2, Jitter: 0}
	fail := errors.New("transient")
	n := 0
	clk.Go(func() {
		deadline := clk.Now().Add(3 * time.Second)
		err := DoObserved(clk, nil, p, deadline, nil, func(int) error { n++; return fail })
		if !errors.Is(err, ErrDeadlineExceeded) || !errors.Is(err, fail) {
			t.Errorf("DoObserved = %v, want deadline error wrapping the last failure", err)
		}
	})
	clk.Quiesce()
	// Attempts at t=0 and t=2s run; the one due at t=4s is past the 3s
	// deadline and must not start.
	if n != 2 {
		t.Fatalf("attempts = %d, want 2 (deadline must cut the budget)", n)
	}
}
