// Package retry provides the typed retry policies the replication stack
// uses to survive injected (and modelled) transient faults: exponential
// backoff with seeded jitter, per-layer attempt budgets, and deadline
// propagation. Two layers use it with different budgets — the engine's
// task-level attempt loop (optimistic-validation retries, §6) and the
// request level (an SDK retrying one cloud API call). All waiting happens
// on the virtual clock, so retries consume simulated time exactly as they
// would wall time.
package retry

import (
	"errors"
	"math/rand"
	"time"

	"repro/internal/simclock"
)

// ErrDeadlineExceeded is returned by DoObserved when the deadline passes
// before an attempt succeeds.
var ErrDeadlineExceeded = errors.New("retry: deadline exceeded")

// permanentError marks an error that must not be retried.
type permanentError struct{ err error }

func (p permanentError) Error() string { return p.err.Error() }
func (p permanentError) Unwrap() error { return p.err }

// Permanent wraps err so DoObserved stops immediately and returns the
// underlying error — for failures retrying cannot fix (missing keys,
// failed preconditions). A nil err stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return permanentError{err: err}
}

// Policy is one layer's retry budget and backoff shape; the two layers'
// policies are TaskDefault and RequestDefault.
type Policy struct {
	// MaxAttempts bounds the total tries (first attempt included).
	MaxAttempts int
	// Base is the backoff before the first retry; each further retry
	// multiplies it by Multiplier, capped at Max.
	Base       time.Duration
	Max        time.Duration
	Multiplier float64
	// Jitter randomizes each wait over [1-Jitter, 1] of its nominal value
	// (full-jitter style, bounded below so waits never collapse to zero).
	Jitter float64
}

// TaskDefault is the engine's task-level budget: a handful of attempts
// spaced out to ride through brief storms without hammering a struggling
// destination.
func TaskDefault() Policy {
	return Policy{MaxAttempts: 4, Base: 500 * time.Millisecond, Max: 8 * time.Second, Multiplier: 2, Jitter: 0.5}
}

// RequestDefault is the per-request budget of a cloud SDK: quick,
// tightly-bounded retries of a single API call.
func RequestDefault() Policy {
	return Policy{MaxAttempts: 3, Base: 100 * time.Millisecond, Max: time.Second, Multiplier: 2, Jitter: 0.5}
}

// Backoff returns the wait before retry number retry (0-based: the wait
// after the first failed attempt). Jitter draws from rng so backoff
// schedules are deterministic per seeded caller; a nil rng applies none.
func (p Policy) Backoff(retry int, rng *rand.Rand) time.Duration {
	d := p.Base
	if d <= 0 {
		d = 100 * time.Millisecond
	}
	for i := 0; i < retry; i++ {
		d = simclock.Scale(d, p.Multiplier)
		if p.Max > 0 && d >= p.Max {
			d = p.Max
			break
		}
	}
	if p.Max > 0 && d > p.Max {
		d = p.Max
	}
	if rng != nil && p.Jitter > 0 {
		d = simclock.Scale(d, 1-p.Jitter*rng.Float64())
	}
	if d <= 0 {
		d = time.Millisecond
	}
	return d
}

// DoObserved runs fn under the policy: up to MaxAttempts tries, sleeping
// the backoff on clock between failures, never starting an attempt past
// deadline (zero deadline means none). It returns nil on the first
// success, the last error on exhaustion, or ErrDeadlineExceeded (wrapping
// the last error, if any) when the deadline cuts the budget short.
//
// onWait (when non-nil) is called just before each backoff sleep with the
// 0-based retry number and the wait about to be consumed. The engine
// hangs telemetry spans off it so request-level retry stalls are
// attributable on a task's critical path; the observer must not block.
func DoObserved(clock *simclock.Clock, rng *rand.Rand, p Policy, deadline time.Time,
	onWait func(retry int, wait time.Duration), fn func(attempt int) error) error {
	attempts := p.MaxAttempts
	if attempts <= 0 {
		attempts = 1
	}
	var last error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			wait := p.Backoff(attempt-1, rng)
			if onWait != nil {
				onWait(attempt-1, wait)
			}
			clock.Sleep(wait)
		}
		if !deadline.IsZero() && clock.Now().After(deadline) {
			if last == nil {
				return ErrDeadlineExceeded
			}
			return errors.Join(ErrDeadlineExceeded, last)
		}
		if last = fn(attempt); last == nil {
			return nil
		}
		var p permanentError
		if errors.As(last, &p) {
			return p.err
		}
	}
	return last
}
