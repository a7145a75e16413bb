package simclock

import (
	"bytes"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// Property: whatever the interleaving of pushes and pops, every pop returns
// the least (at, seq) the heap holds, so timers drain sorted, and every
// timer pushed comes out once. Wake times are drawn from sixteen values so
// that ties are the common case.
func TestTimerHeapPopsInAtSeqOrder(t *testing.T) {
	f := func(ats []uint8, popEvery uint8) bool {
		var h timerHeap
		seen := make(map[uint64]bool, len(ats))
		popMin := func() bool {
			top := h.pop()
			seen[top.seq] = true
			for i := range h {
				if h[i].before(&top) {
					return false
				}
			}
			return true
		}
		every := int(popEvery%7) + 2
		for i, at := range ats {
			h.push(timer{at: int64(at % 16), seq: uint64(i + 1)})
			if i%every == 0 && !popMin() {
				return false
			}
		}
		for len(h) > 0 {
			if !popMin() {
				return false
			}
		}
		return len(seen) == len(ats)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// A delay arms its timer at the FIFO turn of the entry it queued, not at
// the call; due callbacks and woken sleepers share one FIFO; ties at one
// nanosecond break on the order the timers were armed.
func TestDelayArmsAtItsTurn(t *testing.T) {
	c := New(epoch)
	var order []string
	visit := func(s string) func() { return func() { order = append(order, s) } }
	c.Delay(time.Millisecond, visit("delay-0"))
	c.Go(func() { c.Sleep(time.Millisecond); order = append(order, "actor") })
	c.Delay(time.Millisecond, visit("delay-1"))
	c.Sleep(time.Millisecond) // armed first: the three entries above have not had their turn
	order = append(order, "driver")
	c.Quiesce()
	if want := []string{"driver", "delay-0", "actor", "delay-1"}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	// Two delayed starts and two sleeps armed a timer each; three functions
	// were queued to start; all four timers were due at one instant.
	if got, want := c.Stats(), (Stats{Sleeps: 4, Advances: 1, Spawned: 3}); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

// The self-wake path — nothing ready, nothing due sooner — still counts one
// Sleep and one Advance, with or without later timers pending; a
// non-positive Delay is a start and arms nothing.
func TestSelfWakeAndZeroDelayCounters(t *testing.T) {
	c := New(epoch)
	c.Sleep(time.Second)
	fired := false
	c.Delay(time.Hour, func() { fired = true })
	c.Sleep(time.Nanosecond) // a hand-off to nobody: arms the delay on the way
	c.Sleep(time.Second)     // self-wake under a pending timer
	if got, want := c.Stats(), (Stats{Sleeps: 4, Advances: 3, Spawned: 1}); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
	if got, want := c.Now(), epoch.Add(2*time.Second+time.Nanosecond); !got.Equal(want) {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
	c.Sleep(epoch.Add(time.Second + time.Hour).Sub(c.Now())) // due the nanosecond the delay is, armed after it
	if !fired {
		t.Fatal("a Sleep due the same nanosecond as an older timer returned before it fired")
	}
	ran := false
	c.Delay(0, func() { ran = true })
	c.Delay(-time.Second, func() {})
	c.Quiesce()
	if got, want := c.Stats(), (Stats{Sleeps: 5, Advances: 4, Spawned: 3}); got != want || !ran {
		t.Fatalf("stats = %+v, want %+v (ran %v)", got, want, ran)
	}
}

// A pending Delay is a heap slot, not a parked goroutine.
func TestPendingDelaysHoldNoGoroutine(t *testing.T) {
	c := New(epoch)
	const n = 10_000
	before := runtime.NumGoroutine()
	var order []int
	for i := 0; i < n; i++ {
		i := i
		// Ten delays share each due instant; they must fire in arming order.
		c.Delay(time.Duration(i/10+1)*time.Microsecond, func() { order = append(order, i) })
	}
	c.Sleep(time.Nanosecond) // give every entry its turn: all n timers are now armed
	if s := c.Stats(); s.Sleeps != n+1 {
		t.Fatalf("armed %d timers, want %d", s.Sleeps, n+1)
	}
	// Goroutines left over from earlier tests may still be exiting, so the
	// count can only be asserted not to have grown.
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d pending delays took the goroutine count from %d to %d", n, before, after)
	}
	c.Quiesce()
	if len(order) != n {
		t.Fatalf("%d of %d delays fired", len(order), n)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("delay %d fired in position %d", got, i)
		}
	}
}

func TestSleepAndDelayAllocations(t *testing.T) {
	c := New(epoch)
	if got := testing.AllocsPerRun(1000, func() { c.Sleep(time.Millisecond) }); got != 0 {
		t.Errorf("self-wake Sleep allocates %v times", got)
	}

	// Two actors alternating Sleep: every wake-up is a hand-off.
	var stop atomic.Bool
	c.Go(func() {
		for !stop.Load() {
			c.Sleep(time.Nanosecond)
		}
	})
	before := c.Stats()
	if got := testing.AllocsPerRun(1000, func() { c.Sleep(time.Nanosecond) }); got != 0 {
		t.Errorf("Sleep hand-off allocates %v times", got)
	}
	if s := c.Stats(); s.Sleeps-before.Sleeps < 2000 {
		t.Errorf("%d sleeps while the driver slept 1001 times: the partner was not alternating", s.Sleeps-before.Sleeps)
	}
	stop.Store(true)
	c.Quiesce()

	n := 0
	if got := testing.AllocsPerRun(1000, func() {
		c.Delay(time.Microsecond, func() { n++ })
		c.Sleep(2 * time.Microsecond)
	}); got > 1 {
		t.Errorf("Delay allocates %v times, want at most the caller's closure", got)
	}
	if n != 1001 {
		t.Errorf("%d of 1001 delayed bodies ran", n)
	}
}

// A delayed body is a full actor once started: it may sleep and wait on
// events mid-function (a delivered notification sleeps its invoke latency).
func TestDelayedBodyMayBlock(t *testing.T) {
	c := New(epoch)
	ev := c.NewEvent()
	var woke, done time.Duration
	c.Delay(time.Second, func() {
		c.Sleep(time.Second)
		woke = c.Since(epoch)
		ev.Wait()
		done = c.Since(epoch)
	})
	c.Delay(5*time.Second, ev.Trigger)
	c.Quiesce()
	if woke != 2*time.Second || done != 5*time.Second {
		t.Fatalf("body slept until %v and was released at %v, want 2s and 5s", woke, done)
	}
}

// goid returns the calling goroutine's id, from the first line of its stack.
func goid() int {
	var buf [64]byte
	f := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	id, _ := strconv.Atoi(string(f[1]))
	return id
}

// A worker whose function has returned runs the next queued function
// itself when that is what it dispatches: a chain of starts, each queued by
// the one before, stays on one goroutine.
func TestFinishingWorkerTakesTheNextStart(t *testing.T) {
	c := New(epoch)
	ids := make(map[int]int)
	var link func(left int)
	link = func(left int) {
		ids[goid()]++
		if left > 0 {
			c.Go(func() { link(left - 1) })
		}
	}
	c.Go(func() { link(99) })
	c.Quiesce()
	if len(ids) != 1 {
		t.Fatalf("100 chained starts ran on %d goroutines: %v", len(ids), ids)
	}
	if ids[goid()] != 0 {
		t.Fatal("chain ran on the driver's goroutine")
	}
}

// Quiesce releases the parked pool: a drained clock pins no goroutines.
func TestQuiesceDrainsThePool(t *testing.T) {
	before := runtime.NumGoroutine()
	c := New(epoch)
	for i := 0; i < 64; i++ {
		c.Go(func() { c.Sleep(time.Millisecond) })
	}
	c.Quiesce()
	c.mu.Lock()
	parked := len(c.workers)
	c.mu.Unlock()
	if parked != 0 {
		t.Fatalf("%d workers parked after Quiesce", parked)
	}
	// The workers exit on their own once their channels are closed.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still alive after Quiesce, started from %d", runtime.NumGoroutine(), before)
		}
	}
}

// Now takes no lock: a goroutine the clock does not track may read it while
// the simulation runs (run with -race), and never sees time go backwards.
func TestNowFromUntrackedGoroutine(t *testing.T) {
	c := New(epoch)
	stop := make(chan struct{})
	backwards := make(chan bool, 1)
	go func() {
		last, bad := c.Now(), false
		for {
			select {
			case <-stop:
				backwards <- bad
				return
			default:
			}
			now := c.Now()
			bad = bad || now.Before(last)
			last = now
		}
	}()
	for i := 0; i < 50; i++ {
		i := i
		c.Go(func() {
			for j := 0; j < 20; j++ {
				c.Sleep(time.Duration(1+(i+j)%5) * time.Millisecond)
			}
		})
	}
	c.Quiesce()
	close(stop)
	if <-backwards {
		t.Fatal("an untracked reader saw virtual time decrease")
	}
}
