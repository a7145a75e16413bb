package simclock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestNowStartsAtEpoch(t *testing.T) {
	c := New(epoch)
	if got := c.Now(); !got.Equal(epoch) {
		t.Fatalf("Now() = %v, want %v", got, epoch)
	}
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	c := New(epoch)
	start := time.Now()
	c.Sleep(10 * time.Hour)
	if wall := time.Since(start); wall > 2*time.Second {
		t.Fatalf("virtual sleep took %v of wall time", wall)
	}
	if got, want := c.Now(), epoch.Add(10*time.Hour); !got.Equal(want) {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestSleepNonPositiveReturnsImmediately(t *testing.T) {
	c := New(epoch)
	c.Sleep(0)
	c.Sleep(-time.Second)
	if !c.Now().Equal(epoch) {
		t.Fatalf("time moved on non-positive sleep: %v", c.Now())
	}
}

func TestGoOrdersWakeupsByTime(t *testing.T) {
	c := New(epoch)
	var mu sync.Mutex
	var order []int
	for i, d := range []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond} {
		i, d := i, d
		c.Go(func() {
			c.Sleep(d)
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	c.Quiesce()
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order = %v, want %v", order, want)
		}
	}
}

func TestConcurrentSleepersShareTimeline(t *testing.T) {
	c := New(epoch)
	const n = 100
	var total atomic.Int64
	for i := 0; i < n; i++ {
		i := i
		c.Go(func() {
			c.Sleep(time.Duration(i+1) * time.Second)
			total.Add(int64(c.Now().Sub(epoch) / time.Second))
		})
	}
	c.Quiesce()
	// Each goroutine observes its own wake time: sum = 1+2+...+n.
	if got, want := total.Load(), int64(n*(n+1)/2); got != want {
		t.Fatalf("sum of wake seconds = %d, want %d", got, want)
	}
	if got, want := c.Now(), epoch.Add(n*time.Second); !got.Equal(want) {
		t.Fatalf("final time = %v, want %v", got, want)
	}
}

func TestSimultaneousTimersAllWake(t *testing.T) {
	c := New(epoch)
	var n atomic.Int32
	for i := 0; i < 10; i++ {
		c.Go(func() {
			c.Sleep(time.Second)
			n.Add(1)
		})
	}
	c.Quiesce()
	if n.Load() != 10 {
		t.Fatalf("woke %d of 10 simultaneous sleepers", n.Load())
	}
}

func TestEventWaitTrigger(t *testing.T) {
	c := New(epoch)
	ev := c.NewEvent()
	var woke atomic.Bool
	c.Go(func() {
		ev.Wait()
		woke.Store(true)
	})
	c.Go(func() {
		c.Sleep(5 * time.Second)
		ev.Trigger()
	})
	c.Quiesce()
	if !woke.Load() {
		t.Fatal("waiter never woke")
	}
	if got, want := c.Now(), epoch.Add(5*time.Second); !got.Equal(want) {
		t.Fatalf("time = %v, want %v", got, want)
	}
}

func TestEventWaitAfterTrigger(t *testing.T) {
	c := New(epoch)
	ev := c.NewEvent()
	ev.Trigger()
	ev.Wait() // must not block
	c.mu.Lock()
	done := ev.done
	c.mu.Unlock()
	if !done {
		t.Fatal("event not marked done after Trigger")
	}
}

func TestEventDoubleTriggerIsNoop(t *testing.T) {
	c := New(epoch)
	ev := c.NewEvent()
	ev.Trigger()
	ev.Trigger()
}

func TestEventManyWaiters(t *testing.T) {
	c := New(epoch)
	ev := c.NewEvent()
	var n atomic.Int32
	for i := 0; i < 50; i++ {
		c.Go(func() {
			ev.Wait()
			n.Add(1)
		})
	}
	c.Delay(time.Second, ev.Trigger)
	c.Quiesce()
	if n.Load() != 50 {
		t.Fatalf("%d of 50 waiters woke", n.Load())
	}
}

func TestGroup(t *testing.T) {
	c := New(epoch)
	g := c.NewGroup(3)
	for i := 1; i <= 3; i++ {
		i := i
		c.Go(func() {
			c.Sleep(time.Duration(i) * time.Second)
			g.Done()
		})
	}
	g.Wait()
	if got, want := c.Now(), epoch.Add(3*time.Second); !got.Equal(want) {
		t.Fatalf("group released at %v, want %v", got, want)
	}
	c.Quiesce()
}

func TestGroupZeroCountIsDone(t *testing.T) {
	c := New(epoch)
	g := c.NewGroup(0)
	g.Wait() // must not block
}

func TestDelayRunsAtScheduledTime(t *testing.T) {
	c := New(epoch)
	var at time.Time
	c.Delay(42*time.Second, func() { at = c.Now() })
	c.Quiesce()
	if want := epoch.Add(42 * time.Second); !at.Equal(want) {
		t.Fatalf("ran at %v, want %v", at, want)
	}
}

func TestQuiesceOnIdleClockReturns(t *testing.T) {
	c := New(epoch)
	c.Quiesce()
	c.Quiesce()
}

func TestNestedSpawns(t *testing.T) {
	c := New(epoch)
	var count atomic.Int32
	var spawn func(depth int)
	spawn = func(depth int) {
		count.Add(1)
		c.Sleep(time.Millisecond)
		if depth < 5 {
			for i := 0; i < 2; i++ {
				d := depth + 1
				c.Go(func() { spawn(d) })
			}
		}
	}
	c.Go(func() { spawn(0) })
	c.Quiesce()
	// 1 + 2 + 4 + 8 + 16 + 32 = 63 actors.
	if count.Load() != 63 {
		t.Fatalf("ran %d actors, want 63", count.Load())
	}
}

func TestDeadlockPanics(t *testing.T) {
	panicked := make(chan bool, 1)
	// The clock is created inside a fresh goroutine so that goroutine is the
	// tracked driver; the deadlock panic fires in whichever actor blocks last.
	go func() {
		defer func() { panicked <- recover() != nil }()
		c := New(epoch)
		c.Go(func() { c.NewEvent().Wait() }) // nobody will ever trigger this
		c.Sleep(time.Millisecond)
		c.NewEvent().Wait() // both actors now blocked, no timers: deadlock
	}()
	select {
	case got := <-panicked:
		if !got {
			t.Fatal("driver returned without panicking")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deadlock was not detected")
	}
}

func TestStatsCounters(t *testing.T) {
	c := New(epoch)
	c.Go(func() { c.Sleep(time.Second) })
	c.Quiesce()
	s := c.Stats()
	if s.Spawned != 1 || s.Sleeps != 1 || s.Advances == 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestManyActorsStress(t *testing.T) {
	c := New(epoch)
	const n = 2000
	var sum atomic.Int64
	for i := 0; i < n; i++ {
		i := i
		c.Go(func() {
			for j := 0; j < 5; j++ {
				c.Sleep(time.Duration(1+(i+j)%7) * time.Millisecond)
			}
			sum.Add(1)
		})
	}
	c.Quiesce()
	if sum.Load() != n {
		t.Fatalf("%d of %d actors completed", sum.Load(), n)
	}
}
