// Package simclock provides a deterministic virtual clock for
// discrete-event simulation of distributed systems.
//
// The clock tracks a set of goroutines ("actors") and runs them under a
// cooperative single-runnable discipline: exactly one actor holds the run
// token at a time, and the rest wait in a FIFO ready queue or on the timer
// heap. Virtual time advances only when the ready queue is empty and the
// running actor has blocked in Sleep or Event.Wait; at that moment the
// clock jumps to the earliest pending timer and queues everything due
// there. Hours of simulated activity therefore execute in milliseconds of
// wall time, and — because the interleaving is chosen by the clock, never
// by the Go runtime — two identically-seeded simulations take
// byte-identical trajectories regardless of host load, GC pauses,
// preemption, or GOMAXPROCS.
//
// Rules for actors:
//
//   - Spawn concurrent simulated work with Clock.Go or Clock.Delay (never
//     the go statement), so the clock can account for runnable actors.
//   - Block only via Clock.Sleep, Event.Wait, Group.Wait or Quiesce, and
//     only while holding the run token: the caller parks on the token
//     holder's own wake channel. Short critical sections guarded by
//     sync.Mutex are fine: the holder keeps the token and nothing else
//     executes until it blocks on the clock.
//   - The goroutine that calls New is itself tracked and may drive the
//     simulation directly. Now may be read from any goroutine.
//
// The core is an event queue, not a goroutine per pending event. Virtual
// time is an int64 nanosecond offset; timers are values in a 4-ary heap
// ordered by (wake time, seq), so Sleep allocates nothing. A pending Delay
// costs one heap slot: its body reaches a pooled goroutine only when it is
// due and its turn has come, and a worker whose function has returned runs
// the next queued function itself. Bodies get a goroutine rather than
// running inline on the dispatcher because they may block — a delivered
// notification sleeps its invoke latency on 700 of heavy-tail's 1,403
// deliveries per input — so there is no second, must-not-block API.
//
// The schedule is a pure function of the simulation, fixed by these
// invariants (TestScheduleGolden pins them):
//
//   - Ready turns are granted strictly FIFO; started functions, woken
//     sleepers, due delayed bodies, triggered waiters and resumed Quiesce
//     callers share the one queue.
//   - Timers due the same nanosecond are queued in seq order, and seq is
//     assigned when a timer is armed: by Sleep at the call, by Delay at the
//     FIFO turn of the entry it queued — where an actor started in its
//     place would have called Sleep — not at the call.
//   - Stats.Sleeps counts timers armed (delayed starts included), Spawned
//     counts Go and Delay calls, and Advances every forward move of time,
//     including a Sleep that returns without yielding because nothing else
//     is due first.
//
// If every tracked actor is blocked on an Event that can no longer be
// triggered, the clock panics with a deadlock report rather than hanging.
package simclock

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is a virtual clock. Create one with New.
type Clock struct {
	base time.Time    // immutable: virtual time is base + ns
	ns   atomic.Int64 // written under mu, read by Now without it

	mu        sync.Mutex
	cur       *actor // holder of the run token
	ready     []turn
	readyHead int // ready[:readyHead] already granted; pop-front without shifting
	blocked   int // tracked actors blocked on events (not timers)
	timers    timerHeap
	seq       uint64
	idlers    []*actor // Quiesce waiters
	stats     Stats

	// workers parks the pooled goroutines that run started functions, so a
	// million short-lived actors do not pay a goroutine spawn each. Parked
	// workers are invisible to the accounting above; the pool is drained
	// whenever the simulation fully quiesces, so an idle clock holds none.
	workers []*actor
}

// actor is a goroutine the clock schedules: New's caller or a pooled worker.
// It blocks only on its own channel, which carries a nil wake-up while it
// holds a timer, event or Quiesce slot, and its next function while parked.
type actor struct {
	ch chan func() // buffered: the grant never waits for the receiver
}

func newActor() *actor { return &actor{ch: make(chan func(), 1)} }

// turn is one queued grant of the run token: wake a parked actor, or start
// fn — after arming a timer for d first, when d is positive.
type turn struct {
	a  *actor
	fn func()
	d  time.Duration
}

// maxWorkers bounds the parked-worker pool; beyond it workers exit instead
// of parking. It caps idle memory, not concurrency — a start spawns a
// fresh worker whenever the pool is dry.
const maxWorkers = 256

// Stats reports counters about clock activity, useful in tests.
type Stats struct {
	Sleeps   uint64 // timers armed: Sleep calls and delayed starts with positive duration
	Advances uint64 // number of times virtual time moved forward
	Spawned  uint64 // functions queued to start via Go or Delay
}

// New returns a virtual clock whose time starts at start. The calling
// goroutine is tracked as the first actor and holds the run token.
func New(start time.Time) *Clock { return &Clock{base: start, cur: newActor()} }

// Now returns the current virtual time. It takes no lock and may be called
// from goroutines the clock does not track.
func (c *Clock) Now() time.Time { return c.base.Add(time.Duration(c.ns.Load())) }

// Since returns the virtual time elapsed since t.
func (c *Clock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// Stats returns a snapshot of the clock's activity counters.
func (c *Clock) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Sleep blocks the calling actor for d of virtual time. A non-positive d
// returns immediately without yielding.
func (c *Clock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	at := c.ns.Load() + int64(d)
	if c.readyHead == len(c.ready) && (len(c.timers) == 0 || at < c.timers[0].at) {
		// Nothing is ready and nothing is due sooner: yielding would pop
		// this very timer and grant the token straight back.
		c.stats.Sleeps++
		c.stats.Advances++
		c.ns.Store(at)
		c.mu.Unlock()
		return
	}
	c.armLocked(at, c.cur, nil)
	c.yieldLocked()
}

// armLocked pushes a timer that at its instant wakes a or queues fn.
func (c *Clock) armLocked(at int64, a *actor, fn func()) {
	c.stats.Sleeps++
	c.seq++
	c.timers.push(timer{at: at, seq: c.seq, a: a, fn: fn})
}

// yieldLocked passes on the run token of the calling actor, which has just
// queued itself (c.cur) on a timer, an event or the idlers, releases c.mu
// and blocks until the actor is granted the token again.
func (c *Clock) yieldLocked() {
	a := c.cur
	c.dispatchLocked(nil)
	c.mu.Unlock()
	<-a.ch
}

// Go starts fn as a tracked actor on a pooled goroutine. fn may freely call
// Sleep and wait on events; the actor is untracked automatically when fn
// returns. The start joins the back of the ready queue — fn first runs
// when the actors ahead of it have had their turns.
func (c *Clock) Go(fn func()) { c.Delay(0, fn) }

// Delay starts fn as a tracked actor after d of virtual time. Until then
// it holds a timer, not a goroutine; see the package comment for when that
// timer is armed.
func (c *Clock) Delay(d time.Duration, fn func()) {
	c.mu.Lock()
	c.stats.Spawned++
	c.ready = append(c.ready, turn{fn: fn, d: d})
	c.mu.Unlock()
}

// DelayCall is Delay. It survives as an alias only because bench/layers.go
// calls it and bench/ is frozen outside benchmark PRs.
func (c *Clock) DelayCall(d time.Duration, fn func()) { c.Delay(d, fn) }

// work is a pooled worker's loop: run fn, park in the pool, pass the run
// token on, and run whatever function comes next — its own dispatch's when
// that pops a start, with no hand-off.
func (c *Clock) work(a *actor, fn func()) {
	for fn != nil {
		fn()
		c.mu.Lock()
		parked := len(c.workers) < maxWorkers
		if parked {
			c.workers = append(c.workers, a)
		}
		fn = c.dispatchLocked(a)
		c.mu.Unlock()
		if fn == nil && parked {
			fn = <-a.ch // nil once Quiesce has drained the pool
		}
	}
}

// startLocked grants the run token to fn on the worker at the top of the
// pool, or on a fresh one. When that worker is self — the dispatcher, which
// parked itself just before — fn is returned for it to run directly.
func (c *Clock) startLocked(fn func(), self *actor) func() {
	n := len(c.workers)
	if n == 0 {
		c.cur = newActor()
		go c.work(c.cur, fn)
		return nil
	}
	w := c.workers[n-1]
	c.workers[n-1] = nil
	c.workers = c.workers[:n-1]
	c.cur = w
	if w == self {
		return fn
	}
	w.ch <- fn
	return nil
}

// Quiesce blocks the calling actor until every other tracked actor has
// finished and no timers remain; virtual time advances as needed. It is the
// usual way for a test or driver to run the simulation to completion.
func (c *Clock) Quiesce() {
	c.mu.Lock()
	if len(c.ready) == c.readyHead && len(c.timers) == 0 && c.blocked == 0 {
		c.mu.Unlock()
		return
	}
	c.idlers = append(c.idlers, c.cur)
	c.yieldLocked()
}

// popReadyLocked removes and returns the front of the ready queue.
func (c *Clock) popReadyLocked() turn {
	t := c.ready[c.readyHead]
	c.ready[c.readyHead] = turn{}
	c.readyHead++
	if c.readyHead == len(c.ready) {
		c.ready = c.ready[:0]
		c.readyHead = 0
	} else if c.readyHead > 64 && c.readyHead*2 >= len(c.ready) {
		n := copy(c.ready, c.ready[c.readyHead:])
		clear(c.ready[n:])
		c.ready = c.ready[:n]
		c.readyHead = 0
	}
	return t
}

// dispatchLocked releases the run token and hands it to the next turn in
// the ready queue, arming the delayed starts it passes on the way. With the
// queue empty it advances virtual time to the next timer, or wakes Quiesce
// waiters when the simulation is fully drained, or panics on deadlock. A
// finishing worker passes itself and is returned the function to run when
// the token comes straight back to it; other callers pass and get nil.
func (c *Clock) dispatchLocked(self *actor) func() {
	for {
		for c.readyHead < len(c.ready) {
			t := c.popReadyLocked()
			switch {
			case t.d > 0:
				c.armLocked(c.ns.Load()+int64(t.d), nil, t.fn)
			case t.a != nil:
				c.cur = t.a
				t.a.ch <- nil
				return nil
			default:
				return c.startLocked(t.fn, self)
			}
		}
		if len(c.timers) > 0 {
			c.stats.Advances++
			now := c.timers[0].at
			c.ns.Store(now)
			for len(c.timers) > 0 && c.timers[0].at == now {
				t := c.timers.pop()
				c.ready = append(c.ready, turn{a: t.a, fn: t.fn})
			}
			continue
		}
		if len(c.idlers) == 0 {
			panic(fmt.Sprintf("simclock: deadlock at %s: %d actor(s) blocked on events with no pending timers",
				c.Now().Format(time.RFC3339), c.blocked))
		}
		// Fully drained (aside from event waiters that can only be woken by
		// the idlers themselves): resume the Quiesce callers and release the
		// parked worker pool, so a drained clock pins no goroutines.
		for _, w := range c.workers {
			close(w.ch)
		}
		c.workers = nil
		for _, a := range c.idlers {
			c.ready = append(c.ready, turn{a: a})
		}
		c.idlers = nil
	}
}

// timer is one heap entry: at its instant it wakes a, or queues fn to start.
type timer struct {
	at  int64 // nanoseconds from the clock's base
	seq uint64
	a   *actor
	fn  func()
}

func (t *timer) before(u *timer) bool {
	return t.at < u.at || t.at == u.at && t.seq < u.seq
}

// timerHeap is a 4-ary min-heap of timer values ordered by (at, seq): wake
// time first, arming order among ties, so wake-ups are deterministic. Four
// children per node halve a binary heap's depth and span two cache lines.
type timerHeap []timer

func (h *timerHeap) push(t timer) {
	s := append(*h, t)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !t.before(&s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = t
	*h = s
}

func (h *timerHeap) pop() timer {
	s := *h
	top, n := s[0], len(s)-1
	t := s[n]
	s[n] = timer{} // drop the references the vacated slot holds
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for first := 1; first < n; first = 4*i + 1 {
		m := first
		for j := first + 1; j < min(first+4, n); j++ {
			if s[j].before(&s[m]) {
				m = j
			}
		}
		if !s[m].before(&t) {
			break
		}
		s[i] = s[m]
		i = m
	}
	s[i] = t
	return top
}
