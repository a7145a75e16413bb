// Package batching implements SLO-bounded batching (§5.4, Algorithm 4).
// When the SLO leaves slack beyond the estimated replication time, the
// batcher delays an object's replication toward its deadline so that rapid
// successive updates collapse into a single transfer of the newest
// version; versions superseded before their timers fire are skipped
// entirely. Cost then stays nearly flat as update frequency grows
// (Figure 22) while the SLO still holds.
package batching

import (
	"sync"
	"time"

	"repro/internal/objstore"
	"repro/internal/simclock"
)

// EstimateFn predicts the replication time of an object of the given size
// (the planner's fastest-plan estimate, T_rep in Algorithm 4).
type EstimateFn func(size int64) time.Duration

// HeadFn fetches the current metadata of a source object.
type HeadFn func(key string) (objstore.Meta, error)

// DispatchFn hands an event to the replication engine.
type DispatchFn func(ev objstore.Event)

// DelayFn schedules fn after d — in production a cloud-managed serverless
// workflow Wait state (§7), so delayed tasks survive function restarts.
type DelayFn func(d time.Duration, fn func())

// Stats counts batcher outcomes.
type Stats struct {
	Submitted  int64 // events received
	Immediate  int64 // dispatched with no slack
	Delayed    int64 // timers armed
	Coalesced  int64 // versions superseded before their timer fired
	Dispatched int64 // events actually sent to the engine
}

// Batcher delays replication toward the SLO deadline.
type Batcher struct {
	clock    *simclock.Clock
	slo      time.Duration
	estimate EstimateFn
	head     HeadFn
	dispatch DispatchFn

	delay DelayFn

	mu         sync.Mutex
	dispatched map[string]uint64 // per key: newest seq handed to the engine
	stats      Stats
}

// epsilon is the safety margin subtracted from each deadline.
const epsilon = time.Second

// New returns a Batcher.
func New(clock *simclock.Clock, slo time.Duration, estimate EstimateFn, head HeadFn, dispatch DispatchFn) *Batcher {
	return &Batcher{
		clock:      clock,
		slo:        slo,
		estimate:   estimate,
		head:       head,
		dispatch:   dispatch,
		delay:      clock.Delay,
		dispatched: make(map[string]uint64),
	}
}

// SetDelayer replaces the timer backend (core wires the region's
// serverless workflow service here so Wait states are billed).
func (b *Batcher) SetDelayer(d DelayFn) { b.delay = d }

// Stats returns a snapshot of the batcher's counters.
func (b *Batcher) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// Submit receives a source-bucket notification. DELETE events pass through
// immediately; PUT events are delayed toward their deadline when the SLO
// allows.
func (b *Batcher) Submit(ev objstore.Event) {
	b.mu.Lock()
	b.stats.Submitted++
	b.mu.Unlock()

	if ev.Type == objstore.EventDelete || b.slo <= 0 {
		b.fire(ev)
		return
	}
	deadline := ev.Time.Add(b.slo)
	est := b.estimate(ev.Size)
	now := b.clock.Now()
	if now.Add(est + epsilon).After(deadline) {
		// No slack: replicate immediately (Algorithm 4's deadline branch).
		b.mu.Lock()
		b.stats.Immediate++
		b.mu.Unlock()
		b.fire(ev)
		return
	}
	b.mu.Lock()
	b.stats.Delayed++
	b.mu.Unlock()
	b.delay(deadline.Sub(now)-est-epsilon, func() { b.timerFired(ev) })
}

// timerFired re-examines a delayed version: if a newer version has already
// been dispatched it is skipped; otherwise the *latest* source version is
// replicated, covering this one.
func (b *Batcher) timerFired(ev objstore.Event) {
	b.mu.Lock()
	covered := b.dispatched[ev.Key] >= ev.Seq
	if covered {
		b.stats.Coalesced++
	}
	b.mu.Unlock()
	if covered {
		return
	}
	meta, err := b.head(ev.Key)
	if err != nil {
		// The object was deleted; the DELETE event converges the replica.
		return
	}
	if meta.Seq > ev.Seq {
		// Replicate the newest version; our version rides along (its delay
		// is resolved when the newer version lands).
		b.mu.Lock()
		b.stats.Coalesced++
		b.mu.Unlock()
	}
	b.fire(objstore.Event{
		Type: objstore.EventPut, Bucket: ev.Bucket, Key: meta.Key,
		Size: meta.Size, ETag: meta.ETag, Seq: meta.Seq, Time: meta.Created,
	})
}

func (b *Batcher) fire(ev objstore.Event) {
	b.mu.Lock()
	if b.dispatched[ev.Key] >= ev.Seq && ev.Type == objstore.EventPut {
		// Already covered by a newer dispatch that raced us.
		b.stats.Coalesced++
		b.mu.Unlock()
		return
	}
	if ev.Seq > b.dispatched[ev.Key] {
		b.dispatched[ev.Key] = ev.Seq
	}
	b.stats.Dispatched++
	b.mu.Unlock()
	b.dispatch(ev)
}
