package engine

import (
	"container/heap"
	"sync"
	"time"

	"repro/internal/objstore"
	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// DelayRecord is one source write's measured replication delay: the time
// from PUT completion in the source bucket until that version *or a newer
// one* was retrievable in the destination — the paper's delay metric (§8).
type DelayRecord struct {
	Key       string
	Seq       uint64
	Size      int64
	EventTime time.Time
	DoneTime  time.Time
	Delay     time.Duration
}

// Tracker resolves replication delays. Every source event registers here
// when the notification arrives; completions resolve all registered events
// of the key whose version is not newer than the replicated one, so
// SLO-bounded batching and lock-coalesced versions are measured correctly.
//
// Pending events also sit in a min-heap on event time with lazy deletion,
// so the watermark queries the burn-rate evaluator polls every round
// (OldestPending, OverdueCount) cost one heap peek / bounded heap walk
// instead of a scan over every pending event. One map and one heap under
// one lock: trackers are per rule and the clock runs one actor at a time,
// so there is no contention for shards to relieve.
type Tracker struct {
	mu       sync.Mutex
	pending  map[string][]pendingEvent
	resolved map[string]uint64 // per-key high-water mark of resolved versions
	n        int               // live pending events
	records  []DelayRecord     // in resolve order

	// byTime orders the pending events by (at, key, seq) — a total order,
	// so heap contents are a pure function of the event sequence.
	// Resolution deletes lazily: entries whose (key, seq) is no longer in
	// pending are skipped on peek and swept out by rebuilds once the dead
	// outnumber the live.
	byTime evHeap
	dead   int

	delayHist *telemetry.Histogram // optional; nil no-ops

	// Lag watermark instruments (all optional): lagHist is the
	// per-destination replication-lag histogram child, backlog mirrors the
	// pending-event depth, and oldestMS holds the age of the oldest
	// unreplicated event in milliseconds, refreshed by SampleWatermarks on
	// the virtual clock.
	lagHist  *telemetry.Histogram
	backlog  *telemetry.Gauge
	oldestMS *telemetry.Gauge
}

type pendingEvent struct {
	seq  uint64
	size int64
	at   time.Time
}

// heapEv is one pending event's heap entry.
type heapEv struct {
	at  time.Time
	key string
	seq uint64
}

type evHeap []heapEv

func (h evHeap) Len() int { return len(h) }
func (h evHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].seq < h[j].seq
}
func (h evHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *evHeap) Push(x any)   { *h = append(*h, x.(heapEv)) }
func (h *evHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{
		pending:  make(map[string][]pendingEvent),
		resolved: make(map[string]uint64),
	}
}

// alive reports whether the heap entry still refers to a pending event.
// Caller holds mu; per-key slices hold the few unresolved versions of one
// object, so the scan is constant-time in practice.
func (t *Tracker) alive(ev heapEv) bool {
	for _, p := range t.pending[ev.key] {
		if p.seq == ev.seq {
			return true
		}
	}
	return false
}

// pruneTop pops dead entries off the heap until the min is live (or the
// heap is empty). Caller holds mu.
func (t *Tracker) pruneTop() {
	for len(t.byTime) > 0 && !t.alive(t.byTime[0]) {
		heap.Pop(&t.byTime)
		t.dead--
	}
}

// sweep rebuilds the heap from the pending map once dead entries
// outnumber live ones, bounding heap size at 2x the live backlog. Caller
// holds mu.
func (t *Tracker) sweep() {
	if t.dead <= t.n {
		return
	}
	t.byTime = t.byTime[:0]
	for key, evs := range t.pending {
		for _, p := range evs {
			t.byTime = append(t.byTime, heapEv{at: p.at, key: key, seq: p.seq})
		}
	}
	heap.Init(&t.byTime)
	t.dead = 0
}

// SetTelemetry feeds every resolved delay into hist (the paper's
// replication-delay metric, aggregated run-wide).
func (t *Tracker) SetTelemetry(hist *telemetry.Histogram) {
	t.mu.Lock()
	t.delayHist = hist
	t.mu.Unlock()
}

// SetWatermarks wires the RTC-style lag watermark instruments: lag is
// the per-destination replication-lag histogram (each resolved event's
// observed→durable time), backlog the pending-depth gauge, and
// oldestMS the oldest-unreplicated-age gauge SampleWatermarks refreshes.
func (t *Tracker) SetWatermarks(lag *telemetry.Histogram, backlog, oldestMS *telemetry.Gauge) {
	t.mu.Lock()
	t.lagHist = lag
	t.backlog = backlog
	t.oldestMS = oldestMS
	t.mu.Unlock()
}

// OnSource registers a source-bucket event awaiting replication. It
// returns false — and registers nothing — for duplicate deliveries:
// either the same (key, version) is already pending, or the version was
// already resolved (a notification re-delivered after the engine
// converged). Callers skip dispatch on false; this is the version-level
// dedupe that keeps at-least-once notification delivery from causing
// duplicate replication work.
func (t *Tracker) OnSource(ev objstore.Event) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ev.Seq <= t.resolved[ev.Key] {
		return false
	}
	for _, p := range t.pending[ev.Key] {
		if p.seq == ev.Seq {
			return false
		}
	}
	t.pending[ev.Key] = append(t.pending[ev.Key], pendingEvent{seq: ev.Seq, size: ev.Size, at: ev.Time})
	heap.Push(&t.byTime, heapEv{at: ev.Time, key: ev.Key, seq: ev.Seq})
	t.n++
	t.backlog.Add(1)
	return true
}

// Resolve marks every pending event of key with version <= seq as
// replicated at time done, recording their delays.
func (t *Tracker) Resolve(key string, seq uint64, done time.Time) {
	t.ResolveSpan(key, seq, done, nil)
}

// ResolveSpan is Resolve with the task span of the completion: each
// resolved delay is nominated as an exemplar for the delay and lag
// histograms, linking the bucket to the completing task's trace if that
// trace survives retention. A nil span resolves without exemplars.
func (t *Tracker) ResolveSpan(key string, seq uint64, done time.Time, sp *telemetry.Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if seq > t.resolved[key] {
		t.resolved[key] = seq
	}
	evs := t.pending[key]
	var hits []pendingEvent
	remaining := evs[:0]
	for _, ev := range evs {
		if ev.seq <= seq {
			hits = append(hits, ev)
		} else {
			remaining = append(remaining, ev)
		}
	}
	if len(hits) == 0 {
		return
	}
	if len(remaining) == 0 {
		delete(t.pending, key)
	} else {
		t.pending[key] = remaining
	}
	t.n -= len(hits)
	t.dead += len(hits)
	t.sweep()

	for _, ev := range hits {
		d := done.Sub(ev.at)
		t.records = append(t.records, DelayRecord{
			Key:       key,
			Seq:       ev.seq,
			Size:      ev.size,
			EventTime: ev.at,
			DoneTime:  done,
			Delay:     d,
		})
		secs := simclock.ToSeconds(d)
		t.delayHist.Observe(secs)
		t.lagHist.Observe(secs)
		sp.Exemplar(t.delayHist, secs)
		sp.Exemplar(t.lagHist, secs)
		t.backlog.Add(-1)
	}
}

// Records returns a copy of the resolved delay records.
func (t *Tracker) Records() []DelayRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]DelayRecord(nil), t.records...)
}

// DelaysSeconds returns the resolved delays in seconds.
func (t *Tracker) DelaysSeconds() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]float64, len(t.records))
	for i, r := range t.records {
		out[i] = r.Delay.Seconds()
	}
	return out
}

// PendingFor reports whether any event for key awaits resolution.
func (t *Tracker) PendingFor(key string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.pending[key]) > 0
}

// PendingCount reports events that have not been resolved yet.
func (t *Tracker) PendingCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// OldestPending returns the age at `now` of the oldest unreplicated
// source event, or 0 when nothing is pending — the watermark behind the
// oldest-unreplicated-age gauge. One pruned heap peek.
func (t *Tracker) OldestPending(now time.Time) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pruneTop()
	if len(t.byTime) == 0 {
		return 0
	}
	return max(now.Sub(t.byTime[0].at), 0)
}

// SampleWatermarks refreshes the oldest-unreplicated-age gauge at the
// given virtual instant and returns the sampled age. Drivers call it at
// their natural poll points (the virtual clock only advances while
// actors sleep, so the tracker cannot self-schedule a sampling timer).
func (t *Tracker) SampleWatermarks(now time.Time) time.Duration {
	age := t.OldestPending(now)
	t.oldestMS.Set(age.Milliseconds())
	return age
}

// OverdueCount reports how many pending events have waited longer than
// target at `now` — the burn-rate evaluator's in-flight "bad" events,
// which catches fault windows where nothing resolves at all. The heap
// property bounds the walk: a subtree is pruned as soon as its root is
// younger than the threshold, so cost scales with the answer (plus any
// not-yet-swept dead entries), not the backlog.
func (t *Tracker) OverdueCount(now time.Time, target time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.overdueFrom(0, now.Add(-target))
}

// overdueFrom counts live heap entries strictly older than cut in the
// subtree rooted at i. Dead entries still carry a valid lower bound for
// their subtree, so they prune correctly; they just do not count. Caller
// holds mu.
func (t *Tracker) overdueFrom(i int, cut time.Time) int {
	if i >= len(t.byTime) || !t.byTime[i].at.Before(cut) {
		return 0
	}
	n := 0
	if t.alive(t.byTime[i]) {
		n++
	}
	return n + t.overdueFrom(2*i+1, cut) + t.overdueFrom(2*i+2, cut)
}

// ResolvedStats counts delay records resolved at or after cut, and how
// many of them exceeded the lag target. Records resolve in nondecreasing
// virtual time, so the scan walks back from the tail.
func (t *Tracker) ResolvedStats(cut time.Time, target time.Duration) (total, bad int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.records) - 1; i >= 0; i-- {
		r := t.records[i]
		if r.DoneTime.Before(cut) {
			break
		}
		total++
		if r.Delay > target {
			bad++
		}
	}
	return total, bad
}

// BacklogDepth returns the current pending-event depth.
func (t *Tracker) BacklogDepth() int {
	return t.PendingCount()
}
