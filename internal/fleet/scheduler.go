package fleet

import (
	"container/heap"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/objstore"
	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// SchedConfig tunes the cross-rule dispatch scheduler.
type SchedConfig struct {
	// LaneSlots bounds concurrent gated orchestrations per source lane —
	// the knob that turns one rule's burst into visible queueing for its
	// lane-mates instead of a platform-wide pile-up. Default 16.
	LaneSlots int
	// BatchWindow is how long a lane coalesces newly arrived notifications
	// before one pump round admits them together (cross-rule batching).
	// Default 20ms.
	BatchWindow time.Duration
	// StarveAfter is the queue wait past which an event counts its rule as
	// starved (once per event). Default 30s.
	StarveAfter time.Duration
}

func (c SchedConfig) withDefaults() SchedConfig {
	if c.LaneSlots <= 0 {
		c.LaneSlots = 16
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 20 * time.Millisecond
	}
	if c.StarveAfter <= 0 {
		c.StarveAfter = 30 * time.Second
	}
	return c
}

// quotaRetry paces pump retries while the lane's fn quota is saturated.
const quotaRetry = 50 * time.Millisecond

// Scheduler is the fleet's cross-rule dispatch plane. Each rule routes its
// deduplicated source notifications here (via the engine's dispatch gate);
// pump rounds admit them per source lane by priority class, then fair
// share (lowest vruntime = admissions weighted by 1/weight), bounded by
// LaneSlots. Admissions sharing a pump round form one cross-rule batch.
type Scheduler struct {
	clock  *simclock.Clock
	reg    *telemetry.Registry
	ledger *Ledger // may be nil: no quota attribution
	cfg    SchedConfig

	mu    sync.Mutex
	rules map[string]*schedRule
	lanes map[LaneID]*schedLane
}

type pendingDispatch struct {
	at  time.Time
	run func(done func())
}

type schedRule struct {
	id       string
	lane     *schedLane
	weight   float64
	priority int
	vruntime float64
	queue    []pendingDispatch
	// starvedPrefix counts queue entries already marked starved. The queue
	// is FIFO with non-decreasing arrival times, so marked entries always
	// form a prefix and starvation scans resume where the last one stopped.
	starvedPrefix int
	maxQueue      int
	heapIdx       int // position in lane.eligible, -1 when not queued

	admitted     int64
	deferred     int64
	starvedCount int64
	quotaWaited  int64

	admits     *telemetry.Counter
	defers     *telemetry.Counter
	starved    *telemetry.Counter
	quotaWaits *telemetry.Counter
	waitHist   *telemetry.Histogram
}

type schedLane struct {
	id       LaneID
	inflight int
	armed    bool
	// eligible is the persistent admission heap: exactly the rules with
	// queued work, ordered by (priority desc, vruntime asc, rule ID asc).
	// The ID tiebreak makes the order total, so the admitted sequence is a
	// pure function of submissions — heap layout cannot leak into results.
	eligible ruleHeap
	nBatches int64 // non-empty pump rounds on this lane

	batches   *telemetry.Counter
	batchSize *telemetry.Histogram
}

// ruleHeap implements container/heap over rules with queued work. Rules
// track their index so membership updates are O(log n) instead of a
// per-round O(n log n) rebuild of the eligibility set.
type ruleHeap []*schedRule

func (h ruleHeap) Len() int { return len(h) }
func (h ruleHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	if a.vruntime != b.vruntime {
		return a.vruntime < b.vruntime
	}
	return a.id < b.id
}
func (h ruleHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *ruleHeap) Push(x any) {
	r := x.(*schedRule)
	r.heapIdx = len(*h)
	*h = append(*h, r)
}
func (h *ruleHeap) Pop() any {
	old := *h
	n := len(old)
	r := old[n-1]
	old[n-1] = nil
	r.heapIdx = -1
	*h = old[:n-1]
	return r
}

// NewScheduler returns a Scheduler on clock, attributing quota waits via
// ledger (may be nil) and instrumenting into reg (may be nil).
func NewScheduler(clock *simclock.Clock, reg *telemetry.Registry, ledger *Ledger, cfg SchedConfig) *Scheduler {
	return &Scheduler{
		clock: clock, reg: reg, ledger: ledger, cfg: cfg.withDefaults(),
		rules: make(map[string]*schedRule),
		lanes: make(map[LaneID]*schedLane),
	}
}

// Register admits a rule into the fleet: dispatches submitted under ruleID
// are scheduled on the given source lane with the given fair-share weight
// (default 1) and priority class (higher admits first). Registering the
// same rule twice is a topology error.
func (s *Scheduler) Register(ruleID, dest string, lane LaneID, weight float64, priority int) error {
	if ruleID == "" {
		return fmt.Errorf("fleet: register: empty rule ID")
	}
	if weight <= 0 {
		weight = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.rules[ruleID]; dup {
		return fmt.Errorf("fleet: rule %q already registered", ruleID)
	}
	ln := s.lanes[lane]
	if ln == nil {
		ln = &schedLane{id: lane}
		if m := s.reg; m != nil {
			dims := lane.labels()
			ln.batches = m.CounterVec("fleet.batch.count").With(dims...)
			ln.batchSize = m.HistogramVec("fleet.batch.size").With(dims...)
		}
		s.lanes[lane] = ln
	}
	r := &schedRule{id: ruleID, lane: ln, weight: weight, priority: priority, heapIdx: -1}
	if m := s.reg; m != nil {
		dims := []telemetry.Label{telemetry.L("rule", ruleID), telemetry.L("dest", dest)}
		r.admits = m.CounterVec("fleet.sched.admits").With(dims...)
		r.defers = m.CounterVec("fleet.sched.defers").With(dims...)
		r.starved = m.CounterVec("fleet.sched.starved").With(dims...)
		r.quotaWaits = m.CounterVec("fleet.quota.waits").With(dims...)
		r.waitHist = m.HistogramVec("fleet.sched.wait.seconds").With(dims...)
	}
	s.rules[ruleID] = r
	return nil
}

// Gate returns a dispatch gate (core.Options.DispatchGate shape) routing
// one rule's notifications through the scheduler.
func (s *Scheduler) Gate(ruleID string) func(objstore.Event, func(done func())) {
	return func(_ objstore.Event, run func(done func())) { s.Submit(ruleID, run) }
}

// Submit queues one deduplicated notification for the rule and arms the
// lane's batch-window pump. Unregistered rules run immediately (the gate
// stays safe if wiring and registration ever disagree).
func (s *Scheduler) Submit(ruleID string, run func(done func())) {
	s.mu.Lock()
	r := s.rules[ruleID]
	if r == nil {
		s.mu.Unlock()
		run(nil)
		return
	}
	r.queue = append(r.queue, pendingDispatch{at: s.clock.Now(), run: run})
	if len(r.queue) > r.maxQueue {
		r.maxQueue = len(r.queue)
	}
	if r.heapIdx < 0 {
		heap.Push(&r.lane.eligible, r)
	}
	s.arm(r.lane, s.cfg.BatchWindow)
	s.mu.Unlock()
}

// arm schedules a pump for the lane after delay unless one is already
// pending. Caller holds mu.
func (s *Scheduler) arm(ln *schedLane, delay time.Duration) {
	if ln.armed {
		return
	}
	ln.armed = true
	s.clock.Delay(delay, func() { s.pump(ln) })
}

// pump is one admission round for a lane: mark starvation, admit queued
// dispatches (priority desc, vruntime asc, rule ID asc) until the lane's
// slots — or its fn quota — run out, then launch the admitted batch.
func (s *Scheduler) pump(ln *schedLane) {
	s.mu.Lock()
	ln.armed = false
	now := s.clock.Now()
	// Starvation marking touches only rules with queued work (heap members)
	// and, per queue, resumes past the already-marked prefix and stops at
	// the first entry younger than the threshold — FIFO order means nothing
	// beyond it can be starved either.
	for _, r := range ln.eligible {
		for r.starvedPrefix < len(r.queue) && now.Sub(r.queue[r.starvedPrefix].at) > s.cfg.StarveAfter {
			r.starvedPrefix++
			r.starvedCount++
			r.starved.Inc()
		}
	}

	var batch []pendingDispatch
	quotaGated := false
	for ln.inflight < s.cfg.LaneSlots && len(ln.eligible) > 0 {
		// Re-selecting the head each iteration keeps fair share exact as
		// vruntimes move; a head admission is one O(log n) sift.
		r := ln.eligible[0]
		if s.ledger != nil && s.ledger.Saturated(ln.id) {
			// Admitting now would just park inside the platform's quota
			// wait; defer and attribute the wait to the rule that lost out.
			r.quotaWaited++
			r.quotaWaits.Inc()
			quotaGated = true
			break
		}
		it := r.queue[0]
		r.queue = r.queue[1:]
		if r.starvedPrefix > 0 {
			r.starvedPrefix--
		}
		r.vruntime += 1 / r.weight
		r.admitted++
		r.admits.Inc()
		r.waitHist.Observe(now.Sub(it.at).Seconds())
		ln.inflight++
		batch = append(batch, it)
		if len(r.queue) == 0 {
			heap.Pop(&ln.eligible)
		} else {
			heap.Fix(&ln.eligible, 0)
		}
	}
	if len(batch) > 0 {
		ln.nBatches++
		ln.batches.Inc()
		ln.batchSize.Observe(float64(len(batch)))
	}
	for _, r := range ln.eligible {
		r.deferred++
		r.defers.Inc()
	}
	// Quota-gated with free slots: nothing of ours is inflight to trigger
	// a done-side re-arm, so poll until the lane's quota drains.
	if quotaGated && ln.inflight < s.cfg.LaneSlots {
		s.arm(ln, quotaRetry)
	}
	s.mu.Unlock()

	for i := range batch {
		run := batch[i].run
		s.clock.Go(func() {
			run(func() { s.onDone(ln) })
		})
	}
}

// onDone returns a lane slot and re-arms the pump if work is queued. The
// heap's membership invariant (rules with queued work, exactly) makes the
// check O(1) instead of a scan over every registered rule.
func (s *Scheduler) onDone(ln *schedLane) {
	s.mu.Lock()
	ln.inflight--
	if len(ln.eligible) > 0 {
		s.arm(ln, s.cfg.BatchWindow)
	}
	s.mu.Unlock()
}

// RuleStats is one rule's scheduling account.
type RuleStats struct {
	Rule       string
	Admits     int64
	Defers     int64
	Starved    int64
	QuotaWaits int64
	Queued     int
	MaxQueue   int
}

// RuleStats snapshots every registered rule, sorted by rule ID.
func (s *Scheduler) RuleStats() []RuleStats {
	s.mu.Lock()
	out := make([]RuleStats, 0, len(s.rules))
	for _, r := range s.rules {
		out = append(out, RuleStats{
			Rule: r.id, Admits: r.admitted, Defers: r.deferred,
			Starved: r.starvedCount, QuotaWaits: r.quotaWaited,
			Queued: len(r.queue), MaxQueue: r.maxQueue,
		})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Rule < out[j].Rule })
	return out
}

// BatchStats aggregates cross-rule batching over all lanes.
type BatchStats struct {
	Batches  int64
	Admitted int64
	MeanSize float64
}

// BatchStats totals pump-round batching across the fleet.
func (s *Scheduler) BatchStats() BatchStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st BatchStats
	for _, ln := range s.lanes {
		// The lane's plain counter counts with or without a registry.
		st.Batches += ln.nBatches
	}
	for _, r := range s.rules {
		st.Admitted += r.admitted
	}
	if st.Batches > 0 {
		st.MeanSize = float64(st.Admitted) / float64(st.Batches)
	}
	return st
}
