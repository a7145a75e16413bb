// Package engine implements AReplica's replication engine (§5.1-5.2): the
// serverless workflow of notification → orchestrator → replicator
// functions, with decentralized part-granularity scheduling (Algorithm 1),
// the object-granularity replication lock (Algorithm 2), and optimistic
// validation with ETags. Slow instances naturally replicate fewer parts
// because every part is claimed from a shared pool in the location
// region's KV store — two KV accesses per part, as the paper costs it.
package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cloud"
	"repro/internal/faas"
	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/planner"
	"repro/internal/retry"
	"repro/internal/simclock"
	"repro/internal/simrand"
	"repro/internal/telemetry"
	"repro/internal/world"
)

// SchedulingMode selects how data parts are distributed to replicators.
type SchedulingMode int

// Scheduling modes.
const (
	// PartPool is decentralized part-granularity scheduling: replicators
	// claim parts from a shared pool as they become available (Algorithm 1).
	PartPool SchedulingMode = iota
	// FairDispatch statically assigns each replicator an equal contiguous
	// range of parts, the strawman of Figure 12 used in the Figure 17
	// ablation.
	FairDispatch
)

// OriginPrefix tags destination writes made by any AReplica engine. Events
// carrying it are never re-replicated, which breaks the ping-pong loop of
// bidirectional (active-active) rule pairs, mirroring how S3 replication
// skips replica-created objects.
const OriginPrefix = "areplica/"

func (m SchedulingMode) String() string {
	if m == FairDispatch {
		return "fair"
	}
	return "part-pool"
}

// Rule configures replication of one bucket pair.
type Rule struct {
	Src, Dst             cloud.RegionID
	SrcBucket, DstBucket string

	// SLO is the replication-delay objective measured from the source PUT;
	// zero requests the fastest plan for every object.
	SLO time.Duration
	// Percentile is the model percentile plans must satisfy (default 0.99).
	Percentile float64
	// PartSize is the distributed-replication part size (default 8 MB).
	// With adaptive part sizing enabled the planner overrides it per
	// object; it remains the fallback for unprofiled paths, ForceN with
	// adaptive sizing off, and the single-function chunk loop.
	PartSize int64
	// Scheduling selects PartPool (default) or FairDispatch.
	Scheduling SchedulingMode

	// DisableDoubleBuffer turns off the pipelined data plane: each
	// replicator falls back to serializing part i's download and upload
	// instead of overlapping part i+1's download with part i's upload.
	DisableDoubleBuffer bool
	// ClaimBatch is how many parts a replicator claims (and acknowledges)
	// per part-pool KV increment. 0 takes planner.DefaultClaimBatch; 1
	// restores the per-part claims of the unbatched data plane.
	ClaimBatch int
	// HedgeBudget bounds how many in-flight parts an idle replicator may
	// speculatively duplicate once the pool is exhausted (idempotent
	// part uploads make duplicates safe). 0 takes the default of 4; a
	// negative value disables hedging. FairDispatch never hedges.
	HedgeBudget int
	// DisableAdaptiveParts pins distributed transfers to PartSize
	// instead of letting the planner pick a per-object part size.
	DisableAdaptiveParts bool

	// RedriveMax caps automatic DLQ redrives per event (default 2; a
	// negative value disables automatic redrive); an event re-enters the
	// pipeline redriveDelay after dead-lettering until the cap, then parks
	// in the DLQ for manual RedriveDLQ.
	RedriveMax int

	// LockLease bounds how long a crashed orchestrator can wedge a key's
	// replication lock (default 15 minutes); past it the KV TTL frees the
	// lock and the next redrive proceeds. Release is fenced by holder
	// token, so an expired holder's late release is a no-op.
	LockLease time.Duration

	// KeyPrefix, when non-empty, scopes the rule to keys with the prefix
	// (as in S3 replication rule filters); other keys are ignored.
	KeyPrefix string

	// AcceptOrigins lists replica-write origin tags (see OriginFor) whose
	// events this rule treats as source writes. Chained topologies
	// (A→B→C) set the B→C rule's AcceptOrigins to the A→B rule's origin,
	// so B's applied writes feed C without a notification loop: every
	// other engine-originated event — the rule's own writes included — is
	// still skipped, and the destination-ETag dedupe terminates any
	// residual cycle a mis-declared topology could create.
	AcceptOrigins []string

	// ForceN and ForceLoc, when set, bypass the planner and pin the
	// parallelism and execution region. Ablation experiments (Figures 8,
	// 17, 18-19) use them to hold the strategy fixed.
	ForceN   int
	ForceLoc cloud.RegionID
}

// redriveDelay is the wait before an automatic DLQ redrive (the platform
// retry of an async invocation).
const redriveDelay = 30 * time.Second

// maxRetries bounds optimistic-validation retries before an event goes to
// the dead-letter queue: a task makes maxRetries + 1 attempts, spaced by
// retry.TaskDefault's backoff.
const maxRetries = 3

// WithDefaults fills unset fields with the paper's defaults.
func (r Rule) WithDefaults() Rule {
	if r.Percentile <= 0 || r.Percentile >= 1 {
		r.Percentile = 0.99
	}
	if r.PartSize <= 0 {
		r.PartSize = model.DefaultChunk
	}
	// Negative RedriveMax and HedgeBudget (disabled) are kept as they are
	// so WithDefaults is idempotent — core.Deploy and engine.New both
	// apply it: mapping them to 0 would turn into the default on a second
	// application.
	if r.RedriveMax == 0 {
		r.RedriveMax = 2
	}
	if r.ClaimBatch <= 0 {
		r.ClaimBatch = planner.DefaultClaimBatch
	}
	if r.HedgeBudget == 0 {
		r.HedgeBudget = 4
	}
	if r.LockLease <= 0 {
		r.LockLease = 15 * time.Minute
	}
	return r
}

// InstanceStat records one replicator instance's contribution to a
// distributed task (Figure 17's per-instance data).
type InstanceStat struct {
	ID     string
	Chunks int
	Busy   time.Duration
}

// TaskResult summarizes one finished replication task.
type TaskResult struct {
	Key       string
	ETag      string
	Size      int64
	Plan      planner.Plan
	Start     time.Time // orchestration start (lock held)
	End       time.Time // destination object retrievable
	OK        bool
	Changelog bool   // satisfied by changelog propagation, no data moved
	Reason    string // failure reason when OK is false
	Retries   int
	Instances []InstanceStat
}

// ExecSeconds is the measured replication time T_rep of the task.
func (t TaskResult) ExecSeconds() float64 { return t.End.Sub(t.Start).Seconds() }

// Engine replicates objects for one Rule on a simulated world.
type Engine struct {
	W       *world.World
	Planner *planner.Planner
	Rule    Rule
	Tracker *Tracker

	// TryChangelog, when set, is consulted before planning a full
	// replication; returning true means the version was propagated via its
	// changelog (§5.4) and no data transfer is needed. sp is the attempt's
	// "changelog" span (nil when tracing is off) for child annotations.
	TryChangelog func(sp *telemetry.Span, key, etag string) bool
	// OnTaskDone, when set, observes every finished task (the logger hooks
	// in here).
	OnTaskDone func(TaskResult)

	lock    *replLock
	ruleID  string
	taskSeq atomic.Int64
	breaker *breaker
	ckpt    *ckptStore
	// dispatchGate, when set (SetDispatchGate, before traffic), admits
	// notification dispatches through the fleet scheduler.
	dispatchGate func(ev objstore.Event, run func(done func()))

	// Instruments are the {rule,dest}-labelled children of their families
	// (the fleet-level per-rule breakdown); each rolls up into the family
	// aggregate that readers of the plain name see.
	tasksOK         *telemetry.Counter
	tasksFailed     *telemetry.Counter
	tasksChangelog  *telemetry.Counter
	tasksDLQ        *telemetry.Counter
	tasksDeduped    *telemetry.Counter
	eventsDeduped   *telemetry.Counter
	retries         *telemetry.Counter
	partsHedged     *telemetry.Counter
	breakerDegraded *telemetry.Counter
	dlqRedriven     *telemetry.Counter
	resumedTasks    *telemetry.Counter
	partsResumed    *telemetry.Counter
	partsReclaimed  *telemetry.Counter
	partsFenced     *telemetry.Counter
	mpusAborted     *telemetry.Counter
	locksRecovered  *telemetry.Counter
	gcMPUs          *telemetry.Counter
	gcBytes         *telemetry.Counter
	dlqDepth        *telemetry.Gauge
	taskHist        *telemetry.Histogram
	lagHist         *telemetry.Histogram
	dims            []telemetry.Label // {rule,dest}, reused on exemplars

	mu       sync.Mutex
	dlq      []objstore.Event   // exhausted their retries and automatic redrives
	redrives map[string]int     // key@seq -> automatic redrives consumed
	traceSeq map[string]int     // per-version dispatch count, for trace IDs
	ckpts    map[string]ckptRef // key -> live recovery records (MPU, pool)
}

// New returns an Engine for rule. The replication lock lives in the source
// region's KV store.
func New(w *world.World, pl *planner.Planner, rule Rule) *Engine {
	rule = rule.WithDefaults()
	ruleID := strings.TrimPrefix(OriginFor(rule.Src, rule.SrcBucket, rule.Dst, rule.DstBucket), OriginPrefix)
	dims := []telemetry.Label{
		telemetry.L("rule", ruleID),
		telemetry.L("dest", string(rule.Dst)),
	}
	m := w.Metrics
	e := &Engine{
		W:        w,
		Planner:  pl,
		Rule:     rule,
		Tracker:  NewTracker(),
		ruleID:   ruleID,
		lock:     newReplLock(w.Region(rule.Src).KV, ruleID, rule.LockLease, w.Clock.Now),
		breaker:  newBreaker(w.Clock, w.Metrics, dims...),
		ckpt:     newCkptStore(w.Region(rule.Src).KV, ruleID),
		redrives: make(map[string]int),
		traceSeq: make(map[string]int),
		ckpts:    make(map[string]ckptRef),

		tasksOK:         m.CounterVec("engine.tasks.ok").With(dims...),
		tasksFailed:     m.CounterVec("engine.tasks.failed").With(dims...),
		tasksChangelog:  m.CounterVec("engine.tasks.changelog").With(dims...),
		tasksDLQ:        m.CounterVec("engine.tasks.dlq").With(dims...),
		tasksDeduped:    m.CounterVec("engine.tasks.deduped").With(dims...),
		eventsDeduped:   m.CounterVec("engine.events.deduped").With(dims...),
		retries:         m.CounterVec("engine.retries").With(dims...),
		partsHedged:     m.CounterVec("engine.parts.hedged").With(dims...),
		breakerDegraded: m.CounterVec("engine.breaker.degraded").With(dims...),
		dlqRedriven:     m.CounterVec("engine.dlq.redriven").With(dims...),
		resumedTasks:    m.CounterVec("engine.recovery.resumed").With(dims...),
		partsResumed:    m.CounterVec("engine.recovery.parts_resumed").With(dims...),
		partsReclaimed:  m.CounterVec("engine.recovery.parts_reclaimed").With(dims...),
		partsFenced:     m.CounterVec("engine.recovery.parts_fenced").With(dims...),
		mpusAborted:     m.CounterVec("engine.recovery.mpus_aborted").With(dims...),
		locksRecovered:  m.CounterVec("engine.recovery.locks_recovered").With(dims...),
		gcMPUs:          m.CounterVec("engine.gc.mpus_aborted").With(dims...),
		gcBytes:         m.CounterVec("engine.gc.bytes_reclaimed").With(dims...),
		dlqDepth:        m.GaugeVec("engine.dlq.depth").With(dims...),
		taskHist:        m.HistogramVec("engine.task.seconds").With(dims...),
		lagHist:         m.HistogramVec("engine.lag.seconds").With(dims...),
		dims:            dims,
	}
	e.Tracker.SetTelemetry(m.Histogram("engine.delay.seconds"))
	e.Tracker.SetWatermarks(
		e.lagHist,
		m.GaugeVec("engine.lag.backlog").With(dims...),
		m.GaugeVec("engine.lag.oldest_age_ms").With(dims...),
	)
	return e
}

// LagHistogram returns the per-destination replication-lag histogram
// child (the engine.lag.seconds{rule,dest} family member), the streaming
// p50/p99 surface behind the health table.
func (e *Engine) LagHistogram() *telemetry.Histogram { return e.lagHist }

// DLQ returns the events that exhausted their retries and redrives.
func (e *Engine) DLQ() []objstore.Event {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]objstore.Event(nil), e.dlq...)
}

// RedriveDLQ drains the dead-letter queue and re-dispatches every parked
// event with a fresh automatic-redrive budget, returning how many it
// re-enqueued — the operator's "redrive" button on a real queue.
func (e *Engine) RedriveDLQ() int {
	e.mu.Lock()
	parked := e.dlq
	e.dlq = nil
	for _, ev := range parked {
		delete(e.redrives, eventID(ev))
	}
	e.dlqDepth.Set(0)
	e.mu.Unlock()
	for _, ev := range parked {
		e.dlqRedriven.Inc()
		e.dispatch(ev, "redrive")
	}
	return len(parked)
}

// eventID identifies one source version for redrive accounting.
func eventID(ev objstore.Event) string {
	return fmt.Sprintf("%s@%d", ev.Key, ev.Seq)
}

// RepairOutcome classifies what Repair did with one divergent key.
type RepairOutcome string

// Repair outcomes.
const (
	// RepairDispatched: a synthetic event entered the normal replication path.
	RepairDispatched RepairOutcome = "dispatched"
	// RepairRedriven: the key was parked in the DLQ and its entries were
	// redriven instead of enqueueing a duplicate task.
	RepairRedriven RepairOutcome = "redriven"
	// RepairInflight: a task for this version is already pending, so the
	// repair deduped against it.
	RepairInflight RepairOutcome = "inflight"
)

// Repair enqueues one anti-entropy repair through the normal replication
// path — retries, breaker and DLQ included — deduplicating against work
// already in flight. A key parked in the DLQ is redriven with a fresh
// automatic-redrive budget rather than double-enqueued: the parked task's
// Tracker entry is still pending, so a fresh event for the same version
// would be deduped forever. Synthetic orphan deletes carry no source
// sequence and bypass the tracker; destination deletes are idempotent.
func (e *Engine) Repair(ev objstore.Event) RepairOutcome {
	if n := e.redriveKey(ev.Key); n > 0 {
		return RepairRedriven
	}
	if ev.Type != objstore.EventDelete && !e.Tracker.OnSource(ev) {
		if e.Tracker.PendingFor(ev.Key) {
			// A task for this key is genuinely in flight; let it finish and
			// re-check next round.
			e.eventsDeduped.Inc()
			return RepairInflight
		}
		// The version is below the tracker's resolved high-water mark but
		// the destination diverged anyway (replica loss or overwrite after
		// a successful replication): force re-replication past the dedupe.
	}
	e.dispatch(ev, "repair")
	return RepairDispatched
}

// redriveKey drains the DLQ entries parked for one key and re-dispatches
// them — the scrubber's targeted version of RedriveDLQ.
func (e *Engine) redriveKey(key string) int {
	e.mu.Lock()
	var parked, kept []objstore.Event
	for _, ev := range e.dlq {
		if ev.Key == key {
			parked = append(parked, ev)
			delete(e.redrives, eventID(ev))
		} else {
			kept = append(kept, ev)
		}
	}
	e.dlq = kept
	e.dlqDepth.Set(int64(len(e.dlq)))
	e.mu.Unlock()
	for _, ev := range parked {
		e.dlqRedriven.Inc()
		e.dispatch(ev, "redrive")
	}
	return len(parked)
}

// deadLetter handles an event that exhausted its task attempts: it is
// re-enqueued after redriveDelay while the automatic redrive budget
// lasts (the platform retry of an async invocation), then parked in the
// DLQ. Capped re-enqueue keeps poison events from looping forever.
// sp is the task span of the attempt that exhausted its retries; it is
// stamped with a dlq attr so the trace retention policy keeps the tree.
func (e *Engine) deadLetter(sp *telemetry.Span, ev objstore.Event) {
	sp.Set("dlq", true)
	id := eventID(ev)
	e.mu.Lock()
	n := e.redrives[id]
	if n < e.Rule.RedriveMax {
		e.redrives[id] = n + 1
		e.mu.Unlock()
		e.dlqRedriven.Inc()
		e.W.Clock.Delay(redriveDelay, func() { e.dispatch(ev, "redrive") })
		return
	}
	delete(e.redrives, id)
	e.dlq = append(e.dlq, ev)
	e.dlqDepth.Set(int64(len(e.dlq)))
	e.mu.Unlock()
	e.tasksDLQ.Inc()
	// Final park: no retry will resume this task, so its in-progress MPU
	// and recovery records must not linger until GC.
	e.releaseTask(ev.Key)
}

// HandleEvent is the notification entry point: it registers the event for
// delay measurement and dispatches an orchestrator invocation. Wire it to
// the source bucket via objstore.Subscribe (or through the batcher).
// Events outside the rule's key prefix, events originated by a
// replication engine (replica writes in an active-active pair), and
// duplicate deliveries of an already-seen (key, version) — bucket
// notifications are at-least-once — are ignored.
func (e *Engine) HandleEvent(ev objstore.Event) {
	if !e.Matches(ev.Key) || !e.AcceptsOrigin(ev.Origin) {
		return
	}
	if !e.Tracker.OnSource(ev) {
		e.eventsDeduped.Inc()
		return
	}
	if gate := e.dispatchGate; gate != nil {
		// The event is registered (queue wait counts as replication lag);
		// the fleet scheduler decides when the orchestration launches.
		gate(ev, func(done func()) { e.dispatchDone(ev, "", done) })
		return
	}
	e.Dispatch(ev)
}

// AcceptsOrigin reports whether an event origin counts as a source write
// for this rule: anything not engine-originated, plus the explicitly
// whitelisted upstream origins of a chained topology. The rule's own
// origin is never accepted.
func (e *Engine) AcceptsOrigin(origin string) bool {
	if !strings.HasPrefix(origin, OriginPrefix) {
		return true
	}
	if origin == e.origin() {
		return false
	}
	for _, ok := range e.Rule.AcceptOrigins {
		if origin == ok {
			return true
		}
	}
	return false
}

// SetDispatchGate routes notification-driven dispatches through an
// external admission gate (the fleet scheduler): the gate receives each
// deduplicated event and a run closure; run launches the orchestration
// and its done callback (may be nil) fires when the orchestrator
// invocation returns. Retries, redrives, anti-entropy repairs and lock
// recovery bypass the gate — they are already paced by their own policies.
// Install before traffic subscribes; the engine reads the gate unlocked.
func (e *Engine) SetDispatchGate(gate func(ev objstore.Event, run func(done func()))) {
	e.dispatchGate = gate
}

// origin returns the tag this engine stamps on its destination writes.
func (e *Engine) origin() string { return OriginPrefix + e.ruleID }

// OriginFor returns the origin tag an engine replicating src/srcBucket →
// dst/dstBucket stamps on destination writes. Chained fleet topologies
// whitelist it via Rule.AcceptOrigins.
func OriginFor(src cloud.RegionID, srcBucket string, dst cloud.RegionID, dstBucket string) string {
	return OriginPrefix + fmt.Sprintf("%s/%s->%s/%s", src, srcBucket, dst, dstBucket)
}

// RuleID returns the engine's stable rule identifier
// ("src/bucket->dst/bucket"), used for trace IDs and per-rule KV tables.
func (e *Engine) RuleID() string { return e.ruleID }

// Matches reports whether a key falls under this rule's prefix filter.
func (e *Engine) Matches(key string) bool {
	return e.Rule.KeyPrefix == "" || strings.HasPrefix(key, e.Rule.KeyPrefix)
}

// Backfill walks the source bucket and dispatches replication for every
// object that is missing or stale at the destination — the initial sync a
// freshly deployed rule needs so that notifications alone keep the pair
// converged afterwards. It returns how many objects were scheduled.
// Delays for backfilled objects are measured from the backfill itself.
func (e *Engine) Backfill() (int, error) {
	src := e.W.Region(e.Rule.Src)
	dst := e.W.Region(e.Rule.Dst)
	metas, err := src.Obj.List(e.Rule.SrcBucket)
	if err != nil {
		return 0, fmt.Errorf("engine: backfill list: %w", err)
	}
	scheduled := 0
	for _, m := range metas {
		if !e.Matches(m.Key) {
			continue
		}
		if cur, err := dst.Obj.Head(e.Rule.DstBucket, m.Key); err == nil && cur.ETag == m.ETag {
			continue // already converged
		}
		ev := objstore.Event{
			Type: objstore.EventPut, Bucket: e.Rule.SrcBucket, Key: m.Key,
			Size: m.Size, ETag: m.ETag, Seq: m.Seq, Time: e.W.Clock.Now(),
		}
		if !e.Tracker.OnSource(ev) {
			e.eventsDeduped.Inc()
			continue
		}
		e.Dispatch(ev)
		scheduled++
	}
	return scheduled, nil
}

// Dispatch invokes the orchestrator function for ev without registering it
// for delay measurement (the batcher registers events itself and delays
// dispatch).
func (e *Engine) Dispatch(ev objstore.Event) {
	e.dispatch(ev, "")
}

// dispatch is Dispatch with a cause tag for re-dispatched work: "redrive"
// (DLQ), "repair" (anti-entropy) or "lock-recovery" (orphaned-lock
// probe). The cause lands on the task's root span, where the trace
// retention policy reads it as an anomaly signal — a redriven or repaired
// task is always worth keeping.
func (e *Engine) dispatch(ev objstore.Event, cause string) {
	e.dispatchDone(ev, cause, nil)
}

// dispatchDone is dispatch with a completion callback for gated
// dispatches: done (may be nil) fires when the orchestrator invocation
// returns — crashed instances included, since the handler itself returns
// normally — so the fleet scheduler can free the lane slot.
func (e *Engine) dispatchDone(ev objstore.Event, cause string, done func()) {
	src := e.W.Region(e.Rule.Src)
	root := e.startTaskTrace(ev)
	if cause != "" {
		root.Set("cause", cause)
	}
	// The notification span covers source-operation completion → dispatch
	// (the platform's delivery delay T_n plus any batching hold).
	root.ChildAt("notify", ev.Time).EndAt(e.W.Clock.Now())
	src.Fn.InvokeSpan(root, 1, func(ctx *faas.Ctx) {
		defer root.End()
		if done != nil {
			defer done()
		}
		e.orchestrate(ctx, ev)
	})
}

// startTaskTrace opens a root span for one dispatched event, anchored at
// the source operation's completion so notification delay is part of the
// waterfall. Trace IDs derive from the task's identity (rule, key,
// version) plus a per-version dispatch counter, so identical seeded runs
// export identical traces.
func (e *Engine) startTaskTrace(ev objstore.Event) *telemetry.Span {
	if !e.W.Tracer.Enabled() {
		return nil
	}
	id := fmt.Sprintf("%s %s@%d", e.ruleID, ev.Key, ev.Seq)
	e.mu.Lock()
	n := e.traceSeq[id]
	e.traceSeq[id]++
	e.mu.Unlock()
	if n > 0 {
		id = fmt.Sprintf("%s redispatch-%d", id, n)
	}
	return e.W.Tracer.StartTraceAt(id, "task", ev.Time).
		Set("key", ev.Key).Set("etag", ev.ETag).
		Set("size", ev.Size).Set("type", string(ev.Type))
}

// orchestrate runs inside the orchestrator function: acquire the object's
// replication lock, replicate (with retries), then release and chase any
// version that arrived while the lock was held.
func (e *Engine) orchestrate(ctx *faas.Ctx, ev objstore.Event) {
	lsp := ctx.Span.Child("kv:lock")
	token, acquired, wait := e.lock.acquire(ev.Key, ev.ETag, ev.Seq)
	lsp.Set("acquired", acquired)
	lsp.End()
	if !acquired {
		// Another orchestrator holds the lock; on release it observes our
		// version as pending and re-triggers. But a crashed holder never
		// releases — its lock (and the pending record with it) silently
		// leases out — so probe just past the lease expiry and re-dispatch
		// unless the key converged in the meantime.
		e.W.Clock.Delay(wait+time.Second, func() { e.recoverPending(ev) })
		return
	}
	replicatedSeq := e.replicateHeld(ctx, ev)
	if !ctx.Alive() {
		// The orchestrator crashed while holding the lock: a crashed
		// instance cannot run cleanup, so the lock stays taken until its
		// lease expires — which is exactly when the redrive retries the key.
		return
	}
	usp := ctx.Span.Child("kv:unlock")
	_, pendingSeq, retrigger := e.lock.release(ev.Key, token, replicatedSeq)
	usp.End()
	if !retrigger {
		return
	}
	// A newer version arrived while we held the lock (its orchestrator
	// lost the lock race and recorded itself as pending). Re-drive
	// replication for the current head.
	src := e.W.Region(e.Rule.Src)
	head, err := src.Obj.Head(e.Rule.SrcBucket, ev.Key)
	if errors.Is(err, objstore.ErrNoSuchKey) {
		// The newest pending operation was a DELETE whose orchestrator
		// already gave up on the lock; mirror it now. The synthetic event
		// carries the pending sequence so the tracker resolves the
		// original DELETE's delay record.
		e.Dispatch(objstore.Event{
			Type: objstore.EventDelete, Bucket: ev.Bucket, Key: ev.Key,
			Seq: pendingSeq, Time: e.W.Clock.Now(),
		})
		return
	}
	if err != nil || head.Seq <= replicatedSeq {
		return
	}
	e.Dispatch(objstore.Event{
		Type: objstore.EventPut, Bucket: ev.Bucket, Key: ev.Key,
		Size: head.Size, ETag: head.ETag, Seq: head.Seq, Time: head.Created,
	})
}

// recoverPending fires after a contended lock's lease has expired: if the
// holder released normally it re-triggered the pending version and the key
// has (or is about to) converge, so the probe is a no-op; if the holder
// crashed, the pending record died with its leased-out lock and this is
// the only path that still knows about the version. Re-dispatching is
// idempotent — the dedupe Head resolves an already-replicated version, and
// a still-held lock just records pending again and arms a fresh probe.
func (e *Engine) recoverPending(ev objstore.Event) {
	src := e.W.Region(e.Rule.Src)
	head, err := src.Obj.Head(e.Rule.SrcBucket, ev.Key)
	if err != nil || head.Seq > ev.Seq {
		// Key deleted or superseded: the newer operation's own
		// orchestration (and its watchdog, if contended) covers the key.
		return
	}
	dst := e.W.Region(e.Rule.Dst)
	if cur, err := dst.Obj.Head(e.Rule.DstBucket, ev.Key); err == nil && cur.ETag == head.ETag {
		return // converged while we waited
	}
	e.locksRecovered.Inc()
	e.dispatch(ev, "lock-recovery")
}

// indexedChild opens the child span "<prefix><idx>" carrying a bytes
// attribute. With tracing off (nil parent) it builds neither the name nor
// the boxed attribute: both were allocations per part made for nobody.
func indexedChild(parent *telemetry.Span, prefix string, idx, bytes int64) *telemetry.Span {
	if parent == nil {
		return nil
	}
	return parent.Child(prefix+strconv.FormatInt(idx, 10)).Set("bytes", bytes)
}

// request runs one cloud API call under retry.RequestDefault — the quick,
// tightly-bounded retries of a real SDK. Only
// ErrUnavailable-class transient faults are retried; anything else
// (missing keys, vanished uploads, failed preconditions) surfaces
// immediately. Each backoff wait becomes a "req-backoff" child of sp so
// request-level retry stalls are attributable on the critical path.
func (e *Engine) request(sp *telemetry.Span, rng *rand.Rand, fn func() error) error {
	clock := e.W.Clock
	onWait := func(retry int, wait time.Duration) {
		start := clock.Now()
		sp.ChildAt("req-backoff", start).
			Set(telemetry.CatAttr, string(telemetry.CatBackoff)).
			Set("n", int64(retry)).
			EndAt(start.Add(wait))
	}
	return retry.DoObserved(clock, rng, retry.RequestDefault(), time.Time{}, onWait, func(int) error {
		err := fn()
		if err != nil && !errors.Is(err, objstore.ErrUnavailable) {
			return retry.Permanent(err)
		}
		return err
	})
}

// replicateHeld performs the replication while the lock is held and
// returns the sequence number of the version it made durable at the
// destination (0 on failure).
func (e *Engine) replicateHeld(ctx *faas.Ctx, ev objstore.Event) uint64 {
	src := e.W.Region(e.Rule.Src)
	dst := e.W.Region(e.Rule.Dst)
	clock := e.W.Clock
	rng := simrand.New("engine-retry", e.ruleID, ev.Key, fmt.Sprint(ev.Seq))
	policy := retry.TaskDefault()
	policy.MaxAttempts = maxRetries + 1

	if ev.Type == objstore.EventDelete {
		dsp := ctx.Span.Child("dst-delete")
		err := e.request(dsp, rng, func() error {
			return dst.Obj.DeleteWithOrigin(e.Rule.DstBucket, ev.Key, e.origin())
		})
		dsp.End()
		if err != nil {
			e.deadLetter(ctx.Span, ev)
			return 0
		}
		// The key's newest version is a DELETE; any checkpointed upload of
		// an older version is now abandoned work.
		e.releaseTask(ev.Key)
		e.Tracker.ResolveSpan(ev.Key, ev.Seq, clock.Now(), ctx.Span)
		return ev.Seq
	}

	// Dedupe by ETag+version before doing any work: a duplicate
	// notification or a redrive racing an earlier completion finds the
	// destination already holding this exact version. Resolving without
	// writing is what keeps at-least-once delivery from ever producing a
	// duplicate final write. The destination's current ETag is also
	// remembered: under the per-key lock nothing else writes this key at
	// the destination, so any later attempt whose content matches it can
	// skip its write (see transferWhole and the head chase below) — that
	// closes the reordered-notification race where a stale event arrives
	// after its successor has already landed and would otherwise re-copy
	// the successor's content.
	var dstETag string
	if cur, err := dst.Obj.Head(e.Rule.DstBucket, ev.Key); err == nil {
		dstETag = cur.ETag
		if cur.ETag == ev.ETag && ev.ETag != "" {
			ctx.Span.Set("deduped", true)
			e.tasksDeduped.Inc()
			// A redrive after an after-complete-mpu crash lands here: the write
			// is durable, only the acknowledgment was lost. Scrap the recovery
			// records the crashed attempt left behind.
			e.releaseTask(ev.Key)
			e.Tracker.ResolveSpan(ev.Key, ev.Seq, clock.Now(), ctx.Span)
			return ev.Seq
		}
	}

	key := ev.Key
	etag, seq, size, evTime := ev.ETag, ev.Seq, ev.Size, ev.Time
	for attempt := 0; attempt < policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			// Exponential backoff with seeded jitter, consuming virtual
			// time — instantaneous retries would understate convergence
			// time under faults and hammer a struggling destination.
			bsp := ctx.Span.Child("backoff").Set("n", int64(attempt))
			clock.Sleep(policy.Backoff(attempt-1, rng))
			bsp.End()
			e.retries.Inc()
		}
		if !ctx.Alive() {
			// The orchestrator instance crashed; the DLQ redrive (the
			// platform's async-invocation retry) picks the event up again.
			break
		}
		start := clock.Now()
		att := ctx.Span.Child("attempt").Set("n", int64(attempt))
		if e.TryChangelog != nil {
			cl := att.Child("changelog")
			hit := e.TryChangelog(cl, key, etag)
			cl.Set("hit", hit)
			cl.End()
			if hit {
				att.End()
				end := clock.Now()
				e.releaseTask(key)
				e.Tracker.ResolveSpan(key, seq, end, ctx.Span)
				e.report(ctx.Span, TaskResult{Key: key, ETag: etag, Size: size, Start: start, End: end,
					OK: true, Changelog: true, Retries: attempt})
				return seq
			}
		}

		var plan planner.Plan
		if e.Rule.ForceN > 0 {
			loc := e.Rule.ForceLoc
			if loc == "" {
				loc = e.Rule.Src
			}
			plan = planner.Plan{N: e.Rule.ForceN, Loc: loc}
			if plan.N > 1 && !e.Rule.DisableAdaptiveParts {
				plan.PartSize = e.Planner.PartSizeFor(e.Rule.Src, e.Rule.Dst, loc, size, plan.N)
			}
		} else {
			var remaining time.Duration
			if e.Rule.SLO > 0 {
				remaining = e.Rule.SLO - clock.Since(evTime)
			}
			var err error
			plan, err = e.Planner.PlanWith(e.Rule.Src, e.Rule.Dst, size, remaining, e.Rule.Percentile, e.PlanOpts())
			if err != nil {
				att.Set("error", err.Error())
				att.End()
				break
			}
		}
		att.Set("plan_n", int64(plan.N)).Set("plan_loc", string(plan.Loc)).Set("plan_local", plan.Local)

		out := e.execute(ctx, att, key, etag, dstETag, size, plan)
		att.End()
		if out.ok {
			// The destination write is durable; what remains is local
			// acknowledgment (tracker resolution, lock release). A crash in
			// this window loses only the ack — the redrive finds the
			// destination already converged and resolves via the dedupe
			// path, never writing twice.
			e.maybeCrash(ctx, "before-ack")
			if !ctx.Alive() {
				break
			}
			// Single-function transfers may have replicated a *newer*
			// snapshot than the event's version (Figure 13's workflow);
			// resolve up to what actually landed.
			doneSeq := seq
			if out.seq > doneSeq {
				doneSeq = out.seq
			}
			e.releaseTask(key)
			e.Tracker.ResolveSpan(key, doneSeq, out.doneAt, ctx.Span)
			e.report(ctx.Span, TaskResult{Key: key, ETag: out.etag, Size: size, Plan: plan,
				Start: start, End: out.doneAt, OK: true, Retries: attempt, Instances: out.insts})
			return doneSeq
		}
		e.report(ctx.Span, TaskResult{Key: key, ETag: etag, Size: size, Plan: plan,
			Start: start, End: out.doneAt, OK: false, Reason: out.reason, Retries: attempt, Instances: out.insts})

		// Optimistic validation failed (the source version changed
		// mid-flight) or a request hit a transient fault. Chase the
		// current head and try again.
		var head objstore.Meta
		err := e.request(ctx.Span, rng, func() error {
			var herr error
			head, herr = src.Obj.Head(e.Rule.SrcBucket, key)
			return herr
		})
		switch {
		case errors.Is(err, objstore.ErrNoSuchKey), errors.Is(err, objstore.ErrNoSuchBucket):
			return 0 // deleted concurrently; the DELETE event converges us
		case err != nil:
			continue // transient fault: burn a retry, keep the same version
		}
		if head.ETag != "" && head.ETag == dstETag {
			// The chased head is the version the destination already held
			// when this task started — the event was stale and its
			// successor has landed. Writing it again would be a duplicate
			// final write; resolve up to the head instead.
			ctx.Span.Set("deduped", true)
			e.tasksDeduped.Inc()
			e.releaseTask(key)
			e.Tracker.ResolveSpan(key, head.Seq, clock.Now(), ctx.Span)
			return head.Seq
		}
		etag, seq, size, evTime = head.ETag, head.Seq, head.Size, head.Created
	}
	e.deadLetter(ctx.Span, ev)
	return 0
}

// report accounts one finished attempt. sp is the task span: successful
// durations are nominated as exemplars for the task-latency histograms,
// attached only if the trace survives retention.
func (e *Engine) report(sp *telemetry.Span, t TaskResult) {
	if t.OK {
		e.tasksOK.Inc()
		if t.Changelog {
			e.tasksChangelog.Inc()
		}
		secs := simclock.ToSeconds(t.End.Sub(t.Start))
		e.taskHist.Observe(secs)
		sp.Exemplar(e.taskHist, secs, e.dims...)
	} else {
		e.tasksFailed.Inc()
	}
	if e.OnTaskDone != nil {
		e.OnTaskDone(t)
	}
}

// execResult is the outcome of one replication attempt.
type execResult struct {
	ok         bool
	seq        uint64 // sequence of the version made durable (single-fn paths)
	etag       string // its ETag
	reason     string // failure reason when !ok
	validation bool   // failed optimistic validation (not an infra fault)
	doneAt     time.Time
	insts      []InstanceStat
}

// execute runs one replication attempt under the chosen plan. sp is the
// attempt's span; child spans attach to it. When the per-destination
// circuit breaker is open, distributed plans degrade to a single
// replicator function at the planned location — fewer requests per
// object, so storms that starve the multipart pipeline are ridden out on
// the simpler path.
func (e *Engine) execute(ctx *faas.Ctx, sp *telemetry.Span, key, etag, dstETag string, size int64, plan planner.Plan) execResult {
	clock := e.W.Clock
	if plan.N > 1 && !e.breaker.allow() {
		sp.Set("degraded", true)
		e.breakerDegraded.Inc()
		plan.N = 1
	}
	switch {
	case plan.Local:
		start := clock.Now()
		out := e.transferWhole(ctx, sp, key, dstETag)
		out.insts = []InstanceStat{{ID: ctx.Instance.ID, Chunks: int(e.chunks(size)), Busy: clock.Since(start)}}
		out.doneAt = clock.Now()
		return out
	case plan.N == 1:
		loc := e.W.Region(plan.Loc)
		var out execResult
		group := clock.NewGroup(1)
		loc.Fn.InvokeSpan(sp, 1, func(rctx *faas.Ctx) {
			defer group.Done()
			start := clock.Now()
			out = e.transferWhole(rctx, rctx.Span, key, dstETag)
			out.insts = []InstanceStat{{ID: rctx.Instance.ID, Chunks: int(e.chunks(size)), Busy: clock.Since(start)}}
		})
		group.Wait()
		out.doneAt = clock.Now()
		return out
	default:
		out := e.distributed(ctx, sp, key, etag, size, plan)
		if out.ok {
			e.breaker.success()
		} else if !out.validation {
			// Validation aborts are correct behaviour, not destination
			// trouble; only infrastructure failures feed the breaker.
			e.breaker.failure()
		}
		return out
	}
}

// PlanOpts is the planner configuration matching the rule's data plane,
// so predictions and cost estimates price what the engine will execute.
func (e *Engine) PlanOpts() planner.PlanOpts {
	opts := planner.PlanOpts{
		NoPipeline: e.Rule.DisableDoubleBuffer,
		ClaimBatch: e.Rule.ClaimBatch,
	}
	if e.Rule.DisableAdaptiveParts {
		opts.FixedPartSize = e.Rule.PartSize
	}
	return opts
}

func (e *Engine) chunks(size int64) int64 { return chunksOf(size, e.Rule.PartSize) }

func chunksOf(size, partSize int64) int64 {
	if size <= 0 {
		return 1
	}
	return (size + partSize - 1) / partSize
}

// transferWhole replicates the object's *current* version with the
// calling function instance, chunk by chunk (a single data stream in
// practice; chunked so per-chunk bandwidth draws match the profiler's C
// parameter). The GET is an atomic snapshot, so no optimistic validation
// is needed on this path: the engine replicates whatever version it read,
// exactly as in the paper's Figure 13 workflow, and reports its sequence.
func (e *Engine) transferWhole(ctx *faas.Ctx, sp *telemetry.Span, key, dstETag string) execResult {
	src := e.W.Region(e.Rule.Src)
	dst := e.W.Region(e.Rule.Dst)

	reqRNG := simrand.New("engine-single-req", ctx.Instance.ID, key)
	gsp := sp.Child("src-get")
	var obj objstore.Object
	err := e.request(gsp, reqRNG, func() error {
		var gerr error
		obj, gerr = src.Obj.Get(e.Rule.SrcBucket, key)
		return gerr
	})
	gsp.End()
	if err != nil {
		return execResult{reason: "source read: " + err.Error()}
	}
	if obj.ETag != "" && obj.ETag == dstETag {
		// The snapshot just read is the version the destination already
		// holds (a stale notification that arrived after its successor
		// landed, or a redrive racing a completed transfer). Skip the
		// write: the key is converged at this version, and putting it
		// again would be a duplicate final write.
		sp.Set("deduped", true)
		e.tasksDeduped.Inc()
		return execResult{ok: true, seq: obj.Seq, etag: obj.ETag}
	}
	rng := simrand.New("engine-single", ctx.Instance.ID, key, obj.ETag)
	ssp := sp.Child("setup")
	e.W.SetupSleep(src.Region, dst.Region, rng)
	ssp.End()
	downScale := ctx.BandwidthScaleFor(src.Region.Provider)
	upScale := ctx.BandwidthScaleFor(dst.Region.Provider)
	for i, off := 0, int64(0); off < obj.Size; i, off = i+1, off+e.Rule.PartSize {
		if !ctx.Alive() {
			return execResult{reason: "instance crashed mid-transfer"}
		}
		n := min(e.Rule.PartSize, obj.Size-off)
		csp := indexedChild(sp, "chunk-", int64(i), n)
		e.W.MoveBytesSpan(csp, "leg-down", src.Region, ctx.Region, ctx.Region.Provider, n, downScale, rng)
		e.W.MoveBytesSpan(csp, "leg-up", ctx.Region, dst.Region, ctx.Region.Provider, n, upScale, rng)
		csp.End()
	}
	if !ctx.Alive() {
		return execResult{reason: "instance crashed mid-transfer"}
	}
	psp := sp.Child("dst-put")
	err = e.request(psp, reqRNG, func() error {
		_, perr := dst.Obj.PutWithOrigin(e.Rule.DstBucket, key, obj.Blob, e.origin())
		return perr
	})
	psp.End()
	if err != nil {
		return execResult{reason: "destination write: " + err.Error()}
	}
	return execResult{ok: true, seq: obj.Seq, etag: obj.ETag}
}

// Per-part phases of the hedging ledger.
const (
	partPool    uint8 = iota // still in the pool, unclaimed
	partClaimed              // claimed by an instance, upload not yet counted
	partCounted              // counted toward the task's done total
)

// distState is the shared state of one distributed replication task.
type distState struct {
	key, etag string
	size      int64
	parts     int64
	partSize  int64
	taskID    string
	mpu       string
	// resumedDone is how many parts the resumed attempt inherited as
	// already counted (zero for a fresh task).
	resumedDone int64

	aborted    atomic.Bool
	completed  atomic.Bool
	validation atomic.Bool // aborted by optimistic validation, not infra

	mu     sync.Mutex
	reason string
	doneAt time.Time

	// Hedging ledger, under mu: which parts are claimed-but-uncounted,
	// who claimed them, and which have already been hedged. The KV pool
	// counters stay authoritative for completion; this ledger only steers
	// speculation (never at itself, never twice at the same part).
	phase  []uint8
	owner  []string
	hedged map[int64]bool
	hedges int
}

// markClaimed records that inst took part idx out of the pool.
func (ds *distState) markClaimed(idx int64, inst string) {
	ds.mu.Lock()
	if ds.phase[idx] == partPool {
		ds.phase[idx] = partClaimed
		ds.owner[idx] = inst
	}
	ds.mu.Unlock()
}

// acquireDone reports whether the caller is the first to deliver part
// idx; only that delivery may count toward the KV done total. Duplicate
// hedged uploads land idempotently in the MPU but must not double-count.
func (ds *distState) acquireDone(idx int64) bool {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.phase[idx] == partCounted {
		return false
	}
	ds.phase[idx] = partCounted
	return true
}

// hedgePick selects the claimed-but-uncounted part a speculative
// duplicate rescues the most: the highest-indexed unhedged part of the
// owner with the most uncounted claims (the furthest-behind straggler,
// which works its claims lowest-first, so its last part is the one it
// reaches latest). Each pick consumes hedge budget.
func (ds *distState) hedgePick(inst string, budget int) (int64, bool) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.hedges >= budget {
		return 0, false
	}
	behind := make(map[string]int)
	for idx := int64(0); idx < ds.parts; idx++ {
		if ds.phase[idx] == partClaimed && ds.owner[idx] != inst {
			behind[ds.owner[idx]]++
		}
	}
	pick, most := int64(-1), 0
	for idx := int64(0); idx < ds.parts; idx++ {
		if ds.phase[idx] != partClaimed || ds.owner[idx] == inst || ds.hedged[idx] {
			continue
		}
		// >= prefers the highest index within the laggiest owner's claims.
		if n := behind[ds.owner[idx]]; n >= most {
			pick, most = idx, n
		}
	}
	if pick < 0 {
		return 0, false
	}
	ds.hedged[pick] = true
	ds.hedges++
	return pick, true
}

// abort marks the task failed with a reason (first reason wins).
func (ds *distState) abort(reason string) {
	ds.mu.Lock()
	if ds.reason == "" {
		ds.reason = reason
	}
	ds.mu.Unlock()
	ds.aborted.Store(true)
}

// abortValidation is abort for optimistic-validation failures; the
// circuit breaker ignores these (the source changing mid-flight is
// correct behaviour, not destination trouble).
func (ds *distState) abortValidation(reason string) {
	ds.validation.Store(true)
	ds.abort(reason)
}

// distributed replicates a large object with plan.N replicator functions
// at plan.Loc using the part pool (or fair dispatch, for the ablation).
// Unlike the single-function path, parts are pinned to the task's ETag and
// any mid-flight change aborts the task (Figure 14's correctness rule).
//
// Part-pool tasks are checkpointed: a durable record in the source
// region's KV store points at the task's MPU and part pool, so a retry
// after a crash re-attaches to the existing upload and redoes only the
// parts whose delivery was never counted, instead of starting over.
func (e *Engine) distributed(ctx *faas.Ctx, sp *telemetry.Span, key, etag string, size int64, plan planner.Plan) execResult {
	src := e.W.Region(e.Rule.Src)
	dst := e.W.Region(e.Rule.Dst)
	loc := e.W.Region(plan.Loc)
	clock := e.W.Clock

	partSize := plan.PartSize
	if partSize <= 0 {
		partSize = e.Rule.PartSize
	}
	ds := &distState{
		key: key, etag: etag, size: size,
		parts:    chunksOf(size, partSize),
		partSize: partSize,
	}
	ds.phase = make([]uint8, ds.parts)
	ds.owner = make([]string, ds.parts)
	ds.hedged = make(map[int64]bool)
	// Fair dispatch keeps the strawman's semantics — a failed attempt
	// starts over — so only part-pool tasks checkpoint and resume.
	useCkpt := e.Rule.Scheduling == PartPool
	// The request stream keys on task identity (rule, key, version) rather
	// than task sequence, so a resumed attempt draws deterministically
	// regardless of how many task ids preceded it.
	reqRNG := simrand.New("engine-dist-req", e.ruleID, key, etag)

	var p *pool
	if useCkpt {
		if ck, ok := e.ckpt.read(key); ok {
			p = e.resumeTask(ctx, sp, ds, ck, dst, loc, plan, reqRNG)
			if ds.completed.Load() || ds.aborted.Load() {
				// Resume settled the task without replicators: either every
				// part was already delivered (only assembly remained, or the
				// crash lost just the acknowledgment) or re-assembly failed.
				return e.distEpilogue(ctx, sp, ds, dst, plan.Loc, useCkpt, nil)
			}
			if p != nil && ds.resumedDone >= ds.parts {
				e.completeTask(ctx, sp, ds, dst, reqRNG)
				return e.distEpilogue(ctx, sp, ds, dst, plan.Loc, useCkpt, nil)
			}
		}
	}
	if p == nil {
		// Task ids embed the rule identity: several rules may share the
		// location region's database, and their part pools must not collide.
		ds.taskID = fmt.Sprintf("%s#task-%d", e.ruleID, e.taskSeq.Add(1))
		p = newPool(loc.KV, ds.taskID, ds.parts)
		// init_replication + create_part_pool (Algorithm 1, lines 2-4): the
		// task record with its claim cursor, completion bitmap and epoch.
		isp := sp.Child("kv:init-pool").Set("parts", ds.parts).Set("part_bytes", partSize)
		p.create(etag)
		isp.End()
		msp := sp.Child("mpu-create")
		var mpu string
		err := e.request(msp, reqRNG, func() error {
			var cerr error
			mpu, cerr = dst.Obj.CreateMultipartWithOrigin(e.Rule.DstBucket, key, e.origin())
			return cerr
		})
		msp.End()
		if err != nil {
			p.destroy()
			return execResult{reason: "create multipart: " + err.Error(), doneAt: clock.Now()}
		}
		ds.mpu = mpu
		// The MPU exists but nothing durable points at it yet: a crash here
		// leaks it, and only the orphan GC can reclaim it.
		e.maybeCrash(ctx, "after-create-mpu")
		if !ctx.Alive() {
			return execResult{reason: "orchestrator crashed after mpu-create", doneAt: clock.Now()}
		}
		if useCkpt {
			csp := sp.Child("kv:checkpoint")
			e.ckpt.write(key, taskCkpt{
				ETag: etag, MPU: mpu, Task: ds.taskID, Loc: plan.Loc,
				PartSize: partSize, Parts: ds.parts,
			})
			csp.End()
			e.cacheCkpt(key, ckptRef{mpu: mpu, task: ds.taskID, loc: plan.Loc})
			// From here on a retry finds the checkpoint and resumes; the
			// MPU can no longer leak past the recovery records' TTL.
			e.maybeCrash(ctx, "after-checkpoint")
			if !ctx.Alive() {
				return execResult{reason: "orchestrator crashed after checkpoint", doneAt: clock.Now()}
			}
		}
	}

	var instMu sync.Mutex
	var insts []InstanceStat
	var fairNext atomic.Int64
	group := clock.NewGroup(plan.N)
	loc.Fn.InvokeSpan(sp, plan.N, func(rctx *faas.Ctx) {
		defer group.Done()
		idx := int(fairNext.Add(1) - 1)
		stat := e.replicator(rctx, ds, p, src, dst, loc, idx, plan.N)
		instMu.Lock()
		insts = append(insts, stat)
		instMu.Unlock()
	})
	group.Wait()
	return e.distEpilogue(ctx, sp, ds, dst, plan.Loc, useCkpt, insts)
}

// resumeTask re-attaches a retried task to the MPU and part pool its
// checkpoint records, priming ds with the completed-part bitmap. It
// returns nil when the checkpointed state is unusable (stale version,
// vanished records) — the caller then starts fresh — and may settle ds
// directly when the previous attempt had already made the object durable.
func (e *Engine) resumeTask(ctx *faas.Ctx, sp *telemetry.Span, ds *distState, ck taskCkpt, dst, loc *world.Services, plan planner.Plan, reqRNG *rand.Rand) *pool {
	if ck.ETag != ds.etag || ck.Parts != ds.parts || ck.PartSize != ds.partSize || ck.Loc != plan.Loc {
		// Checkpoint for a different version or plan shape: its partial
		// upload can never assemble into what this attempt replicates.
		_ = dst.Obj.AbortMultipart(ck.MPU)
		e.mpusAborted.Inc()
		e.dropCkptRecords(ds.key, ck.Task, ck.Loc)
		return nil
	}
	hsp := sp.Child("mpu-head")
	err := e.request(hsp, reqRNG, func() error {
		_, herr := dst.Obj.HeadMultipart(ck.MPU)
		return herr
	})
	hsp.End()
	if errors.Is(err, objstore.ErrNoSuchUpload) {
		// The upload is gone: completed (the crash lost only the
		// acknowledgment) or aborted by GC. The destination object decides.
		if cur, herr := dst.Obj.Head(e.Rule.DstBucket, ds.key); herr == nil && cur.ETag == ds.etag {
			sp.Set("resumed_converged", true)
			e.resumedTasks.Inc()
			e.dropCkptRecords(ds.key, ck.Task, ck.Loc)
			ds.mu.Lock()
			ds.doneAt = e.W.Clock.Now()
			ds.mu.Unlock()
			ds.completed.Store(true)
			return nil
		}
		e.dropCkptRecords(ds.key, ck.Task, ck.Loc)
		return nil
	}
	if err != nil {
		ds.abort("head multipart: " + err.Error())
		return nil
	}
	ds.taskID, ds.mpu = ck.Task, ck.MPU
	p := newPool(loc.KV, ck.Task, ds.parts)
	bitmap, done, reclaimed, ok := p.attach()
	if !ok || int64(len(bitmap)) != ds.parts {
		// The pool record expired or predates the bitmap schema; without a
		// trustworthy completion record the upload cannot be resumed.
		_ = dst.Obj.AbortMultipart(ck.MPU)
		e.mpusAborted.Inc()
		e.dropCkptRecords(ds.key, ck.Task, ck.Loc)
		ds.taskID, ds.mpu = "", ""
		return nil
	}
	for idx := int64(0); idx < ds.parts; idx++ {
		if bitmap[idx] == '1' {
			ds.phase[idx] = partCounted
		}
	}
	ds.resumedDone = done
	sp.Set("resumed", true).Set("parts_resumed", done).Set("parts_reclaimed", reclaimed)
	e.resumedTasks.Inc()
	e.partsResumed.Add(done)
	e.partsReclaimed.Add(reclaimed)
	e.cacheCkpt(ds.key, ckptRef{mpu: ck.MPU, task: ck.Task, loc: ck.Loc})
	return p
}

// distEpilogue settles one distributed attempt: scrap or keep the task's
// MPU and recovery records depending on how it ended, and shape the
// execResult. A crashed orchestrator keeps everything — crashed code
// cannot run cleanup, which is precisely what the checkpoint is for.
func (e *Engine) distEpilogue(ctx *faas.Ctx, sp *telemetry.Span, ds *distState, dst *world.Services, locID cloud.RegionID, useCkpt bool, insts []InstanceStat) execResult {
	clock := e.W.Clock
	reason := func() string {
		ds.mu.Lock()
		defer ds.mu.Unlock()
		if ds.reason == "" {
			return "no replicator completed the task"
		}
		return ds.reason
	}
	if !ctx.Alive() {
		return execResult{reason: reason(), validation: ds.validation.Load(), doneAt: clock.Now(), insts: insts}
	}
	if !ds.completed.Load() {
		if !useCkpt || ds.validation.Load() {
			// Validation aborts can never resume (the pinned version is
			// gone), and fair dispatch never checkpoints: abort the upload
			// and scrap the records.
			asp := sp.Child("mpu-abort")
			_ = dst.Obj.AbortMultipart(ds.mpu)
			asp.End()
			e.mpusAborted.Inc()
			if useCkpt {
				e.dropCkptRecords(ds.key, ds.taskID, locID)
			} else {
				e.W.Region(locID).KV.Delete(poolTable, ds.taskID)
			}
		}
		// Otherwise keep the MPU, pool and checkpoint: the next attempt
		// (in-process retry or platform redrive) resumes from them.
		return execResult{reason: reason(), validation: ds.validation.Load(), doneAt: clock.Now(), insts: insts}
	}
	if ds.taskID != "" {
		if useCkpt {
			e.dropCkptRecords(ds.key, ds.taskID, locID)
		} else {
			e.W.Region(locID).KV.Delete(poolTable, ds.taskID)
		}
	}
	ds.mu.Lock()
	doneAt := ds.doneAt
	ds.mu.Unlock()
	return execResult{ok: true, etag: ds.etag, doneAt: doneAt, insts: insts}
}

// fetched is one part that finished its download stage and awaits its
// upload stage. Its part span stays open across the stage boundary.
type fetched struct {
	idx    int64
	length int64
	blob   objstore.Blob
	psp    *telemetry.Span
	hedged bool
}

// replicator is the body of one replicator function (Algorithm 1, lines
// 7-13), rebuilt as a pipelined data plane: parts are claimed from the
// pool in batches of ClaimBatch (one KV increment each), part i+1's
// download overlaps part i's upload on a concurrent sub-lane (double
// buffering), completion updates are batched symmetrically, and once the
// pool drains an idle instance hedges stragglers' in-flight parts —
// idempotent part uploads make the duplicates safe. The instance whose
// completion update closes the counter concludes the task.
func (e *Engine) replicator(ctx *faas.Ctx, ds *distState, p *pool, src, dst, loc *world.Services, fairIdx, n int) InstanceStat {
	clock := e.W.Clock
	// The concurrent download lane must not share a rand.Rand with the
	// upload stage: two independent streams keep each stage's draws
	// deterministic regardless of interleaving.
	upRNG := simrand.New("engine-dist", ds.taskID, ctx.Instance.ID)
	downRNG := simrand.New("engine-dist-down", ds.taskID, ctx.Instance.ID)
	start := clock.Now()
	stat := InstanceStat{ID: ctx.Instance.ID}

	ssp := ctx.Span.Child("setup")
	e.W.SetupSleep(src.Region, dst.Region, upRNG)
	ssp.End()

	// Fair dispatch: a fixed contiguous range per instance.
	per := (ds.parts + int64(n) - 1) / int64(n)
	fairLo := int64(fairIdx) * per
	fairHi := min(fairLo+per, ds.parts)
	fairNext := fairLo

	batch := max(e.Rule.ClaimBatch, 1)
	var claimed []int64 // parts claimed by the last pool update, not yet fetched
	poolRem := ds.parts // parts remaining in the pool at the last claim

	claim := func(fctx *faas.Ctx) int64 {
		if e.Rule.Scheduling == FairDispatch {
			if fairNext >= fairHi {
				return ds.parts // range exhausted
			}
			idx := fairNext
			fairNext++
			ds.markClaimed(idx, ctx.Instance.ID)
			return idx
		}
		if len(claimed) == 0 {
			// get_part_from_pool, amortized: one KV update claims up to
			// batch parts (reclaimed parts first) and stamps each with this
			// instance's lease. The batch tapers with the pool (guided
			// self-scheduling): full-sized while at least two rounds per
			// instance remain, down to single parts near exhaustion, so
			// slow instances are not stuck with a large final batch the
			// fast ones could have drained part by part.
			b := int64(batch)
			if poolRem < 2*int64(n)*b {
				b = max(poolRem/(2*int64(n)), 1)
			}
			csp := fctx.Span.Child("kv:claim").Set("batch", b)
			idxs, rem, fenced := p.claim(b, ctx.Instance.ID, clock.Now())
			csp.End()
			// The claim is leased but no part is delivered yet: a crash
			// here strands the claims until attach (or the janitor)
			// returns them to the pool.
			e.maybeCrash(fctx, "after-claim")
			if fenced {
				// A newer attempt reclaimed this task: this instance is a
				// zombie and must stop producing work.
				return ds.parts
			}
			poolRem = rem
			for _, idx := range idxs {
				ds.markClaimed(idx, ctx.Instance.ID)
				claimed = append(claimed, idx)
			}
			if len(claimed) == 0 {
				return ds.parts // pool exhausted
			}
		}
		idx := claimed[0]
		claimed = claimed[1:]
		return idx
	}

	// fetch runs a part's download stage: ranged GET (with optimistic
	// validation) and the src→loc leg. Hedged fetches that hit a fault
	// are abandoned rather than aborting the task — the part's owner
	// still holds the claim.
	fetch := func(fctx *faas.Ctx, rng *rand.Rand, idx int64, hedged bool) *fetched {
		off := idx * ds.partSize
		length := min(ds.partSize, ds.size-off)
		psp := indexedChild(ctx.Span, "part-", idx, length)
		legDown := "leg-down"
		gsp := psp.Child("get-range")
		if hedged {
			psp.Set("hedged", true)
			legDown = "hedge-leg-down"
			gsp.Set(telemetry.CatAttr, string(telemetry.CatHedge))
		}
		var blob objstore.Blob
		var cur string
		err := e.request(gsp, rng, func() error {
			var gerr error
			blob, cur, gerr = src.Obj.GetRange(e.Rule.SrcBucket, ds.key, off, length)
			return gerr
		})
		gsp.End()
		if err != nil {
			if hedged {
				psp.Set("abandoned", true)
				psp.End()
				return nil
			}
			// A transient fault outlived the request budget: infrastructure
			// failure, distinct from validation.
			ds.abort(fmt.Sprintf("part %d read: %s", idx, err))
			psp.Set("aborted", true)
			psp.End()
			return nil
		}
		if cur != ds.etag {
			// Optimistic validation: the object changed mid-replication
			// (Figure 14); abort the whole task.
			ds.abortValidation(fmt.Sprintf("optimistic validation: part %d sees a different source version", idx))
			psp.Set("aborted", true)
			psp.End()
			return nil
		}
		e.W.MoveBytesSpan(psp, legDown, src.Region, fctx.Region, fctx.Region.Provider, length, fctx.BandwidthScaleFor(src.Region.Provider), rng)
		return &fetched{idx: idx, length: length, blob: blob, psp: psp, hedged: hedged}
	}

	// Completion updates are batched like claims: pendingIdxs holds
	// delivered parts whose bitmap bits are not yet set in the pool.
	var pendingIdxs []int64
	flush := func(sp *telemetry.Span) {
		if len(pendingIdxs) == 0 || !ctx.Alive() {
			return
		}
		idxs := pendingIdxs
		pendingIdxs = nil
		dsp := sp.Child("kv:done").Set("batch", int64(len(idxs)))
		_, closed, fenced := p.flush(idxs)
		dsp.End()
		if fenced {
			// A newer attempt reclaimed these parts and will deliver them
			// itself; counting them here would double-complete the pool.
			e.partsFenced.Add(int64(len(idxs)))
			return
		}
		// The parts are durably counted but this instance hasn't acted on
		// it yet; a crash here redoes nothing — the bits are set.
		e.maybeCrash(ctx, "after-flush")
		if closed {
			// This update closed the bitmap: finish_replication
			// (Algorithm 1, line 13) falls to this instance.
			e.completeTask(ctx, sp, ds, dst, upRNG)
		}
	}

	// upload runs a part's upload stage: the loc→dst leg, the idempotent
	// part upload, and the (batched) completion update.
	upload := func(f *fetched) {
		if f == nil {
			return
		}
		if ds.completed.Load() {
			// A hedge (or the owner) already delivered every outstanding
			// part and the MPU is complete; don't move bytes for nothing.
			f.psp.Set("dropped", true)
			f.psp.End()
			return
		}
		legUp := "leg-up"
		if f.hedged {
			legUp = "hedge-leg-up"
		}
		e.W.MoveBytesSpan(f.psp, legUp, ctx.Region, dst.Region, ctx.Region.Provider, f.length, ctx.BandwidthScaleFor(dst.Region.Provider), upRNG)
		if !ctx.Alive() {
			// The instance crashed mid-part; its claim never completes, so
			// the attempt fails and the engine's task retry takes over
			// (unless a hedge rescues the part first).
			f.psp.Set("crashed", true)
			f.psp.End()
			return
		}
		usp := f.psp.Child("upload-part")
		if f.hedged {
			usp.Set(telemetry.CatAttr, string(telemetry.CatHedge))
		}
		err := e.request(usp, upRNG, func() error {
			_, uerr := dst.Obj.UploadPart(ds.mpu, int(f.idx)+1, f.blob)
			return uerr
		})
		usp.End()
		if err != nil {
			// Losing the upload race against MPU completion (the part's
			// duplicate delivered it) is not a failure of the attempt.
			if f.hedged || ds.completed.Load() {
				f.psp.Set("abandoned", true)
				f.psp.End()
				return
			}
			ds.abort("upload part: " + err.Error())
			f.psp.End()
			return
		}
		// The part upload is durable in the MPU, but its bitmap bit is not
		// set: a crash in this window redoes exactly this part (the resumed
		// attempt reclaims the claim and re-uploads idempotently).
		if e.W.Chaos.Profile().CrashPoint != "" { // the label is built only for an armed crash point
			e.maybeCrash(ctx, "after-part-"+strconv.FormatInt(f.idx, 10))
		}
		if !ctx.Alive() {
			f.psp.Set("crashed", true)
			f.psp.End()
			return
		}
		stat.Chunks++
		// Only the first delivery of a part counts toward the done
		// total; a duplicate (hedge vs. owner) lands idempotently in the
		// MPU without double-counting.
		if ds.acquireDone(f.idx) {
			pendingIdxs = append(pendingIdxs, f.idx)
			if len(pendingIdxs) >= batch {
				flush(f.psp)
			}
		}
		f.psp.End()
	}

	// next claims and downloads the following part (nil when the pool is
	// exhausted, the task is settled, or this instance crashed).
	next := func(fctx *faas.Ctx, rng *rand.Rand) *fetched {
		if ds.aborted.Load() || ds.completed.Load() || !fctx.Alive() {
			return nil
		}
		idx := claim(fctx)
		if idx >= ds.parts || !fctx.Alive() {
			return nil
		}
		return fetch(fctx, rng, idx, false)
	}

	// Steady state: with double buffering, part i+1's download stage runs
	// on a concurrent sub-lane while part i's upload stage runs here, so
	// each additional part costs max(down, up) instead of down+up.
	pipelined := !e.Rule.DisableDoubleBuffer
	cur := next(ctx, downRNG)
	for cur != nil {
		if ds.aborted.Load() || !ctx.Alive() {
			cur.psp.Set("dropped", true)
			cur.psp.End()
			break
		}
		var nxt *fetched
		if pipelined {
			lane := ctx.Go("prefetch", func(sub *faas.Ctx) {
				nxt = next(sub, downRNG)
			})
			upload(cur)
			lane.Wait()
		} else {
			upload(cur)
			nxt = next(ctx, downRNG)
		}
		cur = nxt
	}

	// Tail: push out any batched completion counts, then — pool drained
	// but the task still open — speculatively duplicate stragglers'
	// in-flight parts instead of idling, bounded by the hedge budget.
	// Fair dispatch never hedges: its ranges are fixed by construction.
	flush(ctx.Span)
	if e.Rule.Scheduling != FairDispatch && e.Rule.HedgeBudget > 0 {
		for !ds.aborted.Load() && !ds.completed.Load() && ctx.Alive() {
			hsp := ctx.Span.Child("kv:hedge").Set(telemetry.CatAttr, string(telemetry.CatHedge))
			done, ok := loc.KV.GetInt(poolTable, ds.taskID, "done")
			hsp.End()
			if !ok || done >= ds.parts {
				break
			}
			idx, ok := ds.hedgePick(ctx.Instance.ID, e.Rule.HedgeBudget)
			if !ok {
				break
			}
			e.partsHedged.Inc()
			upload(fetch(ctx, downRNG, idx, true))
			flush(ctx.Span)
		}
	}

	stat.Busy = clock.Since(start)
	return stat
}

// completeTask assembles the destination object once every part is
// delivered and validates the result against the task's pinned version.
func (e *Engine) completeTask(ctx *faas.Ctx, sp *telemetry.Span, ds *distState, dst *world.Services, rng *rand.Rand) {
	clock := e.W.Clock
	// A crash before the complete call leaves every part durable and the
	// MPU open: the resumed attempt re-attaches and only re-assembles.
	e.maybeCrash(ctx, "before-complete-mpu")
	if !ctx.Alive() {
		return
	}
	fsp := sp.Child("mpu-complete")
	var res objstore.PutResult
	err := e.request(fsp, rng, func() error {
		var ferr error
		res, ferr = dst.Obj.CompleteMultipart(ds.mpu)
		return ferr
	})
	fsp.End()
	// A crash after the complete call loses only the acknowledgment: the
	// destination object is durable, and the retry's dedupe (or the resume
	// path's vanished-MPU probe) resolves without a second final write.
	e.maybeCrash(ctx, "after-complete-mpu")
	if err != nil {
		ds.abort("complete multipart: " + err.Error())
		return
	}
	if res.ETag != ds.etag {
		ds.abortValidation("assembled object does not match the source version")
		return
	}
	if !ctx.Alive() {
		return
	}
	ds.mu.Lock()
	ds.doneAt = clock.Now()
	ds.mu.Unlock()
	ds.completed.Store(true)
}
