// Package telemetry is the unified observability layer of the replication
// stack: a span tracer driven by the simulated clock and a metrics
// registry of counters, gauges and fixed-bucket latency histograms.
//
// The tracer follows one replication task end-to-end: the engine opens a
// root span per task and every layer the task crosses — FaaS invocation,
// object-store requests, KV accesses, wide-area transfer legs, changelog
// lookups — attaches child spans, linked by the *Span values threaded
// through the call paths. Traces export in Chrome trace_event format
// (chrome://tracing, Perfetto); metrics export as a flat text dump.
//
// Span collection is tail-based: spans accumulate on their trace's tree,
// and only when the root task span ends does the tracer's RetentionPolicy
// decide keep-vs-drop over the whole tree (see retention.go). Kept trees
// land in the tracer's one buffer and Spans() returns them in the global
// end order, so exports stay byte-deterministic. Dropped trees recycle
// their spans through a free list.
//
// Everything is nil-safe: a nil *Tracer, *Span, *Registry, *Counter,
// *Gauge or *Histogram accepts every call as a no-op, so instrumentation
// points never need to guard against disabled telemetry.
package telemetry

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span. Values should be scalars
// (string, bool, int64, float64) so exports are stable.
type Attr struct {
	Key   string
	Value any
}

// spanFreeListMax caps the recycled-span free list so a burst of dropped
// trees cannot pin unbounded memory.
const spanFreeListMax = 4096

// traceTree accumulates one trace's ended spans until the tree quiesces —
// the root span has ended and no span of the trace is still open — and
// the retention decision flushes it whole: kept into the tracer's buffer
// or dropped into the free list, never half-recorded. Waiting for the
// last span (not just the root) matters because the faas layer ends an
// instance's "fn:" span, and stamps its crash attrs, after the handler
// body (which ends the root via defer) returns.
type traceTree struct {
	t    *Tracer
	gen  uint64 // tracer generation at StartTrace; mismatch at flush = drop
	root *Span

	mu        sync.Mutex
	spans     []*Span // ended spans of this trace, in end order
	exemplars []exemplarCandidate
	open      int // spans started but not yet ended
	rootEnded bool
	flushed   bool
	kept      bool // retention verdict, once flushed
}

// Tracer collects finished spans. Create one with NewTracer; it starts
// disabled, and while disabled StartTrace returns nil spans whose entire
// method set no-ops, so instrumentation costs nothing.
type Tracer struct {
	now func() time.Time

	enabled atomic.Bool
	// gen is bumped on SetEnabled(false) and Reset. A tree flushing under
	// a generation other than the one it started in drops cleanly: this is
	// what keeps a mid-flight disable from half-recording a trace.
	gen atomic.Uint64
	// endSeq stamps every span End with a global sequence number, the
	// total order Spans() returns (kept trees land whole, at flush).
	endSeq atomic.Int64

	policy atomic.Pointer[RetentionPolicy]

	stats tracerCounters

	mu   sync.Mutex
	kept []*Span                 // spans of retained trees
	live map[*traceTree]struct{} // trees still in flight
	free []*Span                 // recycled spans of dropped trees
}

// NewTracer returns a disabled Tracer reading time from now (typically
// simclock.Clock.Now, so spans live on virtual time).
func NewTracer(now func() time.Time) *Tracer {
	if now == nil {
		now = time.Now
	}
	return &Tracer{now: now}
}

// SetEnabled turns span collection on or off. Traces started while
// disabled are not recorded, and traces in flight when collection turns
// off are dropped whole when their root ends — disable mid-task never
// leaves a partial tree behind.
func (t *Tracer) SetEnabled(on bool) {
	if t == nil {
		return
	}
	if on {
		t.enabled.Store(true)
		return
	}
	if t.enabled.Swap(false) {
		t.gen.Add(1)
	}
}

// Enable is SetEnabled(true).
func (t *Tracer) Enable() { t.SetEnabled(true) }

// Enabled reports whether spans are being collected.
func (t *Tracer) Enabled() bool {
	return t != nil && t.enabled.Load()
}

// SetPolicy installs the tail-based retention policy consulted when each
// root span ends. A nil policy keeps every trace (the legacy behavior).
func (t *Tracer) SetPolicy(p *RetentionPolicy) {
	if t == nil {
		return
	}
	t.policy.Store(p)
}

// Reset discards every collected span and zeroes the retention stats.
// Traces in flight drop whole when their root ends.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.gen.Add(1)
	t.mu.Lock()
	t.kept = nil
	t.live = nil
	t.mu.Unlock()
	t.stats.reset()
}

// newSpan takes a span off the free list (or allocates one), reusing the
// attr slice and child-counter map capacity of a dropped tree's spans.
func (t *Tracer) newSpan() *Span {
	t.mu.Lock()
	n := len(t.free)
	if n == 0 {
		t.mu.Unlock()
		return &Span{}
	}
	s := t.free[n-1]
	t.free[n-1] = nil
	t.free = t.free[:n-1]
	t.mu.Unlock()
	s.t, s.tree = nil, nil
	s.TraceID, s.Parent, s.Path, s.Name, s.Lane = "", "", "", "", ""
	s.Start, s.Finish = time.Time{}, time.Time{}
	s.attrs = s.attrs[:0]
	clear(s.seq)
	s.ended = false
	s.endSeq = 0
	return s
}

// recycle pushes a dropped tree's spans onto the free list (up to the
// cap) and accounts the drop.
func (t *Tracer) recycle(spans []*Span) {
	t.stats.spansDropped.Add(int64(len(spans)))
	recycled := 0
	t.mu.Lock()
	for _, s := range spans {
		if len(t.free) >= spanFreeListMax {
			break
		}
		t.free = append(t.free, s)
		recycled++
	}
	t.mu.Unlock()
	t.stats.spansRecycled.Add(int64(recycled))
}

// StartTrace opens a root span for a new trace starting now. It returns
// nil (safe for every Span method) when the tracer is disabled.
func (t *Tracer) StartTrace(traceID, name string) *Span {
	if t == nil {
		return nil
	}
	return t.StartTraceAt(traceID, name, t.now())
}

// StartTraceAt is StartTrace with an explicit start time; the engine uses
// it to anchor a task's root span at the source PUT completion, so the
// notification delay is part of the waterfall.
func (t *Tracer) StartTraceAt(traceID, name string, start time.Time) *Span {
	if t == nil || !t.enabled.Load() {
		return nil
	}
	tree := &traceTree{t: t, gen: t.gen.Load(), open: 1}
	s := t.newSpan()
	s.t, s.tree = t, tree
	s.TraceID, s.Name, s.Path = traceID, name, name
	s.Start = start
	tree.root = s
	t.mu.Lock()
	if t.live == nil {
		t.live = make(map[*traceTree]struct{})
	}
	t.live[tree] = struct{}{}
	t.mu.Unlock()
	t.stats.treesStarted.Add(1)
	t.stats.spansStarted.Add(1)
	return s
}

// Spans returns a snapshot of the ended spans — retained trees plus the
// ended spans of traces still in flight — in the order they ended.
func (t *Tracer) Spans() []*Span {
	if t == nil {
		return nil
	}
	gen := t.gen.Load()
	t.mu.Lock()
	out := append([]*Span(nil), t.kept...)
	for tree := range t.live {
		if tree.gen != gen {
			continue // doomed: will drop whole at flush
		}
		tree.mu.Lock()
		out = append(out, tree.spans...)
		tree.mu.Unlock()
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].endSeq < out[j].endSeq })
	return out
}

// flushTree runs the retention decision when a trace quiesces: the whole
// tree is either appended to the kept buffer (with the verdict
// stamped on the root and the tree's exemplar candidates flushed into
// their histograms) or recycled through the free list.
func (t *Tracer) flushTree(tree *traceTree) {
	tree.mu.Lock()
	if tree.flushed {
		tree.mu.Unlock()
		return
	}
	tree.flushed = true
	spans := tree.spans
	cands := tree.exemplars
	tree.spans, tree.exemplars = nil, nil
	tree.mu.Unlock()

	t.mu.Lock()
	delete(t.live, tree)
	t.mu.Unlock()

	// A tree whose tracer was disabled or reset mid-flight drops whole —
	// all-or-nothing, never a partial trace.
	if !t.enabled.Load() || tree.gen != t.gen.Load() {
		t.stats.treesDropped.Add(1)
		t.recycle(spans)
		return
	}

	pol := t.policy.Load()
	verdict, keep := pol.Decide(tree.root, spans)
	if !keep {
		t.stats.treesDropped.Add(1)
		t.recycle(spans)
		return
	}

	tree.mu.Lock()
	tree.kept = true
	tree.mu.Unlock()
	// Keep-all mode (no policy) leaves roots unstamped so legacy exports
	// stay byte-identical; summaries treat the missing attr as VerdictAll.
	if pol != nil {
		tree.root.Set(RetentionAttr, string(verdict))
	}
	var bytes int64
	for _, s := range spans {
		bytes += spanBytes(s)
	}
	t.mu.Lock()
	t.kept = append(t.kept, spans...)
	t.mu.Unlock()
	t.stats.treesRetained.Add(1)
	t.stats.spansRetained.Add(int64(len(spans)))
	t.stats.retainedBytes.Add(bytes)
	for _, c := range cands {
		c.hist.setExemplar(c.value, tree.root.TraceID, c.labels)
	}
}

// Span is one timed operation within a trace. Spans form a tree: children
// reference their parent by Path, which is unique within the trace. A
// span's Lane groups it with its serial ancestors for display; Fork opens
// a new lane for a concurrent branch (one per function instance, say).
//
// All methods are safe on a nil receiver.
type Span struct {
	t    *Tracer
	tree *traceTree

	TraceID string
	Parent  string // parent span's Path; "" for the root
	Path    string // unique within the trace
	Name    string
	Lane    string // display lane; "" is the trace's main lane
	Start   time.Time
	Finish  time.Time

	endSeq int64 // global end-order stamp (set once, on End)

	mu    sync.Mutex
	attrs []Attr
	seq   map[string]int // per-name child counter for Path uniqueness
	ended bool
}

// Child opens a sub-span starting now on the same lane.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.child(name, s.t.now(), false)
}

// ChildAt is Child with an explicit start time.
func (s *Span) ChildAt(name string, start time.Time) *Span {
	if s == nil {
		return nil
	}
	return s.child(name, start, false)
}

// Fork opens a sub-span on a lane of its own, for work that runs
// concurrently with its siblings (a replicator function instance).
func (s *Span) Fork(name string) *Span {
	if s == nil {
		return nil
	}
	return s.child(name, s.t.now(), true)
}

// ForkAt is Fork with an explicit start time.
func (s *Span) ForkAt(name string, start time.Time) *Span {
	if s == nil {
		return nil
	}
	return s.child(name, start, true)
}

func (s *Span) child(name string, start time.Time, fork bool) *Span {
	s.mu.Lock()
	if s.seq == nil {
		s.seq = make(map[string]int)
	}
	n := s.seq[name]
	s.seq[name]++
	s.mu.Unlock()
	path := s.Path + "/" + name
	if n > 0 {
		path += "#" + strconv.Itoa(n)
	}
	lane := s.Lane
	if fork {
		lane = path
	}
	c := s.t.newSpan()
	c.t, c.tree = s.t, s.tree
	c.TraceID, c.Parent, c.Path, c.Name, c.Lane = s.TraceID, s.Path, path, name, lane
	c.Start = start
	tree := s.tree
	tree.mu.Lock()
	tree.open++
	tree.mu.Unlock()
	s.t.stats.spansStarted.Add(1)
	return c
}

// Set attaches an annotation and returns the span for chaining. Setting a
// key twice keeps both entries; exports use the last value.
func (s *Span) Set(key string, value any) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
	return s
}

// SetSeconds attaches a duration annotation in seconds.
func (s *Span) SetSeconds(key string, d time.Duration) *Span {
	return s.Set(key, d.Seconds())
}

// Attrs returns a copy of the span's annotations.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// Exemplar nominates v as an exemplar for h's bucket, linked to this
// span's trace. The candidate is held on the trace tree and flushed into
// the histogram only if the tree is retained, so exposed exemplars always
// reference traces that exist in the export.
func (s *Span) Exemplar(h *Histogram, v float64, labels ...Label) {
	if s == nil || h == nil {
		return
	}
	tree := s.tree
	tree.mu.Lock()
	flushed, kept := tree.flushed, tree.kept
	if !flushed {
		tree.exemplars = append(tree.exemplars, exemplarCandidate{hist: h, value: v, labels: labels})
	}
	tree.mu.Unlock()
	if flushed && kept {
		h.setExemplar(v, s.TraceID, labels)
	}
}

// End closes the span now and records it with the tracer. Ending twice is
// a no-op; spans that are never ended are not exported.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.EndAt(s.t.now())
}

// EndAt is End with an explicit finish time. When the trace quiesces —
// its root has ended and no other span of the tree remains open — the
// tree's retention decision runs.
func (s *Span) EndAt(at time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.Finish = at
	s.mu.Unlock()
	t := s.t
	tree := s.tree
	tree.mu.Lock()
	if tree.flushed {
		// A straggler ending after the tree's retention decision follows
		// its tree's fate: appended to the kept buffer, or dropped —
		// all-or-nothing either way.
		kept := tree.kept
		tree.mu.Unlock()
		t.stats.spansLate.Add(1)
		if kept {
			s.endSeq = t.endSeq.Add(1)
			t.mu.Lock()
			t.kept = append(t.kept, s)
			t.mu.Unlock()
			t.stats.spansRetained.Add(1)
			t.stats.retainedBytes.Add(spanBytes(s))
		} else {
			t.stats.spansDropped.Add(1)
		}
		return
	}
	s.endSeq = t.endSeq.Add(1)
	tree.spans = append(tree.spans, s)
	tree.open--
	if s == tree.root {
		tree.rootEnded = true
	}
	quiesced := tree.rootEnded && tree.open == 0
	tree.mu.Unlock()
	if quiesced {
		t.flushTree(tree)
	}
}

// Duration is the span's recorded length (zero until ended).
func (s *Span) Duration() time.Duration {
	if s == nil || s.Finish.IsZero() {
		return 0
	}
	return s.Finish.Sub(s.Start)
}
