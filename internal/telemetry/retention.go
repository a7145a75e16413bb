package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Verdict names why a trace was retained. Verdicts form a priority order
// — when several signals are present the strongest one wins — so kept
// traces carry a single, stable classification.
type Verdict string

// Retention verdicts, strongest first. VerdictAll marks traces kept by a
// nil (keep-everything) policy; VerdictSample marks the seeded head
// sample of otherwise clean traffic.
const (
	VerdictDLQ             Verdict = "dlq"
	VerdictCrashRecovery   Verdict = "crash-recovery"
	VerdictRepair          Verdict = "repair"
	VerdictBreakerDegraded Verdict = "breaker-degraded"
	VerdictHedge           Verdict = "hedge"
	VerdictRetry           Verdict = "retry"
	VerdictError           Verdict = "error"
	VerdictSlow            Verdict = "slow"
	VerdictSample          Verdict = "sample"
	VerdictAll             Verdict = "all"
)

// RetentionAttr is the attribute stamped on a retained trace's root span
// carrying the verdict, so exports (Chrome trace args, critical-path
// summaries) can group by retention reason.
const RetentionAttr = "retention"

// verdictRank orders verdicts for summaries (strongest first).
var verdictRank = map[Verdict]int{
	VerdictDLQ: 0, VerdictCrashRecovery: 1, VerdictRepair: 2,
	VerdictBreakerDegraded: 3, VerdictHedge: 4, VerdictRetry: 5,
	VerdictError: 6, VerdictSlow: 7, VerdictSample: 8, VerdictAll: 9,
}

// RetentionPolicy is the seeded, deterministic tail-based keep/drop rule
// consulted when a trace's root span ends. Anomalous trees (any DLQ,
// crash-recovery, repair, breaker-degraded, hedge, retry or error signal
// — see ClassifySpans) are always kept; slow trees (root duration over
// slowFactor times the trailing slowQuantile of all prior root
// durations) are kept; of the remaining clean trees, exactly 1 in
// HeadSampleN is kept by a seeded counter.
//
// Determinism: the slow-duration stream observes every root duration,
// kept or dropped, and the clean counter advances only on clean trees —
// so for a fixed workload the set of anomaly- and slow-kept traces is
// identical across seeds, and Seed only phases which clean trees land in
// the head sample.
type RetentionPolicy struct {
	// Seed phases the head-sample counter: clean tree k is kept when
	// (k+Seed) % HeadSampleN == 0.
	Seed uint64
	// HeadSampleN keeps 1 in N clean trees. N <= 0 drops every clean
	// tree; N == 1 keeps them all.
	HeadSampleN int

	mu    sync.Mutex
	durs  *Histogram
	seen  int
	clean uint64
}

// Slow detection keeps a tree whose root duration exceeds slowFactor
// times the trailing slowQuantile estimate of prior root durations; the
// estimator warms up over slowWarmup observations before it fires.
const (
	slowQuantile = 0.95
	slowFactor   = 4
	slowWarmup   = 32
)

// NewSampledPolicy returns a policy keeping anomalies and slow trees plus
// a seeded 1-in-n head sample.
func NewSampledPolicy(seed uint64, n int) *RetentionPolicy {
	return &RetentionPolicy{Seed: seed, HeadSampleN: n}
}

// Decide classifies one ended trace (root plus its whole span tree) and
// reports whether to keep it. A nil policy keeps everything under
// VerdictAll.
func (p *RetentionPolicy) Decide(root *Span, spans []*Span) (Verdict, bool) {
	if p == nil {
		return VerdictAll, true
	}
	slow := p.observeSlow(root.Duration())
	if v := ClassifySpans(spans); v != "" {
		return v, true
	}
	if slow {
		return VerdictSlow, true
	}
	p.mu.Lock()
	k := p.clean
	p.clean++
	p.mu.Unlock()
	if p.HeadSampleN > 0 && (k+p.Seed)%uint64(p.HeadSampleN) == 0 {
		return VerdictSample, true
	}
	return "", false
}

// observeSlow evaluates the slow verdict against the trailing estimate
// built from durations seen so far — before folding d in, so a trace is
// judged only against its predecessors — then records d. Every root
// duration is recorded regardless of the eventual verdict, which keeps
// the estimator (and hence the slow-kept set) independent of Seed.
func (p *RetentionPolicy) observeSlow(d time.Duration) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.durs == nil {
		p.durs = NewHistogram(nil)
	}
	var slow bool
	if p.seen >= slowWarmup {
		q := p.durs.Quantile(slowQuantile)
		slow = q > 0 && d.Seconds() > slowFactor*q
	}
	p.durs.Observe(d.Seconds())
	p.seen++
	return slow
}

// ClassifySpans scans one trace's spans for anomaly signals and returns
// the strongest matching verdict ("" when the trace is clean). Signals,
// in priority order:
//
//   - dlq: a span carrying a truthy "dlq" attr, or a root whose "cause"
//     attr is "redrive" (the task is a DLQ redrive re-dispatch);
//   - crash-recovery: truthy "crashed"/"resumed"/"resumed_converged"
//     attrs, or cause "lock-recovery";
//   - repair: cause "repair" (anti-entropy re-dispatch);
//   - breaker-degraded: a "degraded" attr that is boolean true (netsim
//     emits a numeric "degraded" factor, which is not a breaker signal);
//   - hedge: a "hedge-" span, a truthy "hedged" attr, or cat=hedge;
//   - retry: a backoff / req-backoff span;
//   - error: truthy "error"/"aborted"/"deadline_exceeded" attrs.
func ClassifySpans(spans []*Span) Verdict {
	const (
		fDLQ = 1 << iota
		fCrash
		fRepair
		fDegraded
		fHedge
		fRetry
		fError
	)
	var flags int
	for _, s := range spans {
		switch s.Name {
		case "backoff", "req-backoff":
			flags |= fRetry
		}
		if hasPrefix(s.Name, "hedge-") {
			flags |= fHedge
		}
		for _, a := range s.Attrs() {
			switch a.Key {
			case "dlq":
				if attrTruthy(a.Value) {
					flags |= fDLQ
				}
			case "cause":
				switch a.Value {
				case "redrive":
					flags |= fDLQ
				case "repair":
					flags |= fRepair
				case "lock-recovery":
					flags |= fCrash
				}
			case "crashed", "resumed", "resumed_converged":
				if attrTruthy(a.Value) {
					flags |= fCrash
				}
			case "degraded":
				if b, ok := a.Value.(bool); ok && b {
					flags |= fDegraded
				}
			case "hedged":
				if attrTruthy(a.Value) {
					flags |= fHedge
				}
			case CatAttr:
				if a.Value == string(CatHedge) {
					flags |= fHedge
				}
			case "error", "aborted", "deadline_exceeded":
				if attrTruthy(a.Value) {
					flags |= fError
				}
			}
		}
	}
	switch {
	case flags&fDLQ != 0:
		return VerdictDLQ
	case flags&fCrash != 0:
		return VerdictCrashRecovery
	case flags&fRepair != 0:
		return VerdictRepair
	case flags&fDegraded != 0:
		return VerdictBreakerDegraded
	case flags&fHedge != 0:
		return VerdictHedge
	case flags&fRetry != 0:
		return VerdictRetry
	case flags&fError != 0:
		return VerdictError
	}
	return ""
}

// attrTruthy reports whether an anomaly attr value is "set": boolean
// true, a non-empty string, or a nonzero number.
func attrTruthy(v any) bool {
	switch x := v.(type) {
	case bool:
		return x
	case string:
		return x != ""
	case int:
		return x != 0
	case int64:
		return x != 0
	case float64:
		return x != 0
	}
	return v != nil
}

// tracerCounters is the tracer's self-overhead meter: every field is a
// monotonic count maintained on the span hot path with single atomics.
type tracerCounters struct {
	treesStarted  atomic.Int64
	treesRetained atomic.Int64
	treesDropped  atomic.Int64
	spansStarted  atomic.Int64
	spansRetained atomic.Int64
	spansDropped  atomic.Int64
	spansRecycled atomic.Int64
	spansLate     atomic.Int64
	retainedBytes atomic.Int64
}

func (c *tracerCounters) reset() {
	c.treesStarted.Store(0)
	c.treesRetained.Store(0)
	c.treesDropped.Store(0)
	c.spansStarted.Store(0)
	c.spansRetained.Store(0)
	c.spansDropped.Store(0)
	c.spansRecycled.Store(0)
	c.spansLate.Store(0)
	c.retainedBytes.Store(0)
}

// TracerStats is a snapshot of the telemetry layer's own overhead: trace
// and span volumes through the retention pipeline and an estimate of the
// bytes held by retained spans.
type TracerStats struct {
	TreesStarted  int64 `json:"trees_started"`
	TreesRetained int64 `json:"trees_retained"`
	TreesDropped  int64 `json:"trees_dropped"`
	SpansStarted  int64 `json:"spans_started"`
	SpansRetained int64 `json:"spans_retained"`
	SpansDropped  int64 `json:"spans_dropped"`
	SpansRecycled int64 `json:"spans_recycled"`
	SpansLate     int64 `json:"spans_late"`
	RetainedBytes int64 `json:"retained_bytes"`
}

// Stats snapshots the tracer's self-overhead counters.
func (t *Tracer) Stats() TracerStats {
	if t == nil {
		return TracerStats{}
	}
	return TracerStats{
		TreesStarted:  t.stats.treesStarted.Load(),
		TreesRetained: t.stats.treesRetained.Load(),
		TreesDropped:  t.stats.treesDropped.Load(),
		SpansStarted:  t.stats.spansStarted.Load(),
		SpansRetained: t.stats.spansRetained.Load(),
		SpansDropped:  t.stats.spansDropped.Load(),
		SpansRecycled: t.stats.spansRecycled.Load(),
		SpansLate:     t.stats.spansLate.Load(),
		RetainedBytes: t.stats.retainedBytes.Load(),
	}
}

// spanBytes estimates the resident size of one retained span: struct
// overhead plus its strings and attrs. An accounting estimate, not an
// exact heap measurement.
func spanBytes(s *Span) int64 {
	n := int64(160) // struct, slice/map headers, padding
	n += int64(len(s.TraceID) + len(s.Parent) + len(s.Path) + len(s.Name) + len(s.Lane))
	s.mu.Lock()
	for _, a := range s.attrs {
		n += int64(32 + len(a.Key))
		if v, ok := a.Value.(string); ok {
			n += int64(len(v))
		}
	}
	s.mu.Unlock()
	return n
}

// WriteRetentionSummary renders the retention outcome of the collected
// spans: pipeline totals, then one row per verdict with kept trace/span
// counts and the dominant critical-path category of those traces — the
// "what kind of anomalies did we keep, and what gated them" view used by
// areplica -trace and profile.
func (t *Tracer) WriteRetentionSummary(w io.Writer) error {
	if t == nil {
		return nil
	}
	st := t.Stats()
	if _, err := fmt.Fprintf(w,
		"traces: %d started, %d retained, %d dropped · spans: %d started, %d retained, %d dropped (%d recycled) · retained ≈ %s\n",
		st.TreesStarted, st.TreesRetained, st.TreesDropped,
		st.SpansStarted, st.SpansRetained, st.SpansDropped, st.SpansRecycled,
		fmtBytes(st.RetainedBytes)); err != nil {
		return err
	}

	type row struct {
		verdict Verdict
		traces  int
		spans   int
		agg     []*Breakdown
	}
	spans := t.Spans()
	byTrace := make(map[string][]*Span)
	verdictOf := make(map[string]Verdict)
	for _, s := range spans {
		byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
		if s.Parent == "" {
			for _, a := range s.Attrs() {
				if a.Key == RetentionAttr {
					if v, ok := a.Value.(string); ok {
						verdictOf[s.TraceID] = Verdict(v)
					}
				}
			}
		}
	}
	rows := make(map[Verdict]*row)
	for id, ss := range byTrace {
		v, ok := verdictOf[id]
		if !ok {
			v = VerdictAll // in-flight or pre-retention spans
		}
		r := rows[v]
		if r == nil {
			r = &row{verdict: v}
			rows[v] = r
		}
		r.traces++
		r.spans += len(ss)
		if b := CriticalPaths(ss); len(b) > 0 {
			r.agg = append(r.agg, b...)
		}
	}
	ordered := make([]*row, 0, len(rows))
	for _, r := range rows {
		ordered = append(ordered, r)
	}
	sort.Slice(ordered, func(i, j int) bool {
		ri, oki := verdictRank[ordered[i].verdict]
		rj, okj := verdictRank[ordered[j].verdict]
		if oki != okj {
			return oki
		}
		if ri != rj {
			return ri < rj
		}
		return ordered[i].verdict < ordered[j].verdict
	})
	if len(ordered) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "%-17s %7s %7s  %s\n", "verdict", "traces", "spans", "dominant"); err != nil {
		return err
	}
	for _, r := range ordered {
		dom := Aggregate(r.agg).Dominant()
		if dom == "" {
			dom = "-"
		}
		if _, err := fmt.Fprintf(w, "%-17s %7d %7d  %s\n", r.verdict, r.traces, r.spans, dom); err != nil {
			return err
		}
	}
	return nil
}

// fmtBytes renders a byte count with a binary unit suffix.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}
