package telemetry

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// endTrace builds one small task-shaped trace (root, a child, a fork with
// a leg) and ends every span, root last. extra mutates the root before
// anything ends (to plant anomaly attrs).
func endTrace(tr *Tracer, id string, extra func(root *Span)) {
	root := tr.StartTrace(id, "task")
	if extra != nil {
		extra(root)
	}
	c := root.Child("notify")
	c.End()
	f := root.Fork("fn:i")
	leg := f.Child("leg-up")
	leg.End()
	root.End()
	f.End() // the faas layer ends the instance span after the handler returns
}

// spansPerTrace groups a snapshot by trace ID.
func spansPerTrace(spans []*Span) map[string]int {
	out := make(map[string]int)
	for _, s := range spans {
		out[s.TraceID]++
	}
	return out
}

// verdictCounts counts retained traces per verdict from the verdict each
// kept root carries.
func verdictCounts(tr *Tracer) map[Verdict]int64 {
	out := make(map[Verdict]int64)
	for _, s := range tr.Spans() {
		if s.Parent != "" {
			continue
		}
		for _, a := range s.Attrs() {
			if a.Key == RetentionAttr {
				out[Verdict(a.Value.(string))]++
			}
		}
	}
	return out
}

func TestSetEnabledMidFlightDropsTreeWhole(t *testing.T) {
	tr := NewTracer(newFakeClock().now)
	tr.Enable()

	root := tr.StartTrace("t", "task")
	root.Child("notify").End()
	if got := len(tr.Spans()); got != 1 {
		t.Fatalf("ended child of a live trace should be visible, got %d spans", got)
	}

	// Disable mid-flight: the already-ended child must not survive as a
	// half-recorded tree once the root ends.
	tr.SetEnabled(false)
	root.End()
	if got := len(tr.Spans()); got != 0 {
		t.Fatalf("tree disabled mid-flight half-recorded %d spans", got)
	}
	st := tr.Stats()
	if st.TreesDropped != 1 || st.SpansRetained != 0 {
		t.Fatalf("stats = %+v, want 1 dropped tree and 0 retained spans", st)
	}

	// Re-enabling records fresh traces normally.
	tr.SetEnabled(true)
	endTrace(tr, "t2", nil)
	if got := spansPerTrace(tr.Spans())["t2"]; got != 4 {
		t.Fatalf("post-re-enable trace recorded %d spans, want 4", got)
	}
}

// TestSetEnabledRaceInFlight hammers SetEnabled toggles against live
// trace trees under -race. The invariant is all-or-nothing per trace:
// every trace ID present in the snapshot carries all 4 of its spans.
func TestSetEnabledRaceInFlight(t *testing.T) {
	tr := NewTracer(newFakeClock().now)
	tr.Enable()

	const workers, iters = 8, 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				endTrace(tr, fmt.Sprintf("w%d-%d", w, i), nil)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			tr.SetEnabled(false)
			tr.SetEnabled(true)
		}
	}()
	wg.Wait()
	<-done
	tr.SetEnabled(true)

	for id, n := range spansPerTrace(tr.Spans()) {
		if n != 4 {
			t.Fatalf("trace %s half-recorded: %d of 4 spans", id, n)
		}
	}
	st := tr.Stats()
	if st.SpansStarted != st.SpansRetained+st.SpansDropped {
		t.Fatalf("span accounting leak: %+v", st)
	}
}

func TestClassifySpansVerdicts(t *testing.T) {
	tr := NewTracer(newFakeClock().now)
	tr.Enable()
	build := func(f func(root *Span)) []*Span {
		tr.Reset()
		endTrace(tr, "t", f)
		return tr.Spans()
	}
	cases := []struct {
		name string
		f    func(root *Span)
		want Verdict
	}{
		{"clean", nil, ""},
		{"dlq attr", func(r *Span) { r.Set("dlq", true) }, VerdictDLQ},
		{"redrive cause", func(r *Span) { r.Set("cause", "redrive") }, VerdictDLQ},
		{"crashed", func(r *Span) { r.Set("crashed", true) }, VerdictCrashRecovery},
		{"resumed", func(r *Span) { r.Set("resumed", int64(1)) }, VerdictCrashRecovery},
		{"lock recovery cause", func(r *Span) { r.Set("cause", "lock-recovery") }, VerdictCrashRecovery},
		{"repair cause", func(r *Span) { r.Set("cause", "repair") }, VerdictRepair},
		{"breaker degraded", func(r *Span) { r.Child("attempt").Set("degraded", true).End() }, VerdictBreakerDegraded},
		{"netsim float degraded is benign", func(r *Span) { r.Child("leg-down").Set("degraded", 2.5).End() }, ""},
		{"hedge span", func(r *Span) { r.Child("hedge-claim").End() }, VerdictHedge},
		{"hedged attr", func(r *Span) { r.Set("hedged", true) }, VerdictHedge},
		{"retry backoff", func(r *Span) { r.Child("backoff").End() }, VerdictRetry},
		{"req backoff", func(r *Span) { r.Child("req-backoff").End() }, VerdictRetry},
		{"error attr", func(r *Span) { r.Set("error", "boom") }, VerdictError},
		{"deadline", func(r *Span) { r.Set("deadline_exceeded", true) }, VerdictError},
		{"deduped is benign", func(r *Span) { r.Set("deduped", true) }, ""},
		// Priority: dlq outranks everything else present.
		{"dlq beats retry", func(r *Span) { r.Set("dlq", true); r.Child("backoff").End() }, VerdictDLQ},
		{"crash beats error", func(r *Span) { r.Set("crashed", true).Set("error", "x") }, VerdictCrashRecovery},
	}
	for _, tc := range cases {
		if got := ClassifySpans(build(tc.f)); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestRetentionHeadSamplingExact(t *testing.T) {
	const n, traces = 4, 100
	keptBySeed := make(map[uint64][]string)
	for _, seed := range []uint64{0, 1, 7} {
		tr := NewTracer(newFakeClock().now)
		tr.SetPolicy(&RetentionPolicy{Seed: seed, HeadSampleN: n})
		tr.Enable()
		for i := 0; i < traces; i++ {
			endTrace(tr, fmt.Sprintf("t%03d", i), nil)
		}
		var ids []string
		seen := map[string]bool{}
		for _, s := range tr.Spans() {
			if !seen[s.TraceID] {
				seen[s.TraceID] = true
				ids = append(ids, s.TraceID)
			}
		}
		if len(ids) != traces/n {
			t.Fatalf("seed %d: kept %d of %d clean traces, want exactly %d", seed, len(ids), traces, traces/n)
		}
		if vc := verdictCounts(tr); vc[VerdictSample] != int64(traces/n) {
			t.Fatalf("seed %d: verdict counts %v", seed, vc)
		}
		keptBySeed[seed] = ids
	}
	if fmt.Sprint(keptBySeed[0]) == fmt.Sprint(keptBySeed[1]) {
		t.Fatal("different seeds kept the identical head sample (seed not phasing the counter)")
	}
}

// TestRetentionAnomaliesAlwaysKept interleaves anomalous and clean
// traces: every anomalous trace must be kept in full regardless of seed,
// and only clean traces consume the head-sample counter.
func TestRetentionAnomaliesAlwaysKept(t *testing.T) {
	tr := NewTracer(newFakeClock().now)
	tr.SetPolicy(&RetentionPolicy{Seed: 3, HeadSampleN: 8})
	tr.Enable()
	for i := 0; i < 64; i++ {
		if i%4 == 0 {
			endTrace(tr, fmt.Sprintf("anom-%02d", i), func(r *Span) { r.Child("backoff").End() })
		} else {
			endTrace(tr, fmt.Sprintf("clean-%02d", i), nil)
		}
	}
	counts := spansPerTrace(tr.Spans())
	anom := 0
	for id, n := range counts {
		if n != 4 && !(id[:4] == "anom" && n == 5) { // anomalous traces carry the extra backoff span
			t.Fatalf("trace %s retained %d spans (partial tree)", id, n)
		}
		if id[:4] == "anom" {
			anom++
		}
	}
	if anom != 16 {
		t.Fatalf("kept %d of 16 anomalous traces", anom)
	}
	vc := verdictCounts(tr)
	if vc[VerdictRetry] != 16 {
		t.Fatalf("retry verdicts %d, want 16", vc[VerdictRetry])
	}
	if vc[VerdictSample] != 6 { // 48 clean traces, 1-in-8
		t.Fatalf("sample verdicts %d, want 6", vc[VerdictSample])
	}
}

func TestRetentionSlowQuantile(t *testing.T) {
	// Trailing quantile: after the slowWarmup of ~10ms roots, a 10x
	// outlier is kept — and the estimate uses only its predecessors.
	pol := &RetentionPolicy{}
	mk := func(d time.Duration) *Span {
		return &Span{Start: time.Unix(0, 0), Finish: time.Unix(0, int64(d)), ended: true}
	}
	for i := 0; i < slowWarmup; i++ {
		s := mk(10 * time.Millisecond)
		if v, keep := pol.Decide(s, []*Span{s}); keep {
			t.Fatalf("warmup trace %d kept as %q", i, v)
		}
	}
	out := mk(100 * time.Millisecond)
	if v, keep := pol.Decide(out, []*Span{out}); !keep || v != VerdictSlow {
		t.Fatalf("outlier verdict %q keep=%v", v, keep)
	}
	// The outlier is now in the stream but does not dominate: a normal
	// trace right after still drops.
	s := mk(10 * time.Millisecond)
	if v, keep := pol.Decide(s, []*Span{s}); keep {
		t.Fatalf("post-outlier normal trace kept as %q", v)
	}
}

// TestExemplarOnlyOnRetained verifies the deferred-exemplar contract:
// histograms expose exemplars only from traces that survived retention.
func TestExemplarOnlyOnRetained(t *testing.T) {
	tr := NewTracer(newFakeClock().now)
	tr.SetPolicy(&RetentionPolicy{HeadSampleN: 0}) // drop every clean trace
	tr.Enable()
	h := NewHistogram([]float64{0.1, 1, 10})

	// Dropped clean trace: its exemplar must never surface.
	root := tr.StartTrace("dropped", "task")
	root.Exemplar(h, 0.5)
	root.End()
	for i, e := range h.Exemplars() {
		if e != nil {
			t.Fatalf("bucket %d has exemplar %+v from a dropped trace", i, e)
		}
	}

	// Kept anomalous trace: exemplar lands in the right bucket.
	root = tr.StartTrace("kept", "task")
	root.Set("error", "boom")
	root.Exemplar(h, 0.5, L("rule", "a->b"))
	root.End()
	ex := h.Exemplars()
	if ex[1] == nil || ex[1].TraceID != "kept" || ex[1].Value != 0.5 {
		t.Fatalf("kept trace exemplar missing or wrong: %+v", ex[1])
	}
	if got := h.WorstExemplar(); got == nil || got.TraceID != "kept" {
		t.Fatalf("WorstExemplar = %+v", got)
	}

	// A span ending after its tree flushed (the faas "fn:" pattern) can
	// still attach exemplars when the tree was kept.
	root = tr.StartTrace("late", "task")
	root.Set("error", "late boom")
	f := root.Fork("fn:i")
	root.End()
	f.Exemplar(h, 20)
	f.End()
	if got := h.WorstExemplar(); got == nil || got.TraceID != "late" {
		t.Fatalf("late exemplar not attached: %+v", got)
	}
}

func TestRetentionSummaryDeterministic(t *testing.T) {
	render := func() string {
		tr := NewTracer(newFakeClock().now)
		tr.SetPolicy(&RetentionPolicy{Seed: 1, HeadSampleN: 2})
		tr.Enable()
		endTrace(tr, "a", func(r *Span) { r.Set("dlq", true) })
		endTrace(tr, "b", func(r *Span) { r.Child("backoff").End() })
		for i := 0; i < 4; i++ {
			endTrace(tr, fmt.Sprintf("c%d", i), nil)
		}
		var buf bytes.Buffer
		if err := tr.WriteRetentionSummary(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("summary not deterministic:\n%s\nvs\n%s", a, b)
	}
	for _, want := range []string{"dlq", "retry", "sample", "verdict"} {
		if !bytes.Contains([]byte(a), []byte(want)) {
			t.Fatalf("summary missing %q:\n%s", want, a)
		}
	}
}

func TestPromExemplarGolden(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		h := r.HistogramVecBuckets("engine.task.seconds", []float64{0.5, 1, 2}).With()
		lag := r.HistogramVecBuckets("engine.lag.seconds", []float64{1, 10}).
			With(L("dest", "aws:us-east-1"), L("rule", "a->b"))

		tr := NewTracer(newFakeClock().now)
		tr.SetPolicy(&RetentionPolicy{HeadSampleN: 0})
		tr.Enable()

		// Retained anomalous trace contributes exemplars to both families.
		root := tr.StartTrace("rule a->b k@1", "task")
		root.Set("dlq", true)
		h.Observe(0.7)
		root.Exemplar(h, 0.7, L("rule", "a->b"))
		lag.Observe(12)
		root.Exemplar(lag, 12)
		root.End()

		// Dropped clean trace: observations count, exemplars do not.
		root = tr.StartTrace("rule a->b k@2", "task")
		h.Observe(3)
		root.Exemplar(h, 3)
		root.End()
		return r
	}
	var a, b bytes.Buffer
	if err := build().WritePromText(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WritePromText(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two identical builds differ:\n%s\nvs\n%s", a.String(), b.String())
	}
	checkGolden(t, "metrics_prom_exemplar.golden", a.Bytes())
}
