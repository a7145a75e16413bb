package telemetry

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// fixtureRegistry builds a deterministic registry mixing unlabelled
// instruments with labelled families (whose aggregates are the roll-up
// of their children), exercising every instrument kind.
func fixtureRegistry() *Registry {
	r := NewRegistry()
	r.Gauge("engine.dlq.depth").Set(3)
	h := r.HistogramVecBuckets("engine.task.seconds", []float64{0.5, 1, 2, 4}).With()
	for _, v := range []float64{0.2, 0.7, 0.9, 1.5, 3.0, 9.0} {
		h.Observe(v)
	}
	tasks := r.CounterVec("engine.tasks.ok")
	tasks.With(L("rule", "a->b"), L("dest", "aws:us-east-1")).Add(25)
	tasks.With(L("rule", "a->c"), L("dest", "gcp:eu-west1")).Add(15)
	lagv := r.HistogramVecBuckets("engine.lag.seconds", []float64{1, 10})
	lagv.With(L("dest", "aws:us-east-1")).Observe(0.4)
	lagv.With(L("dest", "aws:us-east-1")).Observe(12.0)
	lagv.With(L("dest", "gcp:eu-west1")).Observe(2.5)
	bk := r.GaugeVec("engine.lag.backlog")
	bk.With(L("dest", "aws:us-east-1")).Set(2)
	bk.With(L("dest", "gcp:eu-west1")).Set(-1) // negative levels are legal
	r.CounterVec("quoted").With(L("k", `va"l\ue`+"\n")).Inc()
	return r
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestWriteTextGoldenLabelled(t *testing.T) {
	var a, b bytes.Buffer
	if err := fixtureRegistry().WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := fixtureRegistry().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two same-seed runs differ:\n%s\nvs\n%s", a.String(), b.String())
	}
	checkGolden(t, "metrics_text.golden", a.Bytes())
}

func TestWritePromTextGolden(t *testing.T) {
	var a, b bytes.Buffer
	if err := fixtureRegistry().WritePromText(&a); err != nil {
		t.Fatal(err)
	}
	if err := fixtureRegistry().WritePromText(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two same-seed runs differ:\n%s\nvs\n%s", a.String(), b.String())
	}
	checkGolden(t, "metrics_prom.golden", a.Bytes())
}

// TestLabelOrderingConcurrent registers the same families from many
// goroutines in scrambled label orders; output must not depend on which
// goroutine created a child first, and label pairs must canonicalize to
// one sorted key regardless of argument order.
func TestLabelOrderingConcurrent(t *testing.T) {
	render := func(shift int) string {
		r := NewRegistry()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 16; i++ {
					n := (i + g + shift) % 16
					rule := fmt.Sprintf("rule-%02d", n)
					if n%2 == 0 {
						r.CounterVec("x.tasks").With(L("rule", rule), L("dest", "d1")).Inc()
					} else {
						r.CounterVec("x.tasks").With(L("dest", "d1"), L("rule", rule)).Inc()
					}
					r.GaugeVec("x.backlog").With(L("rule", rule)).Set(int64(n))
					r.HistogramVec("x.lag").With(L("rule", rule)).Observe(float64(n) + 0.5)
				}
			}(g)
		}
		wg.Wait()
		var buf bytes.Buffer
		if err := r.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		var pb bytes.Buffer
		if err := r.WritePromText(&pb); err != nil {
			t.Fatal(err)
		}
		return buf.String() + "\n===\n" + pb.String()
	}
	base := render(0)
	for shift := 1; shift < 4; shift++ {
		if got := render(shift); got != base {
			t.Fatalf("output depends on registration order (shift %d):\n%s\nvs\n%s", shift, got, base)
		}
	}
}

func TestCanonicalLabelsSorted(t *testing.T) {
	a := canonicalLabels([]Label{{"z", "1"}, {"a", "2"}})
	b := canonicalLabels([]Label{{"a", "2"}, {"z", "1"}})
	want := `{a="2",z="1"}`
	if a != want || b != want {
		t.Fatalf("canonicalLabels not order-independent: %q vs %q (want %q)", a, b, want)
	}
}

// TestRegistryReset is the regression test for gauge state leaking
// between back-to-back runs that share one registry: after Reset every
// instrument — including high-water marks and labelled children — must
// read zero while previously handed-out pointers stay usable.
func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("engine.retries")
	g := r.Gauge("engine.dlq.depth")
	h := r.Histogram("engine.task.seconds")
	vc := r.CounterVec("engine.retries").With(L("rule", "a->b"))
	vg := r.GaugeVec("faas.running").With(L("region", "aws:us-east-1"))
	c.Add(7)
	g.Set(5)
	g.Set(2) // Max stays 5
	h.Observe(1.5)
	vc.Add(3)
	vg.Add(4)
	if g.Max() != 5 {
		t.Fatalf("Gauge.Max before reset = %d, want 5", g.Max())
	}
	r.Reset()
	if c.Value() != 0 || g.Value() != 0 || g.Max() != 0 || h.Count() != 0 ||
		vc.Value() != 0 || vg.Value() != 0 || vg.Max() != 0 {
		t.Fatalf("Reset left state: c=%d g=%d g.max=%d h=%d vc=%d vg=%d",
			c.Value(), g.Value(), g.Max(), h.Count(), vc.Value(), vg.Value())
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("WriteText after Reset not empty:\n%s", buf.String())
	}
	// Old pointers must still feed the registry's instruments.
	c.Inc()
	g.Set(9)
	h.Observe(0.25)
	if r.Counter("engine.retries").Value() != 1 {
		t.Fatal("counter identity lost across Reset")
	}
	if r.Gauge("engine.dlq.depth").Value() != 9 || r.Gauge("engine.dlq.depth").Max() != 9 {
		t.Fatal("gauge identity lost across Reset")
	}
	if r.Histogram("engine.task.seconds").Count() != 1 {
		t.Fatal("histogram identity lost across Reset")
	}
	// Second run's dump reflects only post-Reset activity.
	buf.Reset()
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := "engine.dlq.depth 9\nengine.retries 1\nengine.task.seconds count=1 sum=0.250000 min=0.250000 max=0.250000 p50=0.250000 p95=0.250000 p99=0.250000\n"
	if buf.String() != want {
		t.Fatalf("post-Reset dump:\n%q\nwant:\n%q", buf.String(), want)
	}
}

// TestFamilyRollUp: every update to a labelled child lands in its
// family's aggregate at write time, so the plain-name reader sees the
// exact total, and Reset zeroes both.
func TestFamilyRollUp(t *testing.T) {
	la, lb := L("rule", "a"), L("rule", "b")
	cases := []struct {
		name  string
		write func(r *Registry)
		check func(t *testing.T, r *Registry)
		zero  func(r *Registry) bool
	}{
		{
			name: "counter",
			write: func(r *Registry) {
				v := r.CounterVec("m.ok")
				v.With(la).Add(2)
				v.With(la).Inc()
				v.With(lb).Add(4)
			},
			check: func(t *testing.T, r *Registry) {
				v := r.CounterVec("m.ok")
				if a, b, agg := v.With(la).Value(), v.With(lb).Value(), r.Counter("m.ok").Value(); a != 3 || b != 4 || agg != 7 {
					t.Fatalf("a=%d b=%d agg=%d, want 3 4 7", a, b, agg)
				}
			},
			zero: func(r *Registry) bool {
				v := r.CounterVec("m.ok")
				return v.With(la).Value() == 0 && v.With(lb).Value() == 0 && r.Counter("m.ok").Value() == 0
			},
		},
		{
			name: "gauge",
			write: func(r *Registry) {
				v := r.GaugeVec("m.depth")
				a, b := v.With(la), v.With(lb)
				a.Set(4)
				a.Add(-1) // a=3
				b.Set(-2) // negative level: agg=1
				b.Set(5)  // moves agg by 5-(-2): agg=8
				a.SetMax(10)
				a.SetMax(2) // below the level: no-op; agg=15
				b.Set(0)    // agg=10, its high-water stays 15
			},
			check: func(t *testing.T, r *Registry) {
				v := r.GaugeVec("m.depth")
				a, b, agg := v.With(la), v.With(lb), r.Gauge("m.depth")
				if a.Value() != 10 || b.Value() != 0 || agg.Value() != 10 {
					t.Fatalf("levels a=%d b=%d agg=%d, want 10 0 10", a.Value(), b.Value(), agg.Value())
				}
				if a.Max() != 10 || b.Max() != 5 || agg.Max() != 15 {
					t.Fatalf("high-water a=%d b=%d agg=%d, want 10 5 15", a.Max(), b.Max(), agg.Max())
				}
			},
			zero: func(r *Registry) bool {
				v := r.GaugeVec("m.depth")
				a, b, agg := v.With(la), v.With(lb), r.Gauge("m.depth")
				return a.Value() == 0 && b.Value() == 0 && agg.Value() == 0 &&
					a.Max() == 0 && b.Max() == 0 && agg.Max() == 0
			},
		},
		{
			name: "histogram",
			write: func(r *Registry) {
				v := r.HistogramVecBuckets("m.lag", []float64{1, 10})
				v.With(la).Observe(0.5)
				v.With(la).Observe(4)
				v.With(lb).Observe(20)
				// A retained trace's exemplar reaches child and aggregate.
				tr := NewTracer(nil)
				tr.Enable()
				root := tr.StartTrace("t1", "task")
				root.Exemplar(v.With(lb), 20, lb)
				root.End()
			},
			check: func(t *testing.T, r *Registry) {
				v := r.HistogramVec("m.lag")
				a, b, agg := v.With(la), v.With(lb), r.Histogram("m.lag")
				if a.Count() != 2 || b.Count() != 1 || agg.Count() != 3 {
					t.Fatalf("counts a=%d b=%d agg=%d, want 2 1 3", a.Count(), b.Count(), agg.Count())
				}
				if agg.Sum() != 24.5 || agg.Min() != 0.5 || agg.Max() != 20 {
					t.Fatalf("agg sum=%v min=%v max=%v, want 24.5 0.5 20", agg.Sum(), agg.Min(), agg.Max())
				}
				if bounds, _ := agg.BucketCounts(); len(bounds) != 2 || bounds[1] != 10 {
					t.Fatalf("aggregate bounds %v, want the family's [1 10]", bounds)
				}
				if q := agg.Quantile(0.5); q <= 1 || q > 10 {
					t.Fatalf("agg p50 = %v, want inside the (1,10] bucket", q)
				}
				if agg.Quantile(1) != 20 || a.Quantile(1) != 4 {
					t.Fatalf("p100 agg=%v a=%v, want 20 4", agg.Quantile(1), a.Quantile(1))
				}
				ce, ae := b.WorstExemplar(), agg.WorstExemplar()
				if ce == nil || ce.TraceID != "t1" || len(ce.Labels) != 0 {
					t.Fatalf("child exemplar %+v, want bare t1", ce)
				}
				if ae == nil || ae.TraceID != "t1" || len(ae.Labels) != 1 || ae.Labels[0] != lb {
					t.Fatalf("aggregate exemplar %+v, want t1 labelled %v", ae, lb)
				}
			},
			zero: func(r *Registry) bool {
				v := r.HistogramVec("m.lag")
				a, b, agg := v.With(la), v.With(lb), r.Histogram("m.lag")
				return a.Count() == 0 && b.Count() == 0 && agg.Count() == 0 &&
					b.WorstExemplar() == nil && agg.WorstExemplar() == nil
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			tc.write(r)
			tc.check(t, r)
			r.Reset()
			if !tc.zero(r) {
				t.Fatal("Reset left state on a child or the aggregate")
			}
		})
	}
	// Nil vecs hand out nil children that no-op.
	var nv *CounterVec
	nv.With(la).Inc()
}
