package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/telemetry"
)

// TestBenchDeterministic is the suite's headline guarantee: two
// identically-configured runs serialize to byte-identical JSON.
func TestBenchDeterministic(t *testing.T) {
	run := func() []byte {
		rep, err := RunBench(BenchConfig{Quick: true, SampleInterval: 5 * time.Second})
		if err != nil {
			t.Fatalf("RunBench: %v", err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("two identically-seeded runs differ:\n--- a\n%s\n--- b\n%s", a, b)
	}

	rep, err := ReadBenchReport(bytes.NewReader(a))
	if err != nil {
		t.Fatalf("ReadBenchReport: %v", err)
	}
	if rep.Schema != BenchSchema || rep.Suite != "quick" {
		t.Fatalf("report header wrong: %+v", rep)
	}
	if len(rep.Experiments) != 4 {
		t.Fatalf("got %d experiments, want 4", len(rep.Experiments))
	}
	for _, e := range rep.Experiments {
		if e.P50S <= 0 || e.P99S < e.P50S || e.CostUSD <= 0 {
			t.Errorf("%s: implausible measurements %+v", e.Name, e)
		}
		if e.Dominant == "" || len(e.Categories) == 0 {
			t.Errorf("%s: missing critical-path attribution", e.Name)
		}
		var frac float64
		for _, c := range e.Categories {
			frac += c.Fraction
		}
		if frac < 0.999999 || frac > 1.000001 {
			t.Errorf("%s: category fractions sum to %v, want 1", e.Name, frac)
		}
		if len(e.Series) != 5 {
			t.Errorf("%s: got %d series digests, want 5", e.Name, len(e.Series))
		}
	}
	if len(rep.FaultMatrix) != 4 { // none + storage-flaky + mixed + net-degraded
		t.Fatalf("got %d fault rows, want 4", len(rep.FaultMatrix))
	}
	if rep.FaultMatrix[0].Profile != "none" {
		t.Fatalf("baseline row first, got %q", rep.FaultMatrix[0].Profile)
	}
}

// TestBenchPartitionInvariantOnRealTraces drives the real engine over a
// traced workload and checks every task's critical-path shares sum to the
// root span duration within 1e-9 s.
func TestBenchPartitionInvariantOnRealTraces(t *testing.T) {
	w := newWorld("bench-invariant")
	src, dst := AWSEast, AzureEast
	mustCreate(w, src, "inv-src", true)
	mustCreate(w, dst, "inv-dst", true)
	svc := deployService(w, model.New(), engine.Rule{
		Src: src, Dst: dst, SrcBucket: "inv-src", DstBucket: "inv-dst",
	}, core.Options{ProfileRounds: profileRounds(true)})
	w.Tracer.Enable()
	w.Tracer.Reset()

	sizes := []int64{256 * 1024, 8 * MB, 48 * MB} // single-function and distributed paths
	for i, size := range sizes {
		putObject(w, src, "inv-src", fmt.Sprintf("k-%d", i), size, i)
		w.Clock.Sleep(time.Second)
	}
	w.Clock.Quiesce()

	bds := w.Tracer.CriticalPaths()
	if len(bds) != len(sizes) {
		t.Fatalf("got %d task breakdowns, want %d", len(bds), len(sizes))
	}
	if err := CheckPartition(bds, 1e-9); err != nil {
		t.Fatal(err)
	}
	for _, b := range bds {
		if b.Root.Name != "task" {
			t.Errorf("breakdown root %q, want task", b.Root.Name)
		}
		if b.Total <= 0 {
			t.Errorf("trace %s: non-positive total %v", b.TraceID, b.Total)
		}
	}
	// The workload moved real bytes: some task must be transfer- or
	// objstore-bound, and tracked delays must match resolved tasks.
	agg := telemetry.Aggregate(bds)
	if agg.Seconds(telemetry.CatTransfer)+agg.Seconds(telemetry.CatObjStore) <= 0 {
		t.Errorf("no transfer/objstore time attributed: %+v", agg.Shares)
	}
	if got := len(svc.Engine.Tracker.DelaysSeconds()); got != len(sizes) {
		t.Errorf("tracker resolved %d tasks, want %d", got, len(sizes))
	}
}

func TestCompareBench(t *testing.T) {
	base := &BenchReport{
		Schema: BenchSchema, Suite: "quick",
		Experiments: []BenchExperiment{
			{Name: "a", P50S: 1.0, P99S: 2.0, CostUSD: 0.01},
			{Name: "b", P50S: 4.0, P99S: 8.0, CostUSD: 0.10},
		},
		FaultMatrix: []BenchFault{
			{Profile: "none", ConvergencePct: 100, P99S: 1.0, DLQ: 0, LagP99S: 1.0, BacklogMax: 1},
			{Profile: "mixed", ConvergencePct: 100, P99S: 20.0, DLQ: 0, LagP99S: 20.0, BacklogMax: 6, SLOAlerts: 2},
		},
	}
	clone := func() *BenchReport {
		var buf bytes.Buffer
		if err := base.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		r, err := ReadBenchReport(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	tol := BenchTolerance{Relative: 0.25}

	if regs := CompareBench(base, clone(), tol); len(regs) != 0 {
		t.Fatalf("identical reports flagged: %v", regs)
	}

	within := clone()
	within.Experiments[0].P50S = 1.2 // +20% < 25% tolerance
	if regs := CompareBench(base, within, tol); len(regs) != 0 {
		t.Fatalf("within-tolerance drift flagged: %v", regs)
	}

	slow := clone()
	slow.Experiments[1].P99S = 11.0 // +37.5%
	regs := CompareBench(base, slow, tol)
	if len(regs) != 1 || !strings.Contains(regs[0], "b: p99") {
		t.Fatalf("p99 regression not flagged: %v", regs)
	}

	missing := clone()
	missing.Experiments = missing.Experiments[:1]
	if regs := CompareBench(base, missing, tol); len(regs) != 1 || !strings.Contains(regs[0], "missing") {
		t.Fatalf("missing experiment not flagged: %v", regs)
	}

	diverged := clone()
	diverged.FaultMatrix[1].ConvergencePct = 95
	diverged.FaultMatrix[1].DLQ = 2
	if regs := CompareBench(base, diverged, tol); len(regs) != 2 {
		t.Fatalf("convergence+DLQ regressions not both flagged: %v", regs)
	}

	// Observability watermarks: a previously quiet profile starting to
	// alert is a hard regression, lag p99 obeys the relative tolerance,
	// and the backlog floor absorbs one-or-two-event jitter.
	alerted := clone()
	alerted.FaultMatrix[0].SLOAlerts = 1
	alerted.FaultMatrix[1].LagP99S = 30.0 // +50%
	regs = CompareBench(base, alerted, tol)
	joined := strings.Join(regs, "\n")
	if len(regs) != 2 || !strings.Contains(joined, "lag p99") || !strings.Contains(joined, "SLO alerts") {
		t.Fatalf("lag/alert regressions not flagged: %v", regs)
	}
	backlog := clone()
	backlog.FaultMatrix[1].BacklogMax = 9 // within 25% + floor 2
	if regs := CompareBench(base, backlog, tol); len(regs) != 0 {
		t.Fatalf("backlog jitter within floor flagged: %v", regs)
	}
	backlog.FaultMatrix[1].BacklogMax = 12
	if regs := CompareBench(base, backlog, tol); len(regs) != 1 || !strings.Contains(regs[0], "backlog max") {
		t.Fatalf("backlog growth not flagged: %v", regs)
	}

	schema := clone()
	schema.Schema = "other/v9"
	if regs := CompareBench(base, schema, tol); len(regs) != 1 || !strings.Contains(regs[0], "schema") {
		t.Fatalf("schema mismatch not flagged: %v", regs)
	}

	// The remaining gate kinds: tracing dying is flagged even though the
	// span count shrank; a crash point that stops converging; the fleet
	// rows' absolute bars hold with or without a baseline, and a shrinking
	// fan-out fabric is a regression.
	kinds := &BenchReport{Schema: BenchSchema, Suite: "quick",
		Experiments: []BenchExperiment{{Name: "a", SpansRetained: 80}},
		CrashSweep:  []BenchCrash{{Point: "after-claim", Converged: true}},
		Fleet:       []BenchFleet{{Name: FleetDay, ConvergencePct: 100, ReplicatedObjects: 1000, QuotaUtilPct: 50}},
	}
	broken := &BenchReport{Schema: BenchSchema, Suite: "quick",
		Experiments: []BenchExperiment{{Name: "a"}},
		CrashSweep:  []BenchCrash{{Point: "after-claim"}},
		Fleet:       []BenchFleet{{Name: FleetDay, ConvergencePct: 100, ReplicatedObjects: 900, QuotaUtilPct: 25, Pending: 3}},
	}
	regs = CompareBench(kinds, broken, tol)
	want := []string{
		"a: spans retained 80 -> 0 (tracing broken?)",
		"crash after-claim: no longer converges after the crash",
		"fleet fleet-day: 3 pending after drain (must be 0)",
		"fleet fleet-day: replicated objects 1000 -> 900",
		"fleet fleet-day: quota utilization 50.0% -> 25.0%",
	}
	if !reflect.DeepEqual(regs, want) {
		t.Fatalf("gate kinds: got %q, want %q", regs, want)
	}
	if bars := FleetBars(broken.Fleet[0]); len(bars) != 1 || bars[0] != want[2] {
		t.Fatalf("FleetBars = %q, want only %q", bars, want[2])
	}

	// Zero-baseline metrics must not trip on absolute-floor-scale noise.
	zero := &BenchReport{Schema: BenchSchema, Suite: "quick",
		Experiments: []BenchExperiment{{Name: "z", P50S: 0, P99S: 0, CostUSD: 0}}}
	drift := &BenchReport{Schema: BenchSchema, Suite: "quick",
		Experiments: []BenchExperiment{{Name: "z", P50S: 0.04, P99S: 0.04, CostUSD: 5e-6}}}
	if regs := CompareBench(zero, drift, tol); len(regs) != 0 {
		t.Fatalf("noise-scale drift over zero baseline flagged: %v", regs)
	}
}
