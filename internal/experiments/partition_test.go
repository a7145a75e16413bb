package experiments

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/telemetry"
)

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
	for _, b := range bds {
		var sum float64
		for _, s := range b.Shares {
			sum += s.Seconds
		}
		if math.Abs(sum-b.TotalSeconds) > 1e-9 {
			t.Errorf("trace %s: category shares sum to %.12fs, root span is %.12fs",
				b.TraceID, sum, b.TotalSeconds)
		}
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
