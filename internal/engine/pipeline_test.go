package engine

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/cloud"
)

// pipelinePair is the high-variance path the hedging tests replicate
// over: Figure 17's setup, where per-instance bandwidth spread creates
// the straggler tails hedged parts exist to cut.
func pipelineFixture(t *testing.T, mutate func(*Rule)) *fixture {
	t.Helper()
	return newFixture(t, func(r *Rule) {
		r.Src, r.Dst = cloud.RegionID("azure:eastus"), cloud.RegionID("gcp:asia-northeast1")
		r.ForceN = 16
		r.ForceLoc = "azure:eastus"
		if mutate != nil {
			mutate(r)
		}
	})
}

// TestHedgedRunsDeterministic: hedging races idle replicators against
// stragglers on real goroutines, so it is the part of the pipeline most
// at risk of nondeterminism. Two identically-seeded runs must produce
// byte-identical metrics.
func TestHedgedRunsDeterministic(t *testing.T) {
	run := func() []byte {
		f := pipelineFixture(t, nil)
		for i := 0; i < 2; i++ {
			f.put(t, "model.bin", 256<<20, uint64(i)+1)
			f.w.Clock.Quiesce()
		}
		if f.w.Metrics.Counter("engine.parts.hedged").Value() == 0 {
			t.Fatal("no part was hedged; the run does not exercise the hedge tail")
		}
		var buf bytes.Buffer
		if err := f.w.Metrics.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("two identically-seeded hedged runs diverge:\n--- a\n%s\n--- b\n%s", a, b)
	}
}

// TestHedgingSafeUnderChaos: with instances crashing mid-part and legs
// degrading, speculative duplicates must stay invisible — every source
// write converges exactly once at the destination, with zero duplicate
// final writes (idempotent part uploads + first-delivery-wins counting).
func TestHedgingSafeUnderChaos(t *testing.T) {
	f := pipelineFixture(t, nil)
	dup := watchDupWrites(t, f.w, f.eng.Rule.Dst, f.eng.Rule.DstBucket)
	f.w.SetChaos(chaos.Profile{
		Name:             "hedge-crashy",
		FnCrashRate:      0.02,
		FnCrashMax:       20 * time.Second,
		NetDegradeRate:   0.10,
		NetDegradeFactor: 4,
	})

	want := map[string]string{}
	for i := 0; i < 6; i++ {
		key := fmt.Sprintf("big-%d", i)
		want[key] = f.put(t, key, 96<<20, uint64(i)+1).ETag
		f.w.Clock.Quiesce()
	}

	f.w.SetChaos(chaos.Profile{}) // audit without injection
	for key, etag := range want {
		obj, err := f.dstObject(t, key)
		if err != nil || obj.ETag != etag {
			t.Fatalf("%s did not converge under chaos with hedging on: %v (dlq %d)",
				key, err, len(f.eng.DLQ()))
		}
	}
	if got := dup.Duplicates(); got != 0 {
		t.Fatalf("%d duplicate final writes with hedging under chaos, want 0", got)
	}
	if f.w.Metrics.Counter("engine.parts.hedged").Value() == 0 {
		t.Fatal("no part was hedged; the test proved nothing")
	}
	if f.w.Metrics.Counter("chaos.injected").Value() == 0 {
		t.Fatal("no faults were actually injected; the test proved nothing")
	}
}

// TestFairDispatchPipelinedNeverHedges: fair dispatch's fixed ranges
// compose with the double-buffered lanes, but leave nothing to hedge —
// every part has exactly one owner by construction.
func TestFairDispatchPipelinedNeverHedges(t *testing.T) {
	var results []TaskResult
	f := pipelineFixture(t, func(r *Rule) {
		r.Scheduling = FairDispatch
	})
	f.eng.OnTaskDone = func(r TaskResult) { results = append(results, r) }
	res := f.put(t, "fair.bin", 128<<20, 3)
	f.w.Clock.Quiesce()

	obj, err := f.dstObject(t, "fair.bin")
	if err != nil || obj.ETag != res.ETag {
		t.Fatalf("fair-dispatch pipelined replication failed: %v", err)
	}
	if got := f.w.Metrics.Counter("engine.parts.hedged").Value(); got != 0 {
		t.Fatalf("engine.parts.hedged = %d under fair dispatch, want 0", got)
	}
	if len(results) != 1 {
		t.Fatalf("got %d task results", len(results))
	}
	total := 0
	for _, st := range results[0].Instances {
		total += st.Chunks
	}
	ps := results[0].Plan.PartSize
	if ps <= 0 {
		ps = f.eng.Rule.PartSize
	}
	if want := int((int64(128<<20) + ps - 1) / ps); total != want {
		t.Fatalf("fair dispatch uploaded %d parts, want exactly %d (no duplicates)", total, want)
	}
}
