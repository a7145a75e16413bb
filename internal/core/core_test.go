package core

import (
	"testing"
	"time"

	"repro/internal/changelog"
	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/world"
)

const (
	src = cloud.RegionID("aws:us-east-1")
	dst = cloud.RegionID("azure:eastus")
)

func deployed(t *testing.T, opts Options) (*world.World, *Service) {
	t.Helper()
	w := world.New()
	if err := w.Region(src).Obj.CreateBucket("s", false); err != nil {
		t.Fatal(err)
	}
	if err := w.Region(dst).Obj.CreateBucket("d", false); err != nil {
		t.Fatal(err)
	}
	if opts.Rule.Src == "" {
		opts.Rule = engine.Rule{Src: src, Dst: dst, SrcBucket: "s", DstBucket: "d"}
	}
	if opts.ProfileRounds == 0 {
		opts.ProfileRounds = 6
	}
	svc, err := Deploy(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	return w, svc
}

func TestDeployWiresEverything(t *testing.T) {
	w, svc := deployed(t, Options{})
	if svc.Model == nil || svc.Planner == nil || svc.Engine == nil || svc.Logger == nil {
		t.Fatal("components missing")
	}
	// Profiled: the model answers for this rule.
	if _, err := svc.Model.ReplTime(src, dst, src, 1<<20, 1, true); err != nil {
		t.Fatalf("model unprofiled: %v", err)
	}
	// And events flow end to end.
	res, err := w.Region(src).Obj.Put("s", "k", objstore.BlobOfSize(1<<20, 1))
	if err != nil {
		t.Fatal(err)
	}
	w.Clock.Quiesce()
	got, err := w.Region(dst).Obj.Head("d", "k")
	if err != nil || got.ETag != res.ETag {
		t.Fatalf("replication broken: %v", err)
	}
	// The logger observed the task.
	if svc.Logger.Stats().Observed != 1 {
		t.Fatal("logger did not observe the task")
	}
}

func TestDeployRejectsBadConfigs(t *testing.T) {
	w := world.New()
	if _, err := Deploy(w, Options{Rule: engine.Rule{Src: src, Dst: src}}); err == nil {
		t.Error("same-region rule accepted")
	}
	if _, err := Deploy(w, Options{
		Rule:           engine.Rule{Src: src, Dst: dst, SrcBucket: "s", DstBucket: "d"},
		EnableBatching: true, // no SLO
	}); err == nil {
		t.Error("batching without SLO accepted")
	}
	if _, err := Deploy(w, Options{
		Rule: engine.Rule{Src: src, Dst: dst, SrcBucket: "missing", DstBucket: "d", ForceN: 1},
	}); err == nil {
		t.Error("missing bucket accepted")
	}
}

func TestForcedPlanSkipsProfiling(t *testing.T) {
	w := world.New()
	w.Region(src).Obj.CreateBucket("s", false)
	w.Region(dst).Obj.CreateBucket("d", false)
	before := w.Clock.Now()
	if _, err := Deploy(w, Options{
		Rule: engine.Rule{Src: src, Dst: dst, SrcBucket: "s", DstBucket: "d", ForceN: 4},
	}); err != nil {
		t.Fatal(err)
	}
	if !w.Clock.Now().Equal(before) {
		t.Fatal("forced-plan deployment should not spend time profiling")
	}
}

func TestChangelogRequiresOptIn(t *testing.T) {
	_, svc := deployed(t, Options{})
	err := svc.RegisterChangelog(changelog.Log{Key: "k", ETag: "e", Op: changelog.OpCopy,
		Sources: []changelog.Source{{Key: "a", ETag: "ea"}}})
	if err == nil {
		t.Fatal("changelog registration without opt-in should fail")
	}
}

func TestSharedModelReused(t *testing.T) {
	w := world.New()
	m := model.New()
	w.Region(src).Obj.CreateBucket("s1", false)
	w.Region(src).Obj.CreateBucket("s2", false)
	w.Region(dst).Obj.CreateBucket("d1", false)
	w.Region(dst).Obj.CreateBucket("d2", false)
	if _, err := Deploy(w, Options{Model: m, ProfileRounds: 6,
		Rule: engine.Rule{Src: src, Dst: dst, SrcBucket: "s1", DstBucket: "d1"}}); err != nil {
		t.Fatal(err)
	}
	t1 := w.Clock.Now()
	if _, err := Deploy(w, Options{Model: m, ProfileRounds: 6,
		Rule: engine.Rule{Src: src, Dst: dst, SrcBucket: "s2", DstBucket: "d2"}}); err != nil {
		t.Fatal(err)
	}
	if !w.Clock.Now().Equal(t1) {
		t.Fatal("second deployment with a shared model should not re-profile the same pair")
	}
}

func TestBatchedServiceMeetsSLO(t *testing.T) {
	w, svc := deployed(t, Options{
		Rule:           engine.Rule{Src: src, Dst: dst, SrcBucket: "s", DstBucket: "d", SLO: 30 * time.Second},
		EnableBatching: true,
		ProfileRounds:  6,
	})
	if svc.Batcher == nil {
		t.Fatal("batcher missing")
	}
	for i := 0; i < 6; i++ {
		if _, err := w.Region(src).Obj.Put("s", "hot", objstore.BlobOfSize(8<<20, uint64(i)+1)); err != nil {
			t.Fatal(err)
		}
		w.Clock.Sleep(2 * time.Second)
	}
	w.Clock.Quiesce()
	recs := svc.Engine.Tracker.Records()
	if len(recs) != 6 {
		t.Fatalf("resolved %d of 6", len(recs))
	}
	for _, r := range recs {
		if r.Delay > 30*time.Second {
			t.Fatalf("SLO miss: %v", r.Delay)
		}
	}
	if st := svc.Batcher.Stats(); st.Dispatched >= st.Submitted {
		t.Fatalf("no coalescing: %+v", st)
	}
}

// TestDeployKeepsRedriveDisabled: Deploy and engine.New both fill the
// rule's defaults, so "automatic redrive disabled" must survive two
// applications — a failing event parks in the DLQ at once, never
// re-enqueued.
func TestDeployKeepsRedriveDisabled(t *testing.T) {
	w, svc := deployed(t, Options{Rule: engine.Rule{
		Src: src, Dst: dst, SrcBucket: "s", DstBucket: "d", RedriveMax: -1,
	}})
	down := chaos.Profile{Name: "dst-down", ObjFailRate: 1}
	w.Region(dst).Obj.SetChaos(chaos.NewInjector(w.Clock, down, w.Metrics))
	if _, err := w.Region(src).Obj.Put("s", "stuck", objstore.BlobOfSize(1<<20, 1)); err != nil {
		t.Fatal(err)
	}
	w.Clock.Quiesce()

	dlq := svc.Engine.DLQ()
	if len(dlq) != 1 || dlq[0].Key != "stuck" {
		t.Fatalf("dlq = %+v, want the stuck event parked", dlq)
	}
	if n := w.Metrics.Counter("engine.dlq.redriven").Value(); n != 0 {
		t.Fatalf("%d automatic redrives with RedriveMax -1, want 0", n)
	}
}
