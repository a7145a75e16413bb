package engine

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/planner"
	"repro/internal/profiler"
	"repro/internal/telemetry"
	"repro/internal/world"
)

const (
	srcID = cloud.RegionID("aws:us-east-1")
	dstID = cloud.RegionID("azure:eastus")
)

type fixture struct {
	w   *world.World
	eng *Engine
}

// newFixture builds a world, profiles the rule's paths, and wires the
// engine to the source bucket's notifications. It takes testing.TB so
// benchmarks share the setup.
func newFixture(t testing.TB, mutate func(*Rule)) *fixture {
	t.Helper()
	w := world.New()
	rule := Rule{
		Src: srcID, Dst: dstID,
		SrcBucket: "src", DstBucket: "dst",
		SLO: 0, Percentile: 0.99,
	}
	if mutate != nil {
		mutate(&rule)
	}
	if err := w.Region(rule.Src).Obj.CreateBucket(rule.SrcBucket, false); err != nil {
		t.Fatal(err)
	}
	if err := w.Region(rule.Dst).Obj.CreateBucket(rule.DstBucket, false); err != nil {
		t.Fatal(err)
	}
	m := model.New()
	if rule.ForceN == 0 {
		// Forced plans never consult the model; skip profiling for them.
		m = newTestModel(w, rule.Src, rule.Dst)
	}
	eng := New(w, planner.New(m), rule)
	if err := w.Region(rule.Src).Obj.Subscribe(rule.SrcBucket, eng.HandleEvent); err != nil {
		t.Fatal(err)
	}
	return &fixture{w: w, eng: eng}
}

// newTestModel profiles src/dst with reduced effort (tests do not need the
// full 12 rounds).
func newTestModel(w *world.World, src, dst cloud.RegionID) *model.Model {
	p := profiler.New(w)
	p.Rounds = 6
	p.ChunksPerRound = 3
	m := model.New()
	p.FitRuleWithRelays(m, src, dst, nil)
	return m
}

func (f *fixture) put(t testing.TB, key string, size int64, seed uint64) objstore.PutResult {
	t.Helper()
	res, err := f.w.Region(f.eng.Rule.Src).Obj.Put(f.eng.Rule.SrcBucket, key, objstore.BlobOfSize(size, seed))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func (f *fixture) dstObject(t testing.TB, key string) (objstore.Object, error) {
	t.Helper()
	return f.w.Region(f.eng.Rule.Dst).Obj.Get(f.eng.Rule.DstBucket, key)
}

func TestSmallObjectReplicates(t *testing.T) {
	f := newFixture(t, nil)
	res := f.put(t, "doc.txt", 1<<20, 7)
	f.w.Clock.Quiesce()

	obj, err := f.dstObject(t, "doc.txt")
	if err != nil {
		t.Fatalf("destination object missing: %v", err)
	}
	if obj.ETag != res.ETag {
		t.Fatalf("destination ETag %s != source %s", obj.ETag, res.ETag)
	}
	recs := f.eng.Tracker.Records()
	if len(recs) != 1 {
		t.Fatalf("got %d delay records", len(recs))
	}
	d := recs[0].Delay
	if d <= 0 || d > 15*time.Second {
		t.Fatalf("1MB replication delay = %v, want single-digit seconds", d)
	}
	if f.eng.Tracker.PendingCount() != 0 {
		t.Fatal("tracker left pending events")
	}
}

func TestLargeObjectDistributedReplication(t *testing.T) {
	f := newFixture(t, nil)
	var results []TaskResult
	var mu sync.Mutex
	f.eng.OnTaskDone = func(r TaskResult) {
		mu.Lock()
		results = append(results, r)
		mu.Unlock()
	}
	res := f.put(t, "model.bin", 256<<20, 9)
	f.w.Clock.Quiesce()

	obj, err := f.dstObject(t, "model.bin")
	if err != nil {
		t.Fatalf("destination object missing: %v", err)
	}
	if obj.ETag != res.ETag {
		t.Fatal("distributed assembly corrupted the object")
	}
	if len(results) != 1 {
		t.Fatalf("got %d task results", len(results))
	}
	r := results[0]
	if r.Plan.N < 2 {
		t.Fatalf("256MB fastest plan should be parallel, got %v", r.Plan)
	}
	if len(r.Instances) != r.Plan.N {
		t.Fatalf("%d instance stats for plan n=%d", len(r.Instances), r.Plan.N)
	}
	total := 0
	for _, st := range r.Instances {
		total += st.Chunks
	}
	ps := r.Plan.PartSize
	if ps <= 0 {
		ps = f.eng.Rule.PartSize
	}
	want := int((int64(256<<20) + ps - 1) / ps)
	hedged := int(f.w.Metrics.Counter("engine.parts.hedged").Value())
	// A hedged part is uploaded by both its owner and the hedger, except
	// when one of the duplicates loses the race against MPU completion
	// and abandons: between want and want+hedged uploads in total.
	if total < want || total > want+hedged {
		t.Fatalf("instances replicated %d chunks, want %d parts (+ up to %d hedged)", total, want, hedged)
	}
}

func TestPartPoolBalancesBetterThanFair(t *testing.T) {
	// The paper's Figure 17 setup: 1 GB from Azure eastus to GCP
	// asia-northeast1 with 32 instances on the high-variance Azure side.
	// Averaged over a few runs, the pool's slowest instance must finish
	// sooner than fair dispatch's.
	slowest := func(mode SchedulingMode) time.Duration {
		f := newFixture(t, func(r *Rule) {
			r.Src, r.Dst = cloud.RegionID("azure:eastus"), cloud.RegionID("gcp:asia-northeast1")
			r.Scheduling = mode
			r.ForceN = 32
			r.ForceLoc = "azure:eastus"
		})
		var results []TaskResult
		var mu sync.Mutex
		f.eng.OnTaskDone = func(r TaskResult) { mu.Lock(); results = append(results, r); mu.Unlock() }
		for i := 0; i < 3; i++ {
			f.put(t, fmt.Sprintf("big-%d.bin", i), 1<<30, uint64(20+i))
			f.w.Clock.Quiesce()
		}
		var total time.Duration
		for _, r := range results {
			var slow time.Duration
			for _, st := range r.Instances {
				if st.Busy > slow {
					slow = st.Busy
				}
			}
			total += slow
		}
		return total / time.Duration(len(results))
	}
	poolSlow := slowest(PartPool)
	fairSlow := slowest(FairDispatch)
	if poolSlow >= fairSlow {
		t.Fatalf("pool slowest %v should beat fair slowest %v", poolSlow, fairSlow)
	}
}

func TestConcurrentVersionsConverge(t *testing.T) {
	f := newFixture(t, nil)
	// Two rapid PUTs: the lock serializes replication; the final
	// destination state must be the latest version (Figure 13's race).
	f.put(t, "hot", 1<<20, 1)
	last := f.put(t, "hot", 1<<20, 2)
	f.w.Clock.Quiesce()

	obj, err := f.dstObject(t, "hot")
	if err != nil {
		t.Fatal(err)
	}
	if obj.ETag != last.ETag {
		t.Fatalf("destination ETag %s is not the latest %s", obj.ETag, last.ETag)
	}
	// Both source versions must be resolved (v1 by v2's replication).
	if got := len(f.eng.Tracker.Records()); got != 2 {
		t.Fatalf("resolved %d events, want 2", got)
	}
	if f.eng.Tracker.PendingCount() != 0 {
		t.Fatal("pending events remain")
	}
}

func TestMidFlightUpdateAbortsAndRetries(t *testing.T) {
	f := newFixture(t, nil)
	var results []TaskResult
	var mu sync.Mutex
	f.eng.OnTaskDone = func(r TaskResult) { mu.Lock(); results = append(results, r); mu.Unlock() }

	f.put(t, "churn", 256<<20, 1)
	// Overwrite while the first distributed replication is likely in
	// flight (~a second in): optimistic validation must abort and the
	// retry must deliver the new version.
	var last objstore.PutResult
	f.w.Clock.Delay(1500*time.Millisecond, func() {
		res, err := f.w.Region(srcID).Obj.Put("src", "churn", objstore.BlobOfSize(256<<20, 2))
		if err != nil {
			t.Error(err)
		}
		mu.Lock()
		last = res
		mu.Unlock()
	})
	f.w.Clock.Quiesce()

	obj, err := f.dstObject(t, "churn")
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if obj.ETag != last.ETag {
		t.Fatalf("destination has %s, want latest %s", obj.ETag, last.ETag)
	}
	if obj.ETag != obj.Blob.ETag() {
		t.Fatal("destination object assembled from inconsistent parts")
	}
	if f.eng.Tracker.PendingCount() != 0 {
		t.Fatal("pending events remain")
	}
}

func TestDeleteReplicates(t *testing.T) {
	f := newFixture(t, nil)
	f.put(t, "temp", 1<<20, 5)
	f.w.Clock.Quiesce()
	if _, err := f.dstObject(t, "temp"); err != nil {
		t.Fatalf("object not replicated before delete: %v", err)
	}
	if err := f.w.Region(srcID).Obj.Delete("src", "temp"); err != nil {
		t.Fatal(err)
	}
	f.w.Clock.Quiesce()
	if _, err := f.dstObject(t, "temp"); err == nil {
		t.Fatal("destination object survived replicated delete")
	}
	if f.eng.Tracker.PendingCount() != 0 {
		t.Fatal("pending events remain")
	}
}

func TestSLOBudgetShrinksParallelism(t *testing.T) {
	run := func(slo time.Duration) planner.Plan {
		f := newFixture(t, func(r *Rule) { r.SLO = slo })
		var plan planner.Plan
		var mu sync.Mutex
		f.eng.OnTaskDone = func(r TaskResult) { mu.Lock(); plan = r.Plan; mu.Unlock() }
		f.put(t, "obj", 256<<20, 3)
		f.w.Clock.Quiesce()
		return plan
	}
	fastest := run(0)
	relaxed := run(2 * time.Minute)
	if relaxed.N >= fastest.N {
		t.Fatalf("relaxed SLO used n=%d, fastest used n=%d; expected fewer functions", relaxed.N, fastest.N)
	}
}

func TestChangelogHookShortCircuits(t *testing.T) {
	f := newFixture(t, nil)
	var hooked []string
	f.eng.TryChangelog = func(_ *telemetry.Span, key, etag string) bool {
		hooked = append(hooked, key)
		return true // pretend the changelog replicated it
	}
	f.put(t, "copied", 64<<20, 6)
	f.w.Clock.Quiesce()
	if len(hooked) != 1 || hooked[0] != "copied" {
		t.Fatalf("changelog hook calls = %v", hooked)
	}
	// No data was moved: destination must not have the object, but the
	// event must be resolved (the hook claimed success).
	if _, err := f.dstObject(t, "copied"); err == nil {
		t.Fatal("hook claimed the transfer; engine should not have copied data")
	}
	if f.eng.Tracker.PendingCount() != 0 {
		t.Fatal("pending events remain")
	}
	recs := f.eng.Tracker.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
}

func TestNoEgressForChangelogPath(t *testing.T) {
	f := newFixture(t, nil)
	f.eng.TryChangelog = func(_ *telemetry.Span, key, etag string) bool { return true }
	before := f.w.Meter.Item("net:egress")
	f.put(t, "x", 128<<20, 2)
	f.w.Clock.Quiesce()
	if after := f.w.Meter.Item("net:egress"); after != before {
		t.Fatalf("changelog path moved %v dollars of egress", after-before)
	}
}

func TestTrackerResolveOrdering(t *testing.T) {
	tr := NewTracker()
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	tr.OnSource(objstore.Event{Key: "k", Seq: 1, Time: base})
	tr.OnSource(objstore.Event{Key: "k", Seq: 2, Time: base.Add(time.Second)})
	tr.OnSource(objstore.Event{Key: "k", Seq: 5, Time: base.Add(2 * time.Second)})
	tr.Resolve("k", 2, base.Add(3*time.Second))
	if got := len(tr.Records()); got != 2 {
		t.Fatalf("resolved %d, want 2", got)
	}
	if tr.PendingCount() != 1 {
		t.Fatalf("pending = %d, want 1 (seq 5)", tr.PendingCount())
	}
	tr.Resolve("k", 10, base.Add(4*time.Second))
	if tr.PendingCount() != 0 {
		t.Fatal("seq 5 not resolved")
	}
	recs := tr.Records()
	if recs[0].Delay != 3*time.Second || recs[1].Delay != 2*time.Second {
		t.Fatalf("delays = %v, %v", recs[0].Delay, recs[1].Delay)
	}
	// Other keys are unaffected.
	tr.OnSource(objstore.Event{Key: "other", Seq: 3, Time: base})
	tr.Resolve("k", 99, base)
	if tr.PendingCount() != 1 {
		t.Fatal("resolve leaked across keys")
	}
}

func TestLockPendingRecorded(t *testing.T) {
	w := world.New()
	l := newReplLock(w.Region(srcID).KV, "test-rule", 0, w.Clock.Now)
	tok1, ok, _ := l.acquire("k", "e1", 1)
	if !ok {
		t.Fatal("first acquire failed")
	}
	if _, ok, _ := l.acquire("k", "e2", 2); ok {
		t.Fatal("second acquire should fail")
	}
	if _, ok, _ := l.acquire("k", "e3", 3); ok {
		t.Fatal("third acquire should fail")
	}
	etag, seq, retrigger := l.release("k", tok1, 1)
	if !retrigger || etag != "e3" || seq != 3 {
		t.Fatalf("release = (%s, %d, %v), want (e3, 3, true)", etag, seq, retrigger)
	}
	// Lock is free again.
	tok2, ok, _ := l.acquire("k", "e3", 3)
	if !ok {
		t.Fatal("re-acquire after release failed")
	}
	if _, _, retrigger := l.release("k", tok2, 3); retrigger {
		t.Fatal("no newer version pending; retrigger must be false")
	}
}

func TestRuleDefaults(t *testing.T) {
	r := Rule{}.WithDefaults()
	if r.Percentile != 0.99 || r.PartSize != 8<<20 || maxRetries != 3 {
		t.Fatalf("defaults = %+v", r)
	}
	if PartPool.String() != "part-pool" || FairDispatch.String() != "fair" {
		t.Fatal("scheduling mode strings")
	}
}

// TestRuleDefaultsIdempotent: core.Deploy and engine.New both apply
// WithDefaults, so a second application must change nothing — whatever
// each field started as. A "disabled" value that a first pass maps onto
// "unset" would silently re-enable on the second.
func TestRuleDefaultsIdempotent(t *testing.T) {
	for name, r := range map[string]Rule{
		"zero":    {},
		"default": Rule{}.WithDefaults(),
		"negative": {
			SLO: -1, Percentile: -1, PartSize: -1, Scheduling: -1, ClaimBatch: -1, HedgeBudget: -1,
			RedriveMax: -1, LockLease: -1, ForceN: -1,
		},
		"custom": {
			Src: "aws:us-east-1", Dst: "azure:eastus", SrcBucket: "s", DstBucket: "d",
			SLO: time.Minute, Percentile: 0.9, PartSize: 1 << 20, Scheduling: FairDispatch,
			DisableDoubleBuffer: true, ClaimBatch: 3, HedgeBudget: 2, DisableAdaptiveParts: true,
			RedriveMax: 4, LockLease: time.Minute, KeyPrefix: "p/", AcceptOrigins: []string{"areplica/x"},
			ForceN: 4, ForceLoc: "aws:us-east-1",
		},
	} {
		once := r.WithDefaults()
		if twice := once.WithDefaults(); !reflect.DeepEqual(once, twice) {
			t.Errorf("%s: second WithDefaults changed the rule:\n  once  %+v\n  twice %+v", name, once, twice)
		}
	}
	if r := (Rule{RedriveMax: -1, HedgeBudget: -1}).WithDefaults(); r.RedriveMax >= 0 || r.HedgeBudget >= 0 {
		t.Errorf("disabled redrive/hedging re-enabled: RedriveMax %d, HedgeBudget %d", r.RedriveMax, r.HedgeBudget)
	}
}

func TestDeleteDuringHeldReplicationConverges(t *testing.T) {
	// Regression: a DELETE arriving while a PUT replication holds the
	// object's lock loses the lock race; the holder must re-drive the
	// delete on release instead of dropping it.
	f := newFixture(t, nil)
	f.put(t, "victim", 512<<20, 1) // slow enough to still be in flight
	f.w.Clock.Delay(1200*time.Millisecond, func() {
		if err := f.w.Region(srcID).Obj.Delete("src", "victim"); err != nil {
			t.Error(err)
		}
	})
	f.w.Clock.Quiesce()
	if _, err := f.dstObject(t, "victim"); err == nil {
		t.Fatal("destination still holds a deleted object")
	}
	if got := f.eng.Tracker.PendingCount(); got != 0 {
		t.Fatalf("%d events never resolved", got)
	}
	// The delete's delay must be bounded (not deferred to a later write).
	for _, r := range f.eng.Tracker.Records() {
		if r.Delay > 30*time.Second {
			t.Fatalf("record resolved after %v", r.Delay)
		}
	}
}

func TestKeyPrefixScoping(t *testing.T) {
	f := newFixture(t, func(r *Rule) { r.KeyPrefix = "logs/" })
	f.put(t, "logs/a.bin", 1<<20, 1)
	f.put(t, "images/b.bin", 1<<20, 2)
	f.w.Clock.Quiesce()
	if _, err := f.dstObject(t, "logs/a.bin"); err != nil {
		t.Fatalf("in-scope key not replicated: %v", err)
	}
	if _, err := f.dstObject(t, "images/b.bin"); err == nil {
		t.Fatal("out-of-scope key replicated")
	}
	// Out-of-scope events must not linger in the tracker.
	if got := f.eng.Tracker.PendingCount(); got != 0 {
		t.Fatalf("pending = %d", got)
	}
	if got := len(f.eng.Tracker.Records()); got != 1 {
		t.Fatalf("records = %d, want 1", got)
	}
}

func TestPartBoundaryEdgeCases(t *testing.T) {
	// Objects exactly at, just under, and just over part multiples must
	// all assemble byte-correctly.
	f := newFixture(t, func(r *Rule) {
		r.ForceN = 4
		r.ForceLoc = srcID
	})
	part := f.eng.Rule.PartSize
	for i, size := range []int64{part, 4 * part, 4*part - 1, 4*part + 1, part + 1, 3*part + 7} {
		key := fmt.Sprintf("edge-%d", i)
		res := f.put(t, key, size, uint64(i)+1)
		f.w.Clock.Quiesce()
		obj, err := f.dstObject(t, key)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if obj.ETag != res.ETag || obj.Size != size {
			t.Fatalf("size %d: replica mismatch", size)
		}
	}
}

func TestTinyObjectWithForcedParallelism(t *testing.T) {
	// More replicators than parts: extra instances must drain cleanly.
	f := newFixture(t, func(r *Rule) {
		r.ForceN = 16
		r.ForceLoc = srcID
	})
	res := f.put(t, "tiny", 1<<20, 1) // one part, sixteen replicators
	f.w.Clock.Quiesce()
	obj, err := f.dstObject(t, "tiny")
	if err != nil || obj.ETag != res.ETag {
		t.Fatalf("tiny object failed: %v", err)
	}
	if f.eng.Tracker.PendingCount() != 0 {
		t.Fatal("pending events")
	}
}

func TestTinyPartSize(t *testing.T) {
	// A deliberately small part size exercises long claim chains.
	f := newFixture(t, func(r *Rule) {
		r.ForceN = 8
		r.ForceLoc = srcID
		r.PartSize = 1 << 20
	})
	res := f.put(t, "many-parts", 64<<20, 2) // 64 parts over 8 instances
	f.w.Clock.Quiesce()
	obj, err := f.dstObject(t, "many-parts")
	if err != nil || obj.ETag != res.ETag {
		t.Fatalf("small-part replication failed: %v", err)
	}
}

func TestFairDispatchWithFewerPartsThanInstances(t *testing.T) {
	f := newFixture(t, func(r *Rule) {
		r.ForceN = 16
		r.ForceLoc = srcID
		r.Scheduling = FairDispatch
	})
	res := f.put(t, "sparse", 24<<20, 3) // 3 parts over 16 instances
	f.w.Clock.Quiesce()
	obj, err := f.dstObject(t, "sparse")
	if err != nil || obj.ETag != res.ETag {
		t.Fatalf("sparse fair dispatch failed: %v", err)
	}
}

func TestLockLeaseExpiresAfterCrash(t *testing.T) {
	// A holder that never releases (crashed orchestrator) must not wedge
	// the key forever: the lock's KV lease expires and a later version
	// acquires cleanly.
	w := world.New()
	l := newReplLock(w.Region(srcID).KV, "lease-rule", 0, w.Clock.Now)
	tok1, ok, _ := l.acquire("k", "e1", 1)
	if !ok {
		t.Fatal("first acquire failed")
	}
	// Crash: no release. Before the lease expires, acquires still fail.
	w.Clock.Sleep(time.Minute)
	if _, ok, _ := l.acquire("k", "e2", 2); ok {
		t.Fatal("lease should still be held")
	}
	w.Clock.Sleep(20 * time.Minute) // past the 15-minute lease
	tok2, ok, _ := l.acquire("k", "e3", 3)
	if !ok {
		t.Fatal("expired lease should be acquirable")
	}
	// The crashed holder's late release is fenced by its token: it must
	// not drop the second acquirer's lock or observe its pending state.
	if _, ok, _ := l.acquire("k", "e4", 4); ok {
		t.Fatal("lock should be held by the second acquirer")
	}
	if _, _, retrigger := l.release("k", tok1, 1); retrigger {
		t.Fatal("zombie release must be a no-op")
	}
	if _, ok, _ := l.acquire("k", "e5", 5); ok {
		t.Fatal("zombie release must not free the new holder's lock")
	}
	// The live holder's own release still works and surfaces the pending
	// versions recorded while it held the lock.
	etag, seq, retrigger := l.release("k", tok2, 3)
	if !retrigger || etag != "e5" || seq != 5 {
		t.Fatalf("release = (%s, %d, %v), want (e5, 5, true)", etag, seq, retrigger)
	}
}

func TestLockLeaseConfigurable(t *testing.T) {
	// A short LockLease frees a crashed holder's key on that cadence.
	w := world.New()
	l := newReplLock(w.Region(srcID).KV, "short-lease", 20*time.Second, w.Clock.Now)
	if _, ok, _ := l.acquire("k", "e1", 1); !ok {
		t.Fatal("first acquire failed")
	}
	w.Clock.Sleep(10 * time.Second)
	if _, ok, _ := l.acquire("k", "e2", 2); ok {
		t.Fatal("lease should still be held at 10s")
	}
	w.Clock.Sleep(15 * time.Second) // 25s > 20s lease
	if _, ok, _ := l.acquire("k", "e3", 3); !ok {
		t.Fatal("20s lease should have expired")
	}
}

func TestBackfillSyncsPreexistingObjects(t *testing.T) {
	w := world.New()
	rule := Rule{Src: srcID, Dst: dstID, SrcBucket: "src", DstBucket: "dst"}
	if err := w.Region(srcID).Obj.CreateBucket("src", false); err != nil {
		t.Fatal(err)
	}
	if err := w.Region(dstID).Obj.CreateBucket("dst", false); err != nil {
		t.Fatal(err)
	}
	// Objects exist BEFORE the rule is deployed.
	want := map[string]string{}
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("old-%d", i)
		res, err := w.Region(srcID).Obj.Put("src", key, objstore.BlobOfSize(2<<20, uint64(i)+1))
		if err != nil {
			t.Fatal(err)
		}
		want[key] = res.ETag
	}
	w.Clock.Quiesce() // notifications fire into the void (no subscriber yet)

	m := newTestModel(w, srcID, dstID)
	eng := New(w, planner.New(m), rule)
	if err := w.Region(srcID).Obj.Subscribe("src", eng.HandleEvent); err != nil {
		t.Fatal(err)
	}
	n, err := eng.Backfill()
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("scheduled %d, want 5", n)
	}
	w.Clock.Quiesce()
	for key, etag := range want {
		obj, err := w.Region(dstID).Obj.Get("dst", key)
		if err != nil || obj.ETag != etag {
			t.Fatalf("%s not backfilled: %v", key, err)
		}
	}
	// Idempotent: a second backfill finds everything converged.
	n, err = eng.Backfill()
	if err != nil || n != 0 {
		t.Fatalf("second backfill scheduled %d (%v), want 0", n, err)
	}
	if eng.Tracker.PendingCount() != 0 {
		t.Fatal("pending events remain")
	}
}

func TestBackfillRespectsPrefixAndStaleness(t *testing.T) {
	w := world.New()
	rule := Rule{Src: srcID, Dst: dstID, SrcBucket: "src", DstBucket: "dst", KeyPrefix: "keep/"}
	w.Region(srcID).Obj.CreateBucket("src", false)
	w.Region(dstID).Obj.CreateBucket("dst", false)
	res, _ := w.Region(srcID).Obj.Put("src", "keep/a", objstore.BlobOfSize(1<<20, 1))
	w.Region(srcID).Obj.Put("src", "skip/b", objstore.BlobOfSize(1<<20, 2))
	// A stale copy of keep/a already sits at the destination.
	w.Region(dstID).Obj.Put("dst", "keep/a", objstore.BlobOfSize(1<<20, 99))
	w.Clock.Quiesce()

	m := newTestModel(w, srcID, dstID)
	eng := New(w, planner.New(m), rule)
	n, err := eng.Backfill()
	if err != nil || n != 1 {
		t.Fatalf("scheduled %d (%v), want 1 (stale keep/a only)", n, err)
	}
	w.Clock.Quiesce()
	obj, err := w.Region(dstID).Obj.Get("dst", "keep/a")
	if err != nil || obj.ETag != res.ETag {
		t.Fatalf("stale object not refreshed: %v", err)
	}
	if _, err := w.Region(dstID).Obj.Get("dst", "skip/b"); err == nil {
		t.Fatal("out-of-prefix object backfilled")
	}
}
