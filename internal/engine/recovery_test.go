package engine

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/kvstore"
	"repro/internal/objstore"
	"repro/internal/world"
)

// --- part-pool lease/fencing semantics -------------------------------------

func poolKV(t *testing.T) (*world.World, *kvstore.Store) {
	t.Helper()
	w := world.New()
	return w, w.Region(srcID).KV
}

func TestPoolClaimFlushLifecycle(t *testing.T) {
	w, kv := poolKV(t)
	p := newPool(kv, "task-1", 6)
	p.create("etag-1")

	idxs, rem, fenced := p.claim(4, "inst-a", w.Clock.Now())
	if fenced || len(idxs) != 4 || rem != 2 {
		t.Fatalf("claim = (%v, %d, %v), want 4 parts with 2 remaining", idxs, rem, fenced)
	}
	if done, closed, fenced := p.flush(idxs); fenced || closed || done != 4 {
		t.Fatalf("flush = (%d, %v, %v), want done 4 still open", done, closed, fenced)
	}
	// Duplicate flush (a hedge landing twice) adds nothing.
	if done, closed, _ := p.flush(idxs[:2]); closed || done != 4 {
		t.Fatalf("duplicate flush moved done to %d (closed %v), want idempotent 4", done, closed)
	}
	idxs, rem, _ = p.claim(4, "inst-a", w.Clock.Now())
	if len(idxs) != 2 || rem != 0 {
		t.Fatalf("tail claim = (%v, %d), want the last 2 parts", idxs, rem)
	}
	done, closed, fenced := p.flush(idxs)
	if fenced || !closed || done != 6 {
		t.Fatalf("final flush = (%d, %v, %v), want closed at 6", done, closed, fenced)
	}
	// Only the update that crosses the total reports closed.
	if _, closed, _ := p.flush(idxs); closed {
		t.Fatal("re-flush reported closed again; completion would run twice")
	}
}

// TestPoolZombieWriterFenced is the zombie-writer scenario: a replicator
// whose lease expired keeps executing and reports its part after the pool
// was re-attached (epoch bumped) and the part re-issued. The stale-epoch
// flush must not double-count — the part's new owner is the one that
// counts it — and the final completion must happen exactly once.
func TestPoolZombieWriterFenced(t *testing.T) {
	w, kv := poolKV(t)
	zombie := newPool(kv, "task-z", 2)
	zombie.create("etag-z")
	idxs, _, _ := zombie.claim(2, "inst-old", w.Clock.Now())
	if len(idxs) != 2 {
		t.Fatalf("claimed %v, want both parts", idxs)
	}

	// The task resumes: attach bumps the epoch and reclaims the two
	// claimed-but-uncounted parts from the crashed/stalled instance.
	fresh := newPool(kv, "task-z", 2)
	bitmap, done, reclaimed, ok := fresh.attach()
	if !ok || bitmap != "00" || done != 0 || reclaimed != 2 {
		t.Fatalf("attach = (%q, %d, %d, %v), want both parts reclaimed", bitmap, done, reclaimed, ok)
	}

	// The zombie wakes up and reports both parts under the old epoch.
	if done, closed, fenced := zombie.flush(idxs); !fenced || closed || done != 0 {
		t.Fatalf("zombie flush = (%d, %v, %v), want fenced with no effect", done, closed, fenced)
	}
	if _, _, fenced := zombie.claim(1, "inst-old", w.Clock.Now()); !fenced {
		t.Fatal("zombie claim under the stale epoch was not fenced")
	}

	// The new epoch redoes the parts; its flush is the only completion.
	idxs, _, _ = fresh.claim(2, "inst-new", w.Clock.Now())
	done, closed, fenced := fresh.flush(idxs)
	if fenced || !closed || done != 2 {
		t.Fatalf("new-epoch flush = (%d, %v, %v), want sole completion at 2", done, closed, fenced)
	}
}

// TestPoolReapExpiredLeases: the janitor returns only lapsed claims to the
// pool — live leases keep their parts.
func TestPoolReapExpiredLeases(t *testing.T) {
	w, kv := poolKV(t)
	p := newPool(kv, "task-r", 4)
	p.create("etag-r")
	old, _, _ := p.claim(2, "inst-old", w.Clock.Now())
	w.Clock.Sleep(poolLease + time.Second) // old leases lapse
	live, _, _ := p.claim(1, "inst-live", w.Clock.Now())

	if n := p.reap(w.Clock.Now()); n != int64(len(old)) {
		t.Fatalf("reap returned %d parts, want the %d expired ones", n, len(old))
	}
	// The reclaimed parts come back out of the pool before the cursor; the
	// live claim's part stays owned.
	idxs, rem, _ := p.claim(4, "inst-live", w.Clock.Now())
	if len(idxs) != 3 || rem != 0 {
		t.Fatalf("post-reap claim = (%v, %d), want the 2 reclaimed + 1 fresh part", idxs, rem)
	}
	for _, idx := range idxs {
		for _, l := range live {
			if idx == l {
				t.Fatalf("reap returned live-leased part %d to the pool", idx)
			}
		}
	}
}

// TestPoolClaimFlushAllocsIndependentOfOutstandingLeases: a claim+flush
// round touches four parts, so it must allocate the same with 64 owners
// holding four leases each on the record as with none.
func TestPoolClaimFlushAllocsIndependentOfOutstandingLeases(t *testing.T) {
	const owners, batch = 64, 4
	round := func(outstanding int) float64 {
		w, kv := poolKV(t)
		p := newPool(kv, "task-a", int64(outstanding+101*batch))
		p.create("etag-a")
		for o := 0; o < outstanding/batch; o++ {
			p.claim(batch, "inst-"+strconv.Itoa(o), w.Clock.Now())
		}
		return testing.AllocsPerRun(100, func() {
			idxs, _, _ := p.claim(batch, "inst-x", w.Clock.Now())
			if _, _, fenced := p.flush(idxs); fenced || len(idxs) != batch {
				t.Fatalf("round claimed %v (fenced %v)", idxs, fenced)
			}
		})
	}
	bare, loaded := round(0), round(owners*batch)
	if loaded > bare+1 { // the longer bitmap may cross a size class, not grow with leases
		t.Errorf("claim+flush allocates %v with %d outstanding leases, %v with none", loaded, owners*batch, bare)
	}
	if loaded > 24 {
		t.Errorf("claim+flush of %d parts allocates %v", batch, loaded)
	}
}

// --- crash recovery through the engine -------------------------------------

// distRule pins the distributed path to the crash sweep's deterministic
// shape: four replicators at the source, fixed 8MB parts, per-part claims.
func distRule(r *Rule) {
	r.ForceN = 4
	r.ForceLoc = srcID
	r.PartSize = 8 << 20
	r.DisableAdaptiveParts = true
	r.DisableDoubleBuffer = true
	r.ClaimBatch = 1
	r.HedgeBudget = -1
}

// TestCrashedOrchestratorRecoversViaLockWatchdog: with the default
// 15-minute lock lease, the 30s redrive of a crashed orchestrator's event
// finds the lock still held and can only record itself as pending — state
// that died with the crashed holder before this PR. The contender's
// recovery probe must fire once the lease expires and drive the key to
// convergence.
func TestCrashedOrchestratorRecoversViaLockWatchdog(t *testing.T) {
	f := newFixture(t, distRule)
	f.w.SetChaos(chaos.Profile{Name: "crash-point", CrashPoint: "after-checkpoint"})
	res := f.put(t, "big.bin", 64<<20, 3)
	f.w.Clock.Quiesce()
	f.w.SetChaos(chaos.Profile{})

	obj, err := f.dstObject(t, "big.bin")
	if err != nil || obj.ETag != res.ETag {
		t.Fatalf("destination did not converge after orchestrator crash: %v", err)
	}
	if n := f.w.Metrics.Counter("engine.recovery.locks_recovered").Value(); n != 1 {
		t.Fatalf("lock watchdog recovered %d events, want exactly 1", n)
	}
	if n := f.w.Metrics.Counter("engine.recovery.resumed").Value(); n != 1 {
		t.Fatalf("recovered attempt resumed %d checkpoints, want 1 (a full restart redoes everything)", n)
	}
	recs := f.eng.Tracker.Records()
	if len(recs) != 1 {
		t.Fatalf("got %d delay records, want 1", len(recs))
	}
	// Recovery is lease-bound: the probe cannot fire before the crashed
	// holder's lease expired, and must not dawdle long after it.
	lease := f.eng.Rule.LockLease
	if d := recs[0].Delay; d < lease || d > lease+2*time.Minute {
		t.Fatalf("recovered delay %v, want just past the %v lock lease", d, lease)
	}
}

// TestPermanentFailureAbortsMPU is the MPU-leak regression test: a task
// that parks in the DLQ for good must not leave its multipart upload (or
// its recovery records) behind — before this PR the upload lingered until
// the bucket's lifecycle rules, billing storage the whole time.
func TestPermanentFailureAbortsMPU(t *testing.T) {
	f := newFixture(t, func(r *Rule) {
		distRule(r)
		r.RedriveMax = -1 // park immediately: the task can never resume
	})
	f.w.SetChaos(chaos.Profile{Name: "crash-point", CrashPoint: "after-checkpoint"})
	f.put(t, "doomed.bin", 64<<20, 5)
	f.w.Clock.Quiesce()
	f.w.SetChaos(chaos.Profile{})

	if dlq := f.eng.DLQ(); len(dlq) != 1 || dlq[0].Key != "doomed.bin" {
		t.Fatalf("dlq = %+v, want the crashed task parked", dlq)
	}
	infos, err := f.w.Region(dstID).Obj.ListMultiparts(f.eng.Rule.DstBucket)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 0 {
		t.Fatalf("%d in-progress MPUs survived a permanently failed task, want 0", len(infos))
	}
	if n := f.w.Region(srcID).KV.Len(poolTable); n != 0 {
		t.Fatalf("%d pool records survived the final park, want 0", n)
	}
	if n := f.w.Metrics.Counter("engine.recovery.mpus_aborted").Value(); n != 1 {
		t.Fatalf("abandon path aborted %d MPUs, want 1", n)
	}

	// Operator recovery still works: redriving the DLQ replicates fresh.
	if n := f.eng.RedriveDLQ(); n != 1 {
		t.Fatalf("redrove %d events, want 1", n)
	}
	f.w.Clock.Quiesce()
	if _, err := f.dstObject(t, "doomed.bin"); err != nil {
		t.Fatalf("redriven task did not converge: %v", err)
	}
}

// TestGCOrphanedMPUs: the collector aborts only this rule's aged uploads —
// foreign uploads and uploads inside the grace window survive.
func TestGCOrphanedMPUs(t *testing.T) {
	f := newFixture(t, nil)
	dst := f.w.Region(dstID).Obj
	orphan, err := dst.CreateMultipartWithOrigin(f.eng.Rule.DstBucket, "orphan.bin", f.eng.origin())
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := dst.CreateMultipartWithOrigin(f.eng.Rule.DstBucket, "foreign.bin", "someone-else")
	if err != nil {
		t.Fatal(err)
	}
	f.w.Clock.Sleep(10 * time.Minute) // age both past the grace
	young, err := dst.CreateMultipartWithOrigin(f.eng.Rule.DstBucket, "young.bin", f.eng.origin())
	if err != nil {
		t.Fatal(err)
	}

	aborted, _ := f.eng.GCOrphanedMPUs(5 * time.Minute)
	if aborted != 1 {
		t.Fatalf("GC aborted %d uploads, want only the aged orphan", aborted)
	}
	if _, err := dst.HeadMultipart(orphan); err == nil {
		t.Fatal("aged orphan upload survived GC")
	}
	for name, id := range map[string]string{"foreign": foreign, "young": young} {
		if _, err := dst.HeadMultipart(id); err != nil {
			t.Fatalf("GC aborted the %s upload it should have kept", name)
		}
	}
}

// TestCheckpointRecordsClearedOnSuccess: a clean distributed replication
// must retire its own recovery state — lingering checkpoints would make
// every later version look resumable.
func TestCheckpointRecordsClearedOnSuccess(t *testing.T) {
	f := newFixture(t, distRule)
	res := f.put(t, "clean.bin", 64<<20, 9)
	f.w.Clock.Quiesce()

	obj, err := f.dstObject(t, "clean.bin")
	if err != nil || obj.ETag != res.ETag {
		t.Fatalf("replication failed: %v", err)
	}
	kv := f.w.Region(srcID).KV
	if n := kv.Len(poolTable); n != 0 {
		t.Fatalf("%d pool records outlived their task, want 0", n)
	}
	if n := kv.Len("areplica-ckpt:" + f.eng.ruleID); n != 0 {
		t.Fatalf("%d checkpoints outlived their task, want 0", n)
	}
	infos, err := f.w.Region(dstID).Obj.ListMultiparts(f.eng.Rule.DstBucket)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 0 {
		t.Fatalf("%d in-progress MPUs left after success, want 0", len(infos))
	}
}

// TestReplicatorCrashResumesFromBitmap: a replicator crash mid-transfer
// resumes from the checkpoint's completion bitmap — the retry inherits the
// delivered parts instead of re-uploading the object.
func TestReplicatorCrashResumesFromBitmap(t *testing.T) {
	f := newFixture(t, distRule)
	legBytes := f.w.Metrics.Counter("net.leg.bytes")
	base := legBytes.Value()
	f.w.SetChaos(chaos.Profile{Name: "crash-point", CrashPoint: "after-part-3"})
	res := f.put(t, "resume.bin", 64<<20, 11)
	f.w.Clock.Quiesce()
	f.w.SetChaos(chaos.Profile{})

	obj, err := f.dstObject(t, "resume.bin")
	if err != nil || obj.ETag != res.ETag {
		t.Fatalf("destination did not converge after replicator crash: %v", err)
	}
	if n := f.w.Metrics.Counter("engine.recovery.resumed").Value(); n != 1 {
		t.Fatalf("resumed %d tasks, want 1", n)
	}
	if n := f.w.Metrics.Counter("engine.recovery.parts_resumed").Value(); n == 0 {
		t.Fatal("resumed attempt inherited no delivered parts; it restarted from scratch")
	}
	// Both network legs move 64MB each on a clean run; the crash may only
	// add a bounded remainder (the in-flight part redone), never a second
	// copy of the object.
	moved := legBytes.Value() - base
	clean := int64(2 * 64 << 20)
	if moved >= clean+(32<<20) {
		t.Fatalf("moved %d bytes (clean run %d): resume is not bounding rework", moved, clean)
	}
}

// sanity-check the objstore's upload accounting used by GC reporting.
func TestMultipartInfoTracksOrigin(t *testing.T) {
	f := newFixture(t, nil)
	if !strings.HasPrefix(f.eng.origin(), OriginPrefix) {
		t.Fatalf("engine origin %q lacks the %q prefix GC filters by", f.eng.origin(), OriginPrefix)
	}
	_ = objstore.MultipartInfo{} // the GC surface this package relies on
}
