package engine

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/objstore"
	"repro/internal/oracle"
	"repro/internal/world"
)

// failObjRequests arms region's object store alone to fail a fraction
// rate of its requests with objstore.ErrUnavailable; SetChaos(nil) heals
// it.
func failObjRequests(w *world.World, region cloud.RegionID, rate float64) {
	prof := chaos.Profile{Name: "obj-fail", ObjFailRate: rate}
	w.Region(region).Obj.SetChaos(chaos.NewInjector(w.Clock, prof, w.Metrics))
}

// TestSurvivesTransientStorageFaults injects "503 Slow Down"-class
// failures into both object stores and verifies the engine's retry path
// (§6: idempotent PUTs + auto-retry) still converges every object.
func TestSurvivesTransientStorageFaults(t *testing.T) {
	f := newFixture(t, nil)
	failObjRequests(f.w, srcID, 0.05)
	failObjRequests(f.w, dstID, 0.05)

	// The workload writer retries its own PUTs, as any SDK client would.
	putRetry := func(key string, seed uint64) string {
		for attempt := 0; ; attempt++ {
			res, err := f.w.Region(srcID).Obj.Put(f.eng.Rule.SrcBucket, key,
				objstore.BlobOfSize(4<<20, seed))
			if err == nil {
				return res.ETag
			}
			if attempt > 10 {
				t.Fatalf("put %s never succeeded: %v", key, err)
			}
		}
	}
	want := map[string]string{}
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("obj-%02d", i)
		want[key] = putRetry(key, uint64(i)+1)
	}
	f.w.Clock.Quiesce()

	// Disable injection before auditing so the audit reads reliably.
	f.w.Region(srcID).Obj.SetChaos(nil)
	f.w.Region(dstID).Obj.SetChaos(nil)

	var missing int
	for key, etag := range want {
		obj, err := f.dstObject(t, key)
		if err != nil || obj.ETag != etag {
			missing++
		}
	}
	// A 5% per-request failure rate with up-to-3 task retries should lose
	// almost nothing; allow a stray DLQ entry but require near-total
	// convergence.
	if missing > 1 {
		t.Fatalf("%d of %d objects failed to converge under faults (dlq %d)",
			missing, len(want), len(f.eng.DLQ()))
	}
	if failures := f.w.Region(srcID).Obj.Stats().Failures + f.w.Region(dstID).Obj.Stats().Failures; failures == 0 {
		t.Fatal("no faults were actually injected; the test proved nothing")
	}
}

// TestPermanentFaultsLandInDLQ verifies that an unrecoverable destination
// keeps the engine from spinning: after maxRetries the event moves to the
// dead-letter queue, matching the paper's §6 behaviour.
func TestPermanentFaultsLandInDLQ(t *testing.T) {
	f := newFixture(t, nil)
	failObjRequests(f.w, dstID, 1.0) // destination hard down
	f.put(t, "doomed", 2<<20, 1)
	f.w.Clock.Quiesce()

	dlq := f.eng.DLQ()
	if len(dlq) != 1 || dlq[0].Key != "doomed" {
		t.Fatalf("dlq = %+v, want the doomed event", dlq)
	}
	// Recovery: destination heals, a fresh version replicates fine.
	f.w.Region(dstID).Obj.SetChaos(nil)
	res := f.put(t, "doomed", 2<<20, 2)
	f.w.Clock.Quiesce()
	obj, err := f.dstObject(t, "doomed")
	if err != nil || obj.ETag != res.ETag {
		t.Fatalf("post-recovery replication failed: %v", err)
	}
}

// TestFaultsDoNotCorruptAssemblies stresses distributed replication under
// faults: whatever lands at the destination must be internally consistent
// (never assembled from mixed or partial parts).
func TestFaultsDoNotCorruptAssemblies(t *testing.T) {
	f := newFixture(t, func(r *Rule) {
		r.Src, r.Dst = "azure:eastus", "gcp:asia-northeast1"
		r.ForceN = 16
		r.ForceLoc = "azure:eastus"
	})
	failObjRequests(f.w, f.eng.Rule.Dst, 0.03)
	var last objstore.PutResult
	for i := 0; i < 4; i++ {
		last = f.put(t, "big", 256<<20, uint64(i)+1)
		f.w.Clock.Quiesce()
	}
	f.w.Region(f.eng.Rule.Dst).Obj.SetChaos(nil)
	obj, err := f.dstObject(t, "big")
	if err != nil {
		// Every attempt may legitimately have died in the DLQ; but if the
		// object exists it must be a complete, single version.
		if len(f.eng.DLQ()) == 0 {
			t.Fatalf("object missing without DLQ entries: %v", err)
		}
		return
	}
	if obj.ETag != obj.Blob.ETag() {
		t.Fatal("destination object internally inconsistent")
	}
	if obj.ETag != last.ETag && len(f.eng.DLQ()) == 0 {
		t.Fatal("stale version at destination without a DLQ record")
	}
}

// watchDupWrites counts duplicate *final writes* at a destination
// bucket: a distinct PUT (new store sequence number) that writes content
// identical to the version already current there. Notification chaos may
// deliver the same event twice; the watcher ignores re-deliveries.
func watchDupWrites(t *testing.T, w *world.World, region cloud.RegionID, bucket string) *oracle.Watcher {
	t.Helper()
	c, err := oracle.Watch(w.Region(region).Obj, bucket)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFaultRetriesConsumeVirtualClock verifies the satellite requirement
// that retry waits are simulated time, not instantaneous loops: an
// unreachable destination makes the task burn its backoff schedule and
// its redrive delays on the virtual clock.
func TestFaultRetriesConsumeVirtualClock(t *testing.T) {
	f := newFixture(t, nil)
	failObjRequests(f.w, dstID, 1.0)
	start := f.w.Clock.Now()
	f.put(t, "stuck", 1<<20, 1)
	f.w.Clock.Quiesce()

	if got := f.w.Metrics.Counter("engine.retries").Value(); got < maxRetries {
		t.Fatalf("engine.retries = %d, want >= %d (maxRetries backoffs per dispatch)", got, maxRetries)
	}
	// Three dispatches (original + 2 automatic redrives), each with 3
	// backoffs of >= 250ms, plus two 30s redrive delays: well over a
	// virtual minute must have elapsed.
	if elapsed := f.w.Clock.Now().Sub(start); elapsed < time.Minute {
		t.Fatalf("only %v of virtual time elapsed; retries/redrives did not consume the clock", elapsed)
	}
	if len(f.eng.DLQ()) != 1 {
		t.Fatalf("DLQ = %+v, want the stuck event parked", f.eng.DLQ())
	}
}

// TestFaultDLQAutomaticRedriveRecovers: the destination heals while the
// event waits out a redrive delay; the automatic redrive converges it
// without operator action.
func TestFaultDLQAutomaticRedriveRecovers(t *testing.T) {
	f := newFixture(t, nil)
	failObjRequests(f.w, dstID, 1.0)
	// Heal mid-redrive: after the first redrive fails (~t=32s) but before
	// the second fires (~t=63s).
	f.w.Clock.Delay(45*time.Second, func() {
		f.w.Region(dstID).Obj.SetChaos(nil)
	})
	res := f.put(t, "heals", 1<<20, 1)
	f.w.Clock.Quiesce()

	obj, err := f.dstObject(t, "heals")
	if err != nil || obj.ETag != res.ETag {
		t.Fatalf("object did not converge after the destination healed: %v", err)
	}
	if len(f.eng.DLQ()) != 0 {
		t.Fatalf("DLQ = %+v, want empty after automatic redrive", f.eng.DLQ())
	}
	if got := f.w.Metrics.Counter("engine.dlq.redriven").Value(); got < 1 {
		t.Fatal("no automatic redrive was recorded")
	}
}

// TestFaultDLQRedriveCappedThenManual: a poison event stops being
// re-enqueued after RedriveMax automatic redrives, and the operator's
// RedriveDLQ button recovers it once the destination heals.
func TestFaultDLQRedriveCappedThenManual(t *testing.T) {
	f := newFixture(t, nil)
	failObjRequests(f.w, dstID, 1.0)
	res := f.put(t, "poison", 1<<20, 1)
	f.w.Clock.Quiesce()

	dlq := f.eng.DLQ()
	if len(dlq) != 1 || dlq[0].Key != "poison" {
		t.Fatalf("DLQ = %+v, want the poison event parked", dlq)
	}
	// The only event was redriven automatically before it parked.
	if got := f.w.Metrics.Counter("engine.dlq.redriven").Value(); got != 2 {
		t.Fatalf("automatic redrives = %d, want the default cap of 2", got)
	}
	if got := f.w.Metrics.Counter("engine.tasks.dlq").Value(); got != 1 {
		t.Fatalf("engine.tasks.dlq = %d, want 1", got)
	}

	f.w.Region(dstID).Obj.SetChaos(nil)
	if n := f.eng.RedriveDLQ(); n != 1 {
		t.Fatalf("RedriveDLQ = %d, want 1", n)
	}
	f.w.Clock.Quiesce()
	obj, err := f.dstObject(t, "poison")
	if err != nil || obj.ETag != res.ETag {
		t.Fatalf("manual redrive did not converge the event: %v", err)
	}
	if len(f.eng.DLQ()) != 0 {
		t.Fatal("DLQ not empty after manual redrive")
	}
}

// TestChaosNotificationLossConvergesViaBackfill: lost notifications leave
// objects unreplicated (the engine cannot retry what it never saw); the
// reconciliation backfill converges them.
func TestChaosNotificationLossConvergesViaBackfill(t *testing.T) {
	f := newFixture(t, nil)
	f.w.SetChaos(chaos.Profile{Name: "loss", NotifyLossRate: 1})

	want := map[string]string{}
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("lost-%d", i)
		want[key] = f.put(t, key, 1<<20, uint64(i)+1).ETag
	}
	f.w.Clock.Quiesce()
	for key := range want {
		if _, err := f.dstObject(t, key); err == nil {
			t.Fatalf("%s replicated although every notification was dropped", key)
		}
	}
	if got := f.w.Metrics.Counter("chaos.injected.notify_loss").Value(); got < 4 {
		t.Fatalf("chaos.injected.notify_loss = %d, want >= 4", got)
	}

	f.w.SetChaos(chaos.Profile{})
	n, err := f.eng.Backfill()
	if err != nil || n != 4 {
		t.Fatalf("Backfill = %d, %v, want 4 scheduled", n, err)
	}
	f.w.Clock.Quiesce()
	for key, etag := range want {
		obj, err := f.dstObject(t, key)
		if err != nil || obj.ETag != etag {
			t.Fatalf("%s did not converge via backfill: %v", key, err)
		}
	}
}

// TestChaosNotificationDuplicationDeduped: at-least-once delivery with
// aggressive duplication must not cause duplicate replication work, and
// must never produce a duplicate final write at the destination.
func TestChaosNotificationDuplicationDeduped(t *testing.T) {
	f := newFixture(t, nil)
	dup := watchDupWrites(t, f.w, dstID, f.eng.Rule.DstBucket)
	f.w.SetChaos(chaos.Profile{Name: "dup", NotifyDupRate: 1, NotifyDelayMax: 3 * time.Second})

	want := map[string]string{}
	for i := 0; i < 6; i++ {
		key := fmt.Sprintf("twice-%d", i)
		want[key] = f.put(t, key, 1<<20, uint64(i)+1).ETag
		f.w.Clock.Sleep(time.Second)
	}
	f.w.Clock.Quiesce()

	for key, etag := range want {
		obj, err := f.dstObject(t, key)
		if err != nil || obj.ETag != etag {
			t.Fatalf("%s did not converge: %v", key, err)
		}
	}
	if got := dup.Duplicates(); got != 0 {
		t.Fatalf("%d duplicate final writes at the destination, want 0", got)
	}
	deduped := f.w.Metrics.Counter("engine.events.deduped").Value() +
		f.w.Metrics.Counter("engine.tasks.deduped").Value()
	if deduped < 6 {
		t.Fatalf("dedupe counters = %d, want >= 6 (every duplicate delivery rejected)", deduped)
	}
}

// TestChaosMixedProfileAcceptance is the issue's acceptance scenario: 5%
// object-store faults, 2% FaaS instance crashes, and one 30-second
// inter-region partition. The hardened engine must converge >= 99% of
// source writes with zero duplicate final writes.
func TestChaosMixedProfileAcceptance(t *testing.T) {
	f := newFixture(t, nil)
	dup := watchDupWrites(t, f.w, dstID, f.eng.Rule.DstBucket)
	prof, err := chaos.Parse("mixed")
	if err != nil {
		t.Fatal(err)
	}
	f.w.SetChaos(prof)

	// The workload writer retries its PUTs like any SDK client; sizes span
	// the single-function and distributed paths, and the 2s spacing walks
	// the workload through the 20s..50s partition window.
	sizes := []int64{1 << 20, 4 << 20, 24 << 20}
	want := map[string]string{}
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("mix-%02d", i)
		blob := objstore.BlobOfSize(sizes[i%len(sizes)], uint64(i)+1)
		for attempt := 0; ; attempt++ {
			res, err := f.w.Region(srcID).Obj.Put(f.eng.Rule.SrcBucket, key, blob)
			if err == nil {
				want[key] = res.ETag
				break
			}
			if attempt > 10 {
				t.Fatalf("source put %s never succeeded: %v", key, err)
			}
			f.w.Clock.Sleep(200 * time.Millisecond)
		}
		f.w.Clock.Sleep(2 * time.Second)
	}
	f.w.Clock.Quiesce()

	f.w.SetChaos(chaos.Profile{}) // audit without injection
	converged := 0
	for key, etag := range want {
		if obj, err := f.dstObject(t, key); err == nil && obj.ETag == etag {
			converged++
		}
	}
	if pct := 100 * float64(converged) / float64(len(want)); pct < 99 {
		t.Fatalf("convergence %.1f%% (%d/%d, dlq %d), want >= 99%%",
			pct, converged, len(want), len(f.eng.DLQ()))
	}
	if got := dup.Duplicates(); got != 0 {
		t.Fatalf("%d duplicate final writes under the mixed profile, want 0", got)
	}
	if got := f.w.Metrics.Counter("chaos.injected").Value(); got == 0 {
		t.Fatal("no faults were actually injected; the test proved nothing")
	}
}
