package antientropy_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/objstore"
	"repro/internal/oracle"
	"repro/internal/world"
)

const (
	srcID = cloud.RegionID("aws:us-east-1")
	dstID = cloud.RegionID("azure:eastus")

	srcBucket = "scrub-src"
	dstBucket = "scrub-dst"
)

// deployScrubbed stands up a world with a scrub-enabled rule.
func deployScrubbed(t *testing.T, mutate func(*core.Options)) (*world.World, *core.Service) {
	t.Helper()
	w := world.New()
	for _, b := range []struct {
		r cloud.RegionID
		n string
	}{{srcID, srcBucket}, {dstID, dstBucket}} {
		if err := w.Region(b.r).Obj.CreateBucket(b.n, false); err != nil {
			t.Fatal(err)
		}
	}
	opts := core.Options{
		Rule:          engine.Rule{Src: srcID, Dst: dstID, SrcBucket: srcBucket, DstBucket: dstBucket},
		EnableScrub:   true,
		ScrubCadence:  30 * time.Second,
		ProfileRounds: 6,
	}
	if mutate != nil {
		mutate(&opts)
	}
	svc, err := core.Deploy(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	return w, svc
}

func put(t *testing.T, w *world.World, region cloud.RegionID, bucket, key string, size int64, seed uint64) objstore.PutResult {
	t.Helper()
	res, err := w.Region(region).Obj.Put(bucket, key, objstore.BlobOfSize(size, seed))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// putRetrying survives chaos-injected PUT refusals like any SDK client.
func putRetrying(t *testing.T, w *world.World, region cloud.RegionID, bucket, key string, size int64, seed uint64) objstore.PutResult {
	t.Helper()
	var err error
	for attempt := 0; attempt < 10; attempt++ {
		if attempt > 0 {
			w.Clock.Sleep(250 * time.Millisecond << uint(attempt-1))
		}
		var res objstore.PutResult
		if res, err = w.Region(region).Obj.Put(bucket, key, objstore.BlobOfSize(size, seed)); err == nil {
			return res
		}
	}
	t.Fatalf("put %s never succeeded: %v", key, err)
	return objstore.PutResult{}
}

// watchDups counts duplicate final writes at the destination.
func watchDups(t *testing.T, w *world.World, region cloud.RegionID, bucket string) *oracle.Watcher {
	t.Helper()
	c, err := oracle.Watch(w.Region(region).Obj, bucket)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// audit returns the number of source keys the destination misses or
// holds stale.
func audit(t *testing.T, w *world.World) int {
	t.Helper()
	d, err := oracle.Compare(w.Region(srcID).Obj, srcBucket, w.Region(dstID).Obj, dstBucket, "")
	if err != nil {
		t.Fatal(err)
	}
	return d.Diverged()
}

// TestScrubRepairsAllDivergenceClasses seeds one divergence of each class
// — a lost replica (missing), a corrupted replica (stale ETag), and a
// destination-only key (orphan) — and verifies one scrub round repairs all
// three through the engine.
func TestScrubRepairsAllDivergenceClasses(t *testing.T) {
	w, svc := deployScrubbed(t, nil)

	want := map[string]string{}
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("obj-%d", i)
		want[key] = put(t, w, srcID, srcBucket, key, 1<<20, uint64(i)+1).ETag
	}
	w.Clock.Quiesce()
	if n := audit(t, w); n != 0 {
		t.Fatalf("baseline replication left %d divergent", n)
	}

	// Missing: the destination loses a replica after convergence.
	if err := w.Region(dstID).Obj.Delete(dstBucket, "obj-0"); err != nil {
		t.Fatal(err)
	}
	// Stale: the replica is overwritten with foreign content.
	put(t, w, dstID, dstBucket, "obj-1", 1<<20, 999)
	// Orphan: a key that never existed at the source.
	put(t, w, dstID, dstBucket, "ghost", 1<<20, 777)
	// Age the orphan past the grace window so the scrubber may delete it.
	w.Clock.Sleep(45 * time.Second)

	rep, err := svc.Scrubber.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Missing != 1 || rep.Stale != 1 || rep.Orphans != 1 {
		t.Fatalf("divergence classes = %d/%d/%d, want 1/1/1 (report %+v)",
			rep.Missing, rep.Stale, rep.Orphans, rep)
	}
	if rep.RepairsDispatched != 3 {
		t.Fatalf("dispatched %d repairs, want 3", rep.RepairsDispatched)
	}
	w.Clock.Quiesce()

	if n := audit(t, w); n != 0 {
		t.Fatalf("%d keys still divergent after repair", n)
	}
	if _, err := w.Region(dstID).Obj.Head(dstBucket, "ghost"); err == nil {
		t.Fatal("orphan survived the scrub")
	}
	rep2, err := svc.Scrubber.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Clean || rep2.Divergent != 0 {
		t.Fatalf("follow-up round not clean: %+v", rep2)
	}
	// A clean round ships only the root digest across the wide area.
	if rep2.DigestBytes != 8 {
		t.Fatalf("clean round shipped %d digest bytes, want 8", rep2.DigestBytes)
	}
}

// TestScrubOrphanGraceProtectsFreshReplicas: a destination key younger
// than the grace window must not be deleted — it may be a replica of a
// source write that happened after the source listing.
func TestScrubOrphanGraceProtectsFreshReplicas(t *testing.T) {
	w, svc := deployScrubbed(t, nil)
	put(t, w, dstID, dstBucket, "fresh", 1<<20, 5)
	rep, err := svc.Scrubber.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Orphans != 0 {
		t.Fatalf("fresh destination key counted as orphan: %+v", rep)
	}
	if _, err := w.Region(dstID).Obj.Head(dstBucket, "fresh"); err != nil {
		t.Fatal("fresh replica was deleted inside the grace window")
	}
}

// TestScrubRepairsDroppedNotifications is the subsystem's reason to exist:
// with every notification dropped, notification-driven replication moves
// nothing, and the scrubber alone converges the pair.
func TestScrubRepairsDroppedNotifications(t *testing.T) {
	w, svc := deployScrubbed(t, nil)
	w.SetChaos(chaos.Profile{Name: "drop-all", NotifyLossRate: 1})
	want := map[string]string{}
	for i := 0; i < 6; i++ {
		key := fmt.Sprintf("lost-%d", i)
		want[key] = putRetrying(t, w, srcID, srcBucket, key, 512<<10, uint64(i)+1).ETag
	}
	w.Clock.Quiesce()
	if n := audit(t, w); n != len(want) {
		t.Fatalf("expected %d divergent before scrubbing, got %d", len(want), n)
	}
	rounds, last, err := svc.Scrubber.RunUntilClean()
	if err != nil {
		t.Fatal(err)
	}
	w.SetChaos(chaos.Profile{})
	if n := audit(t, w); n != 0 {
		t.Fatalf("%d divergent after %d scrub rounds (last %+v)", n, rounds, last)
	}
	if v := w.Metrics.Counter("antientropy.divergent_keys").Value(); v < int64(len(want)) {
		t.Fatalf("divergent_keys metric = %d, want >= %d", v, len(want))
	}
}

// TestScrubDLQRedriveRaceNoDuplicates (PR 2 zero-dup bar, extended): an
// operator redrive of the DLQ racing an independent scrub repair of the
// same key must not produce duplicate final writes.
func TestScrubDLQRedriveRaceNoDuplicates(t *testing.T) {
	w, svc := deployScrubbed(t, nil)
	dups := watchDups(t, w, dstID, dstBucket)

	dst := w.Region(dstID).Obj
	down := chaos.NewInjector(w.Clock, chaos.Profile{Name: "dst-down", ObjFailRate: 1}, w.Metrics)
	dst.SetChaos(down) // destination hard down
	res := put(t, w, srcID, srcBucket, "victim", 2<<20, 1)
	w.Clock.Quiesce() // burns retries, auto-redrives, then parks in the DLQ
	if n := len(svc.Engine.DLQ()); n != 1 {
		t.Fatalf("DLQ depth = %d, want 1", n)
	}
	dst.SetChaos(nil) // destination heals

	// Operator redrive and scrub repair race each other.
	w.Clock.Go(func() { svc.Engine.RedriveDLQ() })
	rep, err := svc.Scrubber.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	w.Clock.Quiesce()

	cur, err := w.Region(dstID).Obj.Head(dstBucket, "victim")
	if err != nil || cur.ETag != res.ETag {
		t.Fatalf("victim did not converge: %v", err)
	}
	if d := dups.Duplicates(); d != 0 {
		t.Fatalf("%d duplicate final writes (scrub report %+v)", d, rep)
	}

	// Same race the other way: the scrubber finds the parked key first and
	// redrives it itself.
	dst.SetChaos(down)
	put(t, w, srcID, srcBucket, "victim2", 2<<20, 2)
	w.Clock.Quiesce()
	if n := len(svc.Engine.DLQ()); n != 1 {
		t.Fatalf("DLQ depth = %d, want 1", n)
	}
	dst.SetChaos(nil)
	rep2, err := svc.Scrubber.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.RepairsRedriven != 1 {
		t.Fatalf("scrub redrove %d parked keys, want 1 (%+v)", rep2.RepairsRedriven, rep2)
	}
	w.Clock.Quiesce()
	if n := audit(t, w); n != 0 {
		t.Fatalf("%d divergent after scrub-initiated redrive", n)
	}
	if d := dups.Duplicates(); d != 0 {
		t.Fatalf("%d duplicate final writes after scrub-initiated redrive", d)
	}
}

// TestScrubAllProfilesFullConvergence is the acceptance bar: under every
// builtin chaos profile a scrub-enabled run reaches 100% convergence with
// zero duplicate final writes.
func TestScrubAllProfilesFullConvergence(t *testing.T) {
	for _, name := range chaos.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			prof, err := chaos.Parse(name + "@11")
			if err != nil {
				t.Fatal(err)
			}
			w, svc := deployScrubbed(t, nil)
			dups := watchDups(t, w, dstID, dstBucket)
			w.SetChaos(prof)

			want := 10
			sizes := []int64{512 << 10, 2 << 20, 8 << 20}
			for i := 0; i < want; i++ {
				putRetrying(t, w, srcID, srcBucket, fmt.Sprintf("obj-%02d", i),
					sizes[i%len(sizes)], uint64(i)+1)
				w.Clock.Sleep(2 * time.Second)
			}
			w.Clock.Quiesce()

			// Scrub runs under the same chaos the workload saw.
			rounds, last, err := svc.Scrubber.RunUntilClean()
			if err != nil {
				t.Fatalf("scrub never converged: %v", err)
			}
			w.SetChaos(chaos.Profile{})

			if n := audit(t, w); n != 0 {
				t.Fatalf("%d of %d keys divergent after %d scrub rounds (last %+v)",
					n, want, rounds, last)
			}
			if d := dups.Duplicates(); d != 0 {
				t.Fatalf("%d duplicate final writes under %s", d, name)
			}
		})
	}
}

// TestScrubDeterminism: identical seeds must produce byte-identical
// metrics, including every antientropy counter.
func TestScrubDeterminism(t *testing.T) {
	run := func() string {
		w, svc := deployScrubbed(t, nil)
		prof, _ := chaos.Parse("notify-flaky@3")
		w.SetChaos(prof)
		for i := 0; i < 8; i++ {
			putRetrying(t, w, srcID, srcBucket, fmt.Sprintf("d-%d", i), 1<<20, uint64(i)+1)
			w.Clock.Sleep(2 * time.Second)
		}
		w.Clock.Quiesce()
		if _, _, err := svc.Scrubber.RunUntilClean(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := w.Metrics.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("scrub runs with identical seeds diverged:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

// TestScrubStartLoopTerminates: the periodic loop self-stops after
// consecutive clean rounds, so Quiesce returns.
func TestScrubStartLoopTerminates(t *testing.T) {
	w, svc := deployScrubbed(t, nil)
	svc.Scrubber.Start()
	for i := 0; i < 3; i++ {
		put(t, w, srcID, srcBucket, fmt.Sprintf("s-%d", i), 1<<20, uint64(i)+1)
		w.Clock.Sleep(time.Second)
	}
	// If the loop failed to self-stop this would hang until the test
	// timeout — termination is the property under test.
	w.Clock.Quiesce()
	if n := audit(t, w); n != 0 {
		t.Fatalf("%d divergent after loop exit", n)
	}
	if v := w.Metrics.Counter("antientropy.rounds").Value(); v < 2 {
		t.Fatalf("loop ran %d rounds, want >= 2", v)
	}
}

// TestRunUntilCleanRoundCap: a tracker entry that never resolves keeps
// every round unclean, so RunUntilClean stops at its 32-round cap and
// reports the failure instead of looping forever.
func TestRunUntilCleanRoundCap(t *testing.T) {
	w, svc := deployScrubbed(t, nil)
	svc.Engine.Tracker.OnSource(objstore.Event{
		Type: objstore.EventPut, Key: "never-replicates", Seq: 1, Size: 1, Time: w.Clock.Now(),
	})
	ran, _, err := svc.Scrubber.RunUntilClean()
	if ran != 32 || err == nil {
		t.Fatalf("RunUntilClean = %d rounds, err %v; want the 32-round cap and an error", ran, err)
	}
}

// TestScrubRoundCollectsOrphanedMPUs: every scrub round garbage-collects
// the rule's multipart uploads older than the 15-minute grace and leaves
// younger ones, whose checkpoint may not be written yet, alone.
func TestScrubRoundCollectsOrphanedMPUs(t *testing.T) {
	w, svc := deployScrubbed(t, nil)
	dst := w.Region(dstID).Obj
	origin := engine.OriginFor(srcID, srcBucket, dstID, dstBucket)
	orphan, err := dst.CreateMultipartWithOrigin(dstBucket, "orphan.bin", origin)
	if err != nil {
		t.Fatal(err)
	}
	w.Clock.Sleep(16 * time.Minute)
	fresh, err := dst.CreateMultipartWithOrigin(dstBucket, "fresh.bin", origin)
	if err != nil {
		t.Fatal(err)
	}

	rep, err := svc.Scrubber.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if rep.MPUsAborted != 1 {
		t.Fatalf("scrub round aborted %d uploads, want only the aged orphan", rep.MPUsAborted)
	}
	if _, err := dst.HeadMultipart(orphan); err == nil {
		t.Fatal("aged orphan upload survived the scrub round")
	}
	if _, err := dst.HeadMultipart(fresh); err != nil {
		t.Fatal("scrub round aborted an upload younger than the grace")
	}
}
