package core

import (
	"testing"

	"repro/internal/changelog"
	"repro/internal/chaos"
	"repro/internal/objstore"
	"repro/internal/oracle"
	"repro/internal/world"
)

// watchDstDups counts destination final writes that rewrite a key with the
// ETag it already had — the signature of a duplicated changelog apply or a
// redundant re-replication. Converged chaos runs must keep this at zero.
// Notify-dup chaos replays the notification of a single write, which is
// not a duplicate write; the watcher ignores those.
func watchDstDups(t *testing.T, w *world.World) *oracle.Watcher {
	t.Helper()
	dups, err := oracle.Watch(w.Region(dst).Obj, "d")
	if err != nil {
		t.Fatal(err)
	}
	return dups
}

// A duplicated changelog delivery (notify-dup chaos on the hint's own
// notification copy, §5.4) must not issue a second final write at the
// destination: Applier.Apply's HEAD idempotence guard turns the replayed
// apply into a no-op.
func TestChangelogDuplicateDeliveryIdempotent(t *testing.T) {
	w, svc := deployed(t, Options{EnableChangelog: true})
	resA, err := w.Region(src).Obj.Put("s", "a", objstore.BlobOfSize(1<<20, 7))
	if err != nil {
		t.Fatal(err)
	}
	w.Clock.Quiesce()
	dups := watchDstDups(t, w)

	w.SetChaos(chaos.Profile{Name: "dup-all", Seed: "1", NotifyDupRate: 1})
	defer w.SetChaos(chaos.Profile{})

	resB, err := w.Region(src).Obj.Copy("s", "a", "s", "b", resA.ETag)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.RegisterChangelog(changelog.Log{
		Key: "b", ETag: resB.ETag, Op: changelog.OpCopy,
		Sources: []changelog.Source{{Key: "a", ETag: resA.ETag}},
	}); err != nil {
		t.Fatal(err)
	}
	w.Clock.Quiesce()

	got, err := w.Region(dst).Obj.Head("d", "b")
	if err != nil || got.ETag != resB.ETag {
		t.Fatalf("destination diverged: %v %+v", err, got)
	}
	if v := w.Metrics.Counter("engine.tasks.changelog").Value(); v != 1 {
		t.Fatalf("engine.tasks.changelog = %d, want 1", v)
	}
	if v := w.Metrics.Counter("chaos.injected.notify_dup").Value(); v < 2 {
		t.Fatalf("chaos.injected.notify_dup = %d, want >= 2 (event + hint streams)", v)
	}
	if n := dups.Duplicates(); n != 0 {
		t.Fatalf("%d duplicate final writes at destination, want 0", n)
	}
}

// A dropped changelog hint delivery must degrade, not diverge: the lookup
// behaves as a miss and the engine falls back to full replication, so the
// destination still converges — just without the near-zero-cost path.
func TestChangelogDropFallsBackToFullReplication(t *testing.T) {
	w, svc := deployed(t, Options{EnableChangelog: true})
	resA, err := w.Region(src).Obj.Put("s", "a", objstore.BlobOfSize(1<<20, 8))
	if err != nil {
		t.Fatal(err)
	}
	w.Clock.Quiesce()

	w.SetChaos(chaos.Profile{Name: "drop-all", Seed: "1", NotifyLossRate: 1})
	defer w.SetChaos(chaos.Profile{})

	resB, err := w.Region(src).Obj.Copy("s", "a", "s", "b", resA.ETag)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.RegisterChangelog(changelog.Log{
		Key: "b", ETag: resB.ETag, Op: changelog.OpCopy,
		Sources: []changelog.Source{{Key: "a", ETag: resA.ETag}},
	}); err != nil {
		t.Fatal(err)
	}
	w.Clock.Quiesce()
	if _, err := w.Region(dst).Obj.Head("d", "b"); err == nil {
		t.Fatal("PUT notification should have been dropped")
	}

	// Backfill rediscovers the missing key; its replication consults the
	// changelog, whose own delivery is then chaos-dropped too.
	scheduled, err := svc.Engine.Backfill()
	if err != nil {
		t.Fatal(err)
	}
	if scheduled != 1 {
		t.Fatalf("backfill scheduled %d, want 1 (only the missing key)", scheduled)
	}
	w.Clock.Quiesce()

	got, err := w.Region(dst).Obj.Head("d", "b")
	if err != nil || got.ETag != resB.ETag {
		t.Fatalf("fallback replication failed: %v %+v", err, got)
	}
	if v := w.Metrics.Counter("engine.tasks.changelog").Value(); v != 0 {
		t.Fatalf("engine.tasks.changelog = %d, want 0 (hint was dropped)", v)
	}
	if v := w.Metrics.Counter("chaos.injected.notify_loss").Value(); v < 2 {
		t.Fatalf("chaos.injected.notify_loss = %d, want >= 2 (event + hint streams)", v)
	}
}
