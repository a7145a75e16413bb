package oracle

import (
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/objstore"
	"repro/internal/pricing"
	"repro/internal/simclock"
)

// TestWatcher drives a watched bucket through the three cases the
// duplicate-final-write definition turns on.
func TestWatcher(t *testing.T) {
	clk := simclock.New(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	store := objstore.New(clk, cloud.MustLookup("aws:us-east-1"), pricing.NewMeter())
	if err := store.CreateBucket("b", false); err != nil {
		t.Fatal(err)
	}
	w, err := Watch(store, "b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Watch(store, "no-such-bucket"); err == nil {
		t.Error("Watch on a missing bucket succeeded")
	}
	put := func(origin string, seed uint64) objstore.PutResult {
		t.Helper()
		res, err := store.PutWithOrigin("b", "k", objstore.BlobOfSize(1<<20, seed), origin)
		if err != nil {
			t.Fatal(err)
		}
		clk.Quiesce()
		return res
	}
	check := func(step string, replicas int64, dups int) {
		t.Helper()
		if w.Replicas() != replicas || w.Duplicates() != dups {
			t.Errorf("%s: %d replicas, %d duplicates; want %d, %d", step, w.Replicas(), w.Duplicates(), replicas, dups)
		}
	}

	put("", 1) // a user write is not a replica
	check("user write", 0, 0)

	// The notification of one write delivered twice is no duplicate write
	// (the replica count is per delivery).
	first := put("areplica/r", 2)
	check("first copy", 1, 0)
	w.observe(objstore.Event{Type: objstore.EventPut, Key: "k", ETag: first.ETag, Seq: first.Seq, Origin: "areplica/r"})
	check("re-delivered notification", 2, 0)

	// A re-copy is a new write of the content already current.
	put("areplica/r", 2)
	check("re-copy", 3, 1)

	// After a DELETE the same content is a fresh write, not a duplicate.
	if err := store.Delete("b", "k"); err != nil {
		t.Fatal(err)
	}
	clk.Quiesce()
	put("areplica/r", 2)
	check("re-put after delete", 4, 1)
}
