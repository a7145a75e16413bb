package oracle

import (
	"errors"
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

// TestCompare audits one bucket pair holding a converged key, a missing
// key, a stale key, an orphan and a source key outside the prefix.
func TestCompare(t *testing.T) {
	clk := simclock.New(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	meter := pricing.NewMeter()
	srcRegion, dstRegion := cloud.MustLookup("aws:us-east-1"), cloud.MustLookup("azure:eastus")
	src := objstore.New(clk, srcRegion, meter)
	dst := objstore.New(clk, dstRegion, meter)
	for _, s := range []*objstore.Store{src, dst} {
		if err := s.CreateBucket("b", false); err != nil {
			t.Fatal(err)
		}
	}
	put := func(s *objstore.Store, key string, seed uint64) {
		t.Helper()
		if _, err := s.Put("b", key, objstore.BlobOfSize(1<<10, seed)); err != nil {
			t.Fatal(err)
		}
	}
	put(src, "p/converged", 1)
	put(dst, "p/converged", 1)
	put(src, "p/missing", 2)
	put(src, "p/stale", 3)
	put(dst, "p/stale", 4)
	put(dst, "p/orphan", 5)
	put(src, "q/outside", 6)
	clk.Quiesce()

	for _, tc := range []struct {
		prefix                                    string
		keys, converged, orphans, diverged, resid int
	}{
		{"", 4, 1, 1, 3, 4},
		{"p/", 3, 1, 1, 2, 3},
		{"q/", 1, 0, 0, 1, 1},
	} {
		meter.Reset()
		d, err := Compare(src, "b", dst, "b", tc.prefix)
		if err != nil {
			t.Fatal(err)
		}
		if d.Keys != tc.keys || d.Converged != tc.converged || d.Orphans != tc.orphans ||
			d.Diverged() != tc.diverged || d.Residual() != tc.resid {
			t.Errorf("prefix %q: %+v diverged %d residual %d; want keys %d converged %d orphans %d diverged %d residual %d",
				tc.prefix, d, d.Diverged(), d.Residual(), tc.keys, tc.converged, tc.orphans, tc.diverged, tc.resid)
		}
		// Under one page per side: one LIST each, and no per-key HEAD.
		wantList := pricing.BookFor(srcRegion.Provider).ObjList + pricing.BookFor(dstRegion.Provider).ObjList
		if got := meter.Item("obj:list"); got != wantList {
			t.Errorf("prefix %q: billed $%g of LIST, want $%g (two requests)", tc.prefix, got, wantList)
		}
		if got := meter.Item("obj:get"); got != 0 {
			t.Errorf("prefix %q: billed $%g of GET/HEAD, want none", tc.prefix, got)
		}
	}

	if _, err := Compare(src, "no-such-bucket", dst, "b", ""); !errors.Is(err, objstore.ErrNoSuchBucket) {
		t.Errorf("Compare with a missing source bucket: %v, want ErrNoSuchBucket", err)
	}
	if _, err := Compare(src, "b", dst, "no-such-bucket", ""); !errors.Is(err, objstore.ErrNoSuchBucket) {
		t.Errorf("Compare with a missing destination bucket: %v, want ErrNoSuchBucket", err)
	}
}
