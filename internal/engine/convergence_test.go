package engine

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/objstore"
	"repro/internal/simrand"
)

// TestRandomizedConvergence drives randomized operation schedules —
// overwrites, deletes, bursts, hot keys, mixed sizes — against the engine
// and asserts the core invariant of §5.2: after quiescing, the destination
// bucket equals the source bucket exactly, every source event is resolved,
// and nothing leaks to the dead-letter queue (no faults are injected here).
func TestRandomizedConvergence(t *testing.T) {
	for _, seed := range []string{"alpha", "beta", "gamma"} {
		seed := seed
		t.Run(seed, func(t *testing.T) {
			f := newFixture(t, nil)
			rng := simrand.New("convergence", seed)
			src := f.w.Region(srcID).Obj

			const keys = 6
			const ops = 60
			f.w.Clock.Go(func() {
				for i := 0; i < ops; i++ {
					key := fmt.Sprintf("k-%d", rng.Intn(keys))
					switch {
					case rng.Float64() < 0.15:
						if err := src.Delete("src", key); err != nil {
							t.Error(err)
						}
					default:
						// Sizes from tiny to large enough for distributed
						// replication; hot bursts come from zero gaps below.
						size := int64(1) << (10 + rng.Intn(18)) // 1KB..128MB
						if _, err := src.Put("src", key, objstore.BlobOfSize(size, uint64(i)+1)); err != nil {
							t.Error(err)
						}
					}
					// Mostly spread out, sometimes back-to-back (lock races).
					if rng.Float64() < 0.6 {
						f.w.Clock.Sleep(time.Duration(rng.Intn(4000)) * time.Millisecond)
					}
				}
			})
			f.w.Clock.Quiesce()

			if got := len(f.eng.DLQ()); got != 0 {
				t.Fatalf("dead-letter queue has %d events without injected faults", got)
			}
			if got := f.eng.Tracker.PendingCount(); got != 0 {
				t.Fatalf("%d source events never resolved", got)
			}
			// Destination must equal source, key for key.
			srcKeys := src.Keys("src")
			dstKeys := f.w.Region(dstID).Obj.Keys("dst")
			if len(srcKeys) != len(dstKeys) {
				t.Fatalf("key sets differ: src=%v dst=%v", srcKeys, dstKeys)
			}
			for _, key := range srcKeys {
				want, err := src.Head("src", key)
				if err != nil {
					t.Fatal(err)
				}
				got, err := f.w.Region(dstID).Obj.Head("dst", key)
				if err != nil {
					t.Fatalf("dst missing %s: %v", key, err)
				}
				if got.ETag != want.ETag {
					t.Fatalf("%s: dst etag %s != src %s", key, got.ETag, want.ETag)
				}
			}
		})
	}
}

// TestRandomizedConvergenceUnderFaults repeats the randomized schedule
// with transient request failures on both sides. DLQ entries are allowed
// (permanently unlucky versions), but any key whose latest source version
// is NOT in the DLQ must converge, and nothing may be internally
// inconsistent at the destination.
func TestRandomizedConvergenceUnderFaults(t *testing.T) {
	f := newFixture(t, nil)
	failObjRequests(f.w, srcID, 0.03)
	failObjRequests(f.w, dstID, 0.03)
	rng := simrand.New("convergence-faults")
	src := f.w.Region(srcID).Obj

	putRetry := func(key string, size int64, seed uint64) {
		for attempt := 0; attempt < 12; attempt++ {
			if _, err := src.Put("src", key, objstore.BlobOfSize(size, seed)); err == nil {
				return
			}
		}
		t.Fatalf("workload writer could not put %s", key)
	}
	f.w.Clock.Go(func() {
		for i := 0; i < 40; i++ {
			key := fmt.Sprintf("k-%d", rng.Intn(5))
			putRetry(key, int64(1)<<(10+rng.Intn(16)), uint64(i)+1)
			f.w.Clock.Sleep(time.Duration(rng.Intn(3000)) * time.Millisecond)
		}
	})
	f.w.Clock.Quiesce()
	f.w.Region(srcID).Obj.SetChaos(nil)
	f.w.Region(dstID).Obj.SetChaos(nil)

	deadKeys := map[string]bool{}
	for _, ev := range f.eng.DLQ() {
		deadKeys[ev.Key] = true
	}
	for _, key := range src.Keys("src") {
		want, _ := src.Head("src", key)
		got, err := f.w.Region(dstID).Obj.Head("dst", key)
		if err != nil {
			if !deadKeys[key] {
				t.Fatalf("%s missing at dst without a DLQ record", key)
			}
			continue
		}
		obj, _ := f.w.Region(dstID).Obj.Get("dst", key)
		if obj.ETag != obj.Blob.ETag() {
			t.Fatalf("%s internally inconsistent at dst", key)
		}
		if got.ETag != want.ETag && !deadKeys[key] {
			t.Fatalf("%s stale at dst without a DLQ record", key)
		}
	}
}
