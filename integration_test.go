package areplica

// Integration tests exercising the whole stack through the public API:
// profiling, planning, distributed replication, consistency under churn,
// changelog propagation, batching, and fault tolerance, in one world.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/stats"
)

// TestPaperWorkflowEndToEnd walks the paper's full lifecycle in a single
// simulated world: deploy two rules (fan-out), push a mixed workload with
// overwrites and deletes, promote an object by changelog, and audit that
// both destinations converge to the source byte-for-byte.
func TestPaperWorkflowEndToEnd(t *testing.T) {
	sim := NewSim()
	sim.MustCreateBucket("aws:us-east-1", "prod")
	sim.MustCreateBucket("azure:eastus", "prod-az")
	sim.MustCreateBucket("gcp:europe-west6", "prod-gcp")

	repAz, err := sim.Deploy(Rule{
		SrcRegion: "aws:us-east-1", SrcBucket: "prod",
		DstRegion: "azure:eastus", DstBucket: "prod-az",
		SLO: 20 * time.Second, Changelog: true, ProfileRounds: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	repGcp, err := sim.Deploy(Rule{
		SrcRegion: "aws:us-east-1", SrcBucket: "prod",
		DstRegion: "gcp:europe-west6", DstBucket: "prod-gcp",
		SLO: 20 * time.Second, Changelog: true, ProfileRounds: 6,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Mixed workload: small objects, one large object, overwrites, a
	// delete — issued over a couple of virtual minutes by two concurrent
	// writers.
	var mu sync.Mutex
	expect := map[string]string{}
	setExpect := func(k, v string) { mu.Lock(); expect[k] = v; mu.Unlock() }
	sim.Go(func() {
		for i := 0; i < 10; i++ {
			key := fmt.Sprintf("doc-%02d", i)
			info, err := sim.PutObject("aws:us-east-1", "prod", key, int64(256<<10*(i+1)))
			if err != nil {
				t.Error(err)
				return
			}
			setExpect(key, info.ETag)
			sim.Sleep(3 * time.Second)
		}
	})
	sim.Go(func() {
		info, err := sim.PutObject("aws:us-east-1", "prod", "archive.tar", 768<<20)
		if err != nil {
			t.Error(err)
			return
		}
		setExpect("archive.tar", info.ETag)
		sim.Sleep(8 * time.Second)
		// Overwrite a small doc twice in quick succession (lock race).
		for v := 0; v < 2; v++ {
			info, err := sim.PutObject("aws:us-east-1", "prod", "doc-00", 512<<10)
			if err != nil {
				t.Error(err)
				return
			}
			setExpect("doc-00", info.ETag)
		}
		// Delete another.
		sim.Sleep(2 * time.Second)
		if err := sim.DeleteObject("aws:us-east-1", "prod", "doc-01"); err != nil {
			t.Error(err)
		}
		mu.Lock()
		delete(expect, "doc-01")
		mu.Unlock()
	})
	sim.Wait()

	// Changelog promotion of the big artifact.
	promoted, err := sim.CopyObject("aws:us-east-1", "prod", "archive.tar", "archive-release.tar")
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range []*Replication{repAz, repGcp} {
		if err := rep.RegisterCopy("archive-release.tar", promoted.ETag, "archive.tar", expect["archive.tar"]); err != nil {
			t.Fatal(err)
		}
	}
	expect["archive-release.tar"] = promoted.ETag
	sim.Wait()

	// Audit both destinations.
	for _, dst := range []struct{ region, bucket string }{
		{"azure:eastus", "prod-az"}, {"gcp:europe-west6", "prod-gcp"},
	} {
		for key, etag := range expect {
			obj, err := sim.HeadObject(dst.region, dst.bucket, key)
			if err != nil {
				t.Errorf("%s: %s missing: %v", dst.region, key, err)
				continue
			}
			if obj.ETag != etag {
				t.Errorf("%s: %s stale", dst.region, key)
			}
		}
		if _, err := sim.HeadObject(dst.region, dst.bucket, "doc-01"); err == nil {
			t.Errorf("%s: deleted doc-01 survived", dst.region)
		}
	}
	for _, rep := range []*Replication{repAz, repGcp} {
		if rep.Pending() != 0 {
			t.Errorf("%v: %d writes unresolved", rep, rep.Pending())
		}
		for _, r := range rep.Records() {
			if r.Delay > 25*time.Second {
				t.Errorf("%v: %s delayed %v (SLO 20s)", rep, r.Key, r.Delay)
			}
		}
	}
}

// TestSLOAttainmentUnderBurst drives a write burst through a batched
// deployment and checks tail behaviour through the public API.
func TestSLOAttainmentUnderBurst(t *testing.T) {
	sim := NewSim()
	sim.MustCreateBucket("aws:us-east-1", "b")
	sim.MustCreateBucket("aws:us-east-2", "b2")
	rep, err := sim.Deploy(Rule{
		SrcRegion: "aws:us-east-1", SrcBucket: "b",
		DstRegion: "aws:us-east-2", DstBucket: "b2",
		SLO: 15 * time.Second, Batching: true, ProfileRounds: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 120 writes across 40 keys in 30 seconds.
	for i := 0; i < 120; i++ {
		key := fmt.Sprintf("k-%02d", i%40)
		if _, err := sim.PutObject("aws:us-east-1", "b", key, 1<<20); err != nil {
			t.Fatal(err)
		}
		sim.Sleep(250 * time.Millisecond)
	}
	sim.Wait()

	recs := rep.Records()
	if len(recs) != 120 {
		t.Fatalf("resolved %d of 120", len(recs))
	}
	var secs []float64
	misses := 0
	for _, r := range recs {
		secs = append(secs, r.Delay.Seconds())
		if r.Delay > 15*time.Second {
			misses++
		}
	}
	if misses > 2 {
		t.Fatalf("%d SLO misses out of 120", misses)
	}
	if p50 := stats.Percentile(secs, 50); p50 <= 1 {
		t.Fatalf("p50 %.2fs: batching should delay toward the deadline", p50)
	}
}

// TestFanoutUnderFaults combines multi-rule fan-out with transient storage
// failures through the public API.
func TestFanoutUnderFaults(t *testing.T) {
	sim := NewSim()
	sim.MustCreateBucket("gcp:us-east1", "src")
	sim.MustCreateBucket("aws:us-east-1", "d1")
	sim.MustCreateBucket("azure:eastus", "d2")
	var reps []*Replication
	for _, d := range []struct{ r, b string }{{"aws:us-east-1", "d1"}, {"azure:eastus", "d2"}} {
		rep, err := sim.Deploy(Rule{
			SrcRegion: "gcp:us-east1", SrcBucket: "src",
			DstRegion: d.r, DstBucket: d.b, ProfileRounds: 6,
		})
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	w := sim.World()
	flaky := chaos.Profile{Name: "d1-flaky", ObjFailRate: 0.04}
	w.Region("aws:us-east-1").Obj.SetChaos(chaos.NewInjector(w.Clock, flaky, w.Metrics))
	for i := 0; i < 8; i++ {
		if _, err := sim.PutObject("gcp:us-east1", "src", fmt.Sprintf("o%d", i), 2<<20); err != nil {
			t.Fatal(err)
		}
	}
	sim.Wait()
	w.Region("aws:us-east-1").Obj.SetChaos(nil)
	for i, rep := range reps {
		if got := len(rep.Records()); got != 8 {
			t.Errorf("rule %d resolved %d of 8", i, got)
		}
	}
}

// TestActiveActiveBidirectional deploys rules in both directions between
// two buckets. Replica writes carry an origin tag and are never
// re-replicated, so the pair converges without ping-ponging objects back
// and forth.
func TestActiveActiveBidirectional(t *testing.T) {
	sim := NewSim()
	sim.MustCreateBucket("aws:us-east-1", "east")
	sim.MustCreateBucket("aws:eu-west-1", "west")
	eastToWest, err := sim.Deploy(Rule{
		SrcRegion: "aws:us-east-1", SrcBucket: "east",
		DstRegion: "aws:eu-west-1", DstBucket: "west",
		ProfileRounds: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	westToEast, err := sim.Deploy(Rule{
		SrcRegion: "aws:eu-west-1", SrcBucket: "west",
		DstRegion: "aws:us-east-1", DstBucket: "east",
		ProfileRounds: 6,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Writers on both sides, touching disjoint keys (last-writer-wins on
	// shared keys is out of scope, as in real active-active setups).
	us, _ := sim.PutObject("aws:us-east-1", "east", "us/orders.json", 4<<20)
	eu, _ := sim.PutObject("aws:eu-west-1", "west", "eu/orders.json", 4<<20)
	sim.Wait()

	// Both buckets hold both objects.
	for _, b := range []struct{ region, bucket string }{
		{"aws:us-east-1", "east"}, {"aws:eu-west-1", "west"},
	} {
		got, err := sim.HeadObject(b.region, b.bucket, "us/orders.json")
		if err != nil || got.ETag != us.ETag {
			t.Fatalf("%s missing us/orders.json: %v", b.region, err)
		}
		got, err = sim.HeadObject(b.region, b.bucket, "eu/orders.json")
		if err != nil || got.ETag != eu.ETag {
			t.Fatalf("%s missing eu/orders.json: %v", b.region, err)
		}
	}
	// No ping-pong: each rule resolved exactly one application write.
	if n := len(eastToWest.Records()); n != 1 {
		t.Fatalf("east->west resolved %d writes, want 1 (loop?)", n)
	}
	if n := len(westToEast.Records()); n != 1 {
		t.Fatalf("west->east resolved %d writes, want 1 (loop?)", n)
	}
	// Deletes propagate one way and stop too.
	sim.DeleteObject("aws:us-east-1", "east", "us/orders.json")
	sim.Wait()
	if _, err := sim.HeadObject("aws:eu-west-1", "west", "us/orders.json"); err == nil {
		t.Fatal("delete did not propagate")
	}
	if n := len(westToEast.Records()); n != 1 {
		t.Fatalf("replica delete bounced back: west->east has %d records", n)
	}
}
