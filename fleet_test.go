package areplica

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/oracle"
)

// watchPuts counts the replica writes landing in a bucket and flags
// duplicate final writes among them. Zero duplicates is the fleet's
// exactly-once-effect bar.
func watchPuts(t *testing.T, sim *Sim, region, bucket string) *oracle.Watcher {
	t.Helper()
	rid, err := sim.region(region)
	if err != nil {
		t.Fatal(err)
	}
	w, err := oracle.Watch(sim.World().Region(rid).Obj, bucket)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestFleetChainTerminates is the chained-topology acceptance test: a
// write at the chain's head propagates A→B→C — exactly one write lands at
// each downstream hop — and the simulation drains (no re-notification
// loop keeps the chain live).
func TestFleetChainTerminates(t *testing.T) {
	sim := NewSim()
	rules, err := Chain(
		FleetHop{Region: "aws:us-east-1", Bucket: "ch-a"},
		FleetHop{Region: "azure:eastus", Bucket: "ch-b"},
		FleetHop{Region: "gcp:us-east1", Bucket: "ch-c"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("3-hop chain built %d rules, want 2", len(rules))
	}
	if got, want := rules[1].AcceptOrigins, OriginOf("aws:us-east-1", "ch-a", "azure:eastus", "ch-b"); len(got) != 1 || got[0] != want {
		t.Fatalf("B→C AcceptOrigins = %v, want [%s]", got, want)
	}
	fl, err := sim.DeployFleet(rules, FleetOptions{ProfileRounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	wb := watchPuts(t, sim, "azure:eastus", "ch-b")
	wc := watchPuts(t, sim, "gcp:us-east1", "ch-c")

	info, err := sim.PutObject("aws:us-east-1", "ch-a", "doc.bin", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	sim.Wait() // returning at all proves the chain terminated

	for _, reg := range []struct{ region, bucket string }{
		{"azure:eastus", "ch-b"}, {"gcp:us-east1", "ch-c"},
	} {
		got, err := sim.HeadObject(reg.region, reg.bucket, "doc.bin")
		if err != nil {
			t.Fatalf("%s/%s: %v", reg.region, reg.bucket, err)
		}
		if got.ETag != info.ETag {
			t.Fatalf("%s/%s ETag = %s, want %s", reg.region, reg.bucket, got.ETag, info.ETag)
		}
	}
	if puts, dups := wb.Replicas(), wb.Duplicates(); puts != 1 || dups != 0 {
		t.Fatalf("hop B saw %d puts (%d dup), want exactly 1", puts, dups)
	}
	if puts, dups := wc.Replicas(), wc.Duplicates(); puts != 1 || dups != 0 {
		t.Fatalf("hop C saw %d puts (%d dup), want exactly 1", puts, dups)
	}
	if d, total, err := fl.Diverged(); err != nil || d != 0 || total == 0 {
		t.Fatalf("Diverged() = %d/%d, %v; want 0 diverged", d, total, err)
	}
}

func TestFleetChainRejectsCycle(t *testing.T) {
	_, err := Chain(
		FleetHop{Region: "aws:us-east-1", Bucket: "x"},
		FleetHop{Region: "azure:eastus", Bucket: "x"},
		FleetHop{Region: "aws:us-east-1", Bucket: "x"},
	)
	if err == nil || !strings.Contains(err.Error(), "revisits") {
		t.Fatalf("cyclic chain error = %v, want revisit rejection", err)
	}
}

// TestFleetMeshTerminates checks the full-mesh topology: writes at any
// member reach every other member exactly once, and the origin-skip rule
// keeps the mesh from looping.
func TestFleetMeshTerminates(t *testing.T) {
	sim := NewSim()
	regions := []string{"aws:us-east-1", "azure:eastus", "gcp:us-east1"}
	rules, err := FullMesh("mesh", regions...)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 6 {
		t.Fatalf("3-region mesh built %d rules, want 6", len(rules))
	}
	fl, err := sim.DeployFleet(rules, FleetOptions{ProfileRounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	watchers := make([]*oracle.Watcher, len(regions))
	for i, r := range regions {
		watchers[i] = watchPuts(t, sim, r, "mesh")
	}
	// Each member writes its own key (per-site keyspaces, the usual
	// active-active discipline).
	for i, r := range regions {
		if _, err := sim.PutObject(r, "mesh", "site-"+r+".bin", int64(256<<10*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	sim.Wait()

	// Every member holds all three keys; each saw 2 replica writes beside
	// its local put, no duplicates.
	for i, r := range regions {
		for _, other := range regions {
			if _, err := sim.HeadObject(r, "mesh", "site-"+other+".bin"); err != nil {
				t.Fatalf("member %s missing key of %s: %v", r, other, err)
			}
		}
		if puts, dups := watchers[i].Replicas(), watchers[i].Duplicates(); puts != 2 || dups != 0 {
			t.Fatalf("member %s saw %d replica puts (%d dup), want 2 with 0 dup", r, puts, dups)
		}
	}
	// 6 rules × 3 keys: once converged, every member's source listing
	// carries all three keys, and each rule audits them all.
	if d, total, err := fl.Diverged(); err != nil || d != 0 || total != 18 {
		t.Fatalf("Diverged() = %d/%d, %v; want 0/18", d, total, err)
	}
}

func TestFleetFanOutConverges(t *testing.T) {
	sim := NewSim()
	rules, err := FanOut("aws:us-east-1", "fan-src",
		FleetDst{Region: "azure:eastus", Bucket: "fan-d1"},
		FleetDst{Region: "gcp:us-east1", Bucket: "fan-d2"},
		FleetDst{Region: "azure:eastus", Bucket: "fan-d3"},
	)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := sim.DeployFleet(rules, FleetOptions{ProfileRounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := sim.PutObject("aws:us-east-1", "fan-src", "obj-"+string(rune('a'+i)), 512<<10); err != nil {
			t.Fatal(err)
		}
		sim.Sleep(2 * time.Second)
	}
	sim.Wait()
	if d, total, err := fl.Diverged(); err != nil || d != 0 || total != 9 {
		t.Fatalf("fan-out Diverged() = %d/%d, %v; want 0/9", d, total, err)
	}
	if fl.PendingTotal() != 0 || fl.DLQTotal() != 0 {
		t.Fatalf("pending=%d dlq=%d after Wait, want 0/0", fl.PendingTotal(), fl.DLQTotal())
	}
}

func TestFleetRejectsDuplicateRule(t *testing.T) {
	sim := NewSim()
	r := FleetRule{
		SrcRegion: "aws:us-east-1", SrcBucket: "s",
		DstRegion: "azure:eastus", DstBucket: "d",
	}
	if _, err := sim.DeployFleet([]FleetRule{r, r}, FleetOptions{ProfileRounds: 4}); err == nil ||
		!strings.Contains(err.Error(), "already registered") {
		t.Fatalf("duplicate rule error = %v, want admission rejection", err)
	}
}

func TestLoadFleetTopology(t *testing.T) {
	spec := `{
	  "quota": {"faas_concurrency": 8, "kv_ops_per_sec": 100},
	  "sched": {"lane_slots": 4, "batch_window_ms": 25, "starve_after_s": 20, "lag_target_s": 45},
	  "rules": [{"src": "aws:us-east-1", "src_bucket": "a", "dst": "gcp:us-east1", "dst_bucket": "b", "weight": 2, "priority": 1}],
	  "chains": [{"hops": [
	    {"region": "aws:us-east-1", "bucket": "c1"},
	    {"region": "azure:eastus", "bucket": "c2"},
	    {"region": "gcp:us-east1", "bucket": "c3"}
	  ]}]
	}`
	rules, opts, err := LoadFleetTopology(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("loaded %d rules, want 3 (1 direct + 2 chain)", len(rules))
	}
	if rules[0].Weight != 2 || rules[0].Priority != 1 {
		t.Fatalf("direct rule weight/priority = %v/%d", rules[0].Weight, rules[0].Priority)
	}
	if len(rules[2].AcceptOrigins) != 1 {
		t.Fatalf("chain tail AcceptOrigins = %v", rules[2].AcceptOrigins)
	}
	if opts.FaaSConcurrency != 8 || opts.KVOpsPerSec != 100 || opts.LaneSlots != 4 {
		t.Fatalf("opts = %+v", opts)
	}
	if opts.BatchWindow != 25*time.Millisecond || opts.StarveAfter != 20*time.Second || opts.LagTarget != 45*time.Second {
		t.Fatalf("durations = %v %v %v", opts.BatchWindow, opts.StarveAfter, opts.LagTarget)
	}

	if _, _, err := LoadFleetTopology(strings.NewReader(`{"bogus": 1}`)); err == nil {
		t.Fatal("unknown field should be rejected")
	}
	if _, _, err := LoadFleetTopology(strings.NewReader(`{}`)); err == nil {
		t.Fatal("empty topology should be rejected")
	}
	if _, _, err := LoadFleetTopology(strings.NewReader(spec + "\n")); err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	}
	for name, trailing := range map[string]string{
		"second topology": spec + spec,
		"stray brace":     spec + "}",
		"empty object":    spec + "{}",
	} {
		_, _, err := LoadFleetTopology(strings.NewReader(trailing))
		if err == nil || !strings.HasPrefix(err.Error(), "areplica: fleet topology: ") {
			t.Errorf("%s after the topology: err = %v, want a wrapped fleet topology error", name, err)
		}
	}
}

// runSharedLaneChaosFleet deploys two rules sharing the aws:us-east-1
// source lane under kv-throttle@1 + crashy@1 chaos, drives a bursty
// workload, and returns the fleet plus the destination watchers and the
// metrics dump. One scenario run — the quota-under-chaos satellite calls
// it twice to assert byte-identical metrics.
func runSharedLaneChaosFleet(t *testing.T) (*Fleet, *oracle.Watcher, *oracle.Watcher, []byte) {
	t.Helper()
	sim := NewSim()
	rules := []FleetRule{
		{SrcRegion: "aws:us-east-1", SrcBucket: "qa-src-1", DstRegion: "azure:eastus", DstBucket: "qa-dst-1"},
		{SrcRegion: "aws:us-east-1", SrcBucket: "qa-src-2", DstRegion: "gcp:us-east1", DstBucket: "qa-dst-2", Weight: 2},
	}
	fl, err := sim.DeployFleet(rules, FleetOptions{
		FaaSConcurrency: 6,
		KVOpsPerSec:     200,
		LaneSlots:       4,
		ProfileRounds:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	w1 := watchPuts(t, sim, "azure:eastus", "qa-dst-1")
	w2 := watchPuts(t, sim, "gcp:us-east1", "qa-dst-2")

	// Chaos arms after deployment (clean profiling), exactly like the
	// single-rule chaos experiments.
	for _, spec := range []string{"kv-throttle@1", "crashy@1"} {
		prof, err := chaos.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		sim.World().SetChaos(prof)
	}

	// A burst per rule with no inter-put spacing: both rules slam the
	// shared lane at once.
	for i := 0; i < 10; i++ {
		if _, err := sim.PutObject("aws:us-east-1", "qa-src-1", "k1-"+string(rune('a'+i)), 768<<10); err != nil {
			t.Fatal(err)
		}
		if _, err := sim.PutObject("aws:us-east-1", "qa-src-2", "k2-"+string(rune('a'+i)), 512<<10); err != nil {
			t.Fatal(err)
		}
	}
	sim.Wait()
	if fl.DLQTotal() > 0 {
		fl.RedriveAll()
		sim.Wait()
	}
	fl.PollMonitors()

	var metrics bytes.Buffer
	if err := sim.WriteMetricsProm(&metrics); err != nil {
		t.Fatal(err)
	}
	return fl, w1, w2, metrics.Bytes()
}

// TestFleetQuotaUnderChaos is the quota-accounting satellite: two rules
// share one provider lane under KV throttling and crashy functions. The
// ledger must never over-admit beyond the cap (crashed instances release
// their slots), both rules must converge completely with zero duplicate
// final writes, and the run must be deterministic — metrics byte-identical
// across same-seed reruns.
func TestFleetQuotaUnderChaos(t *testing.T) {
	fl, w1, w2, metrics := runSharedLaneChaosFleet(t)

	lanes := fl.QuotaStats()
	if len(lanes) == 0 {
		t.Fatal("no quota lanes recorded")
	}
	for _, ln := range lanes {
		if ln.Cap > 0 && ln.MaxInflight > ln.Cap {
			t.Fatalf("lane %s/%s over-admitted: max inflight %d > cap %d",
				ln.Lane.Provider, ln.Lane.Region, ln.MaxInflight, ln.Cap)
		}
		if ln.Forced != 0 {
			t.Fatalf("lane %s/%s took %d forced admissions; the stall guard must stay cold",
				ln.Lane.Provider, ln.Lane.Region, ln.Forced)
		}
	}
	var awsMax int
	for _, ln := range lanes {
		if ln.Lane.Region == "aws:us-east-1" {
			awsMax = ln.MaxInflight
		}
	}
	if awsMax == 0 {
		t.Fatal("shared aws lane never admitted anything")
	}

	if fl.PendingTotal() != 0 {
		t.Fatalf("pending = %d after redrive+Wait, want 0", fl.PendingTotal())
	}
	if d, total, err := fl.Diverged(); err != nil || d != 0 || total != 20 {
		t.Fatalf("Diverged() = %d/%d, %v; want 0/20", d, total, err)
	}
	if dups := w1.Duplicates(); dups != 0 {
		t.Fatalf("rule 1 destination saw %d duplicate final writes", dups)
	}
	if dups := w2.Duplicates(); dups != 0 {
		t.Fatalf("rule 2 destination saw %d duplicate final writes", dups)
	}

	// The clock's single-runnable actor discipline makes same-seed reruns
	// byte-identical even under race instrumentation.
	_, _, _, again := runSharedLaneChaosFleet(t)
	if !bytes.Equal(metrics, again) {
		t.Fatal("same-seed reruns diverged: metrics dumps are not byte-identical")
	}
}

// TestFleetSchedulerFairShare drives two same-lane rules through a
// constrained scheduler and checks the weighted fair-share accounting:
// both rules get admitted, the weight-2 rule is never starved behind the
// weight-1 rule's burst, and cross-rule batches form.
func TestFleetSchedulerFairShare(t *testing.T) {
	sim := NewSim()
	rules := []FleetRule{
		{SrcRegion: "aws:us-east-1", SrcBucket: "fs-src-1", DstRegion: "azure:eastus", DstBucket: "fs-dst-1"},
		{SrcRegion: "aws:us-east-1", SrcBucket: "fs-src-2", DstRegion: "azure:eastus", DstBucket: "fs-dst-2", Weight: 2},
	}
	fl, err := sim.DeployFleet(rules, FleetOptions{LaneSlots: 2, ProfileRounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := sim.PutObject("aws:us-east-1", "fs-src-1", "a-"+string(rune('a'+i)), 256<<10); err != nil {
			t.Fatal(err)
		}
		if _, err := sim.PutObject("aws:us-east-1", "fs-src-2", "b-"+string(rune('a'+i)), 256<<10); err != nil {
			t.Fatal(err)
		}
	}
	sim.Wait()

	st := fl.SchedStats()
	if len(st) != 2 {
		t.Fatalf("SchedStats rules = %d, want 2", len(st))
	}
	for _, rs := range st {
		if rs.Admits != 8 {
			t.Fatalf("rule %s admits = %d, want 8", rs.Rule, rs.Admits)
		}
		if rs.Queued != 0 {
			t.Fatalf("rule %s still queued %d after Wait", rs.Rule, rs.Queued)
		}
	}
	bs := fl.BatchStats()
	if bs.Admitted != 16 || bs.Batches == 0 {
		t.Fatalf("batch stats = %+v, want 16 admitted over >0 batches", bs)
	}
	if bs.Batches < 1 || bs.MeanSize <= 0 {
		t.Fatalf("batch stats = %+v", bs)
	}
	if d, total, err := fl.Diverged(); err != nil || d != 0 || total != 16 {
		t.Fatalf("Diverged() = %d/%d, %v; want 0/16", d, total, err)
	}
}
