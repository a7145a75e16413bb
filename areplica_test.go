package areplica

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// newDeployedSim returns a sim with buckets and one deployed rule, using
// reduced profiling effort to keep tests quick.
func newDeployedSim(t *testing.T, mutate func(*Rule)) (*Sim, *Replication) {
	t.Helper()
	sim := NewSim()
	sim.MustCreateBucket("aws:us-east-1", "src")
	sim.MustCreateBucket("gcp:us-east1", "dst")
	rule := Rule{
		SrcRegion: "aws:us-east-1", SrcBucket: "src",
		DstRegion: "gcp:us-east1", DstBucket: "dst",
		ProfileRounds: 6,
	}
	if mutate != nil {
		mutate(&rule)
	}
	rep, err := sim.Deploy(rule)
	if err != nil {
		t.Fatal(err)
	}
	return sim, rep
}

func TestPublicAPIEndToEnd(t *testing.T) {
	sim, rep := newDeployedSim(t, nil)
	info, err := sim.PutObject("aws:us-east-1", "src", "hello.bin", 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	sim.Wait()

	got, err := sim.HeadObject("gcp:us-east1", "dst", "hello.bin")
	if err != nil {
		t.Fatalf("replica missing: %v", err)
	}
	if got.ETag != info.ETag || got.Size != 4<<20 {
		t.Fatalf("replica mismatch: %+v vs %+v", got, info)
	}
	recs := rep.Records()
	if len(recs) != 1 || recs[0].Delay <= 0 || recs[0].Delay > 20*time.Second {
		t.Fatalf("records = %+v", recs)
	}
	if rep.Pending() != 0 {
		t.Fatal("pending writes remain")
	}
	if sim.CostTotal() <= 0 {
		t.Fatal("no cost accrued")
	}
	if bd := sim.CostBreakdown(); bd["net:egress"] <= 0 {
		t.Fatalf("no egress metered: %v", bd)
	}
}

func TestPutBytesLiteralContent(t *testing.T) {
	sim, _ := newDeployedSim(t, nil)
	info, err := sim.PutBytes("aws:us-east-1", "src", "note.txt", []byte("hello world"))
	if err != nil {
		t.Fatal(err)
	}
	sim.Wait()
	got, err := sim.HeadObject("gcp:us-east1", "dst", "note.txt")
	if err != nil || got.ETag != info.ETag {
		t.Fatalf("literal replica: %v %v", err, got)
	}
}

func TestDeleteReplication(t *testing.T) {
	sim, _ := newDeployedSim(t, nil)
	sim.PutObject("aws:us-east-1", "src", "gone.bin", 1<<20)
	sim.Wait()
	if err := sim.DeleteObject("aws:us-east-1", "src", "gone.bin"); err != nil {
		t.Fatal(err)
	}
	sim.Wait()
	if _, err := sim.HeadObject("gcp:us-east1", "dst", "gone.bin"); err == nil {
		t.Fatal("delete was not replicated")
	}
}

func TestChangelogCopyAvoidsEgress(t *testing.T) {
	sim, rep := newDeployedSim(t, func(r *Rule) { r.Changelog = true })
	// Seed the original and let it replicate normally.
	orig, _ := sim.PutObject("aws:us-east-1", "src", "base.bin", 64<<20)
	sim.Wait()

	egressBefore := sim.CostBreakdown()["net:egress"]
	// COPY at the source with a changelog hint: the copy itself is a fresh
	// PUT of the same content.
	copied, err := sim.CopyObject("aws:us-east-1", "src", "base.bin", "base-copy.bin")
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.RegisterCopy("base-copy.bin", copied.ETag, "base.bin", orig.ETag); err != nil {
		t.Fatal(err)
	}
	sim.Wait()

	got, err := sim.HeadObject("gcp:us-east1", "dst", "base-copy.bin")
	if err != nil || got.ETag != copied.ETag {
		t.Fatalf("changelog copy missing at destination: %v", err)
	}
	if egressAfter := sim.CostBreakdown()["net:egress"]; egressAfter != egressBefore {
		t.Fatalf("changelog copy moved data: egress %v -> %v", egressBefore, egressAfter)
	}
}

func TestBatchingCoalescesUpdates(t *testing.T) {
	sim, rep := newDeployedSim(t, func(r *Rule) {
		r.SLO = 30 * time.Second
		r.Batching = true
	})
	egressAt := func() float64 { return sim.CostBreakdown()["net:egress"] }
	base := egressAt() // profiling during Deploy moved some bytes
	egress := func() float64 { return egressAt() - base }

	// Ten updates in 10 seconds, 30s SLO: batching should collapse most.
	for i := 0; i < 10; i++ {
		if _, err := sim.PutObject("aws:us-east-1", "src", "hot.bin", 16<<20); err != nil {
			t.Fatal(err)
		}
		sim.Sleep(time.Second)
	}
	sim.Wait()

	// All ten versions must be resolved within the SLO...
	recs := rep.Records()
	if len(recs) != 10 {
		t.Fatalf("resolved %d of 10", len(recs))
	}
	var violations int
	for _, r := range recs {
		if r.Delay > 30*time.Second {
			violations++
		}
	}
	if violations > 1 {
		t.Fatalf("%d SLO violations", violations)
	}
	// ...while far fewer than ten transfers actually happened: egress well
	// under 10 x 16MB of cross-cloud movement.
	fullCost := 10 * 2 * 16.0 / 1024 * 0.09 // 10x two legs (only one is cross-cloud)
	if egress() > fullCost*0.7 {
		t.Fatalf("egress %v suggests batching did not coalesce (full would be ~%v)", egress(), fullCost)
	}
}

func TestDeployValidation(t *testing.T) {
	sim := NewSim()
	if _, err := sim.Deploy(Rule{SrcRegion: "aws:nowhere", DstRegion: "gcp:us-east1"}); err == nil {
		t.Fatal("bad source region accepted")
	}
	if _, err := sim.Deploy(Rule{SrcRegion: "aws:us-east-1", DstRegion: "aws:bogus"}); err == nil {
		t.Fatal("bad destination region accepted")
	}
	if _, err := sim.Deploy(Rule{
		SrcRegion: "aws:us-east-1", SrcBucket: "a",
		DstRegion: "aws:us-east-1", DstBucket: "b",
	}); err == nil {
		t.Fatal("same-region rule accepted")
	}
	// Batching without an SLO is a configuration error.
	sim.MustCreateBucket("aws:us-east-1", "s")
	sim.MustCreateBucket("azure:eastus", "d")
	if _, err := sim.Deploy(Rule{
		SrcRegion: "aws:us-east-1", SrcBucket: "s",
		DstRegion: "azure:eastus", DstBucket: "d",
		Batching: true,
	}); err == nil {
		t.Fatal("batching without SLO accepted")
	}
	// Missing bucket surfaces at subscribe time.
	if _, err := sim.Deploy(Rule{
		SrcRegion: "aws:us-east-1", SrcBucket: "missing",
		DstRegion: "azure:eastus", DstBucket: "d",
		ProfileRounds: 4,
	}); err == nil {
		t.Fatal("missing bucket accepted")
	}
}

func TestRegionsListed(t *testing.T) {
	sim := NewSim()
	rs := sim.Regions()
	if len(rs) != 13 {
		t.Fatalf("regions = %d, want 13", len(rs))
	}
}

func TestSharedModelAcrossDeployments(t *testing.T) {
	// Two rules sharing the source region: the second deploy reuses the
	// first's profiled parameters (notify + loc for the shared region).
	sim := NewSim()
	sim.MustCreateBucket("aws:us-east-1", "s")
	sim.MustCreateBucket("azure:eastus", "d1")
	sim.MustCreateBucket("gcp:us-east1", "d2")
	t0 := sim.Now()
	if _, err := sim.Deploy(Rule{SrcRegion: "aws:us-east-1", SrcBucket: "s",
		DstRegion: "azure:eastus", DstBucket: "d1", ProfileRounds: 6}); err != nil {
		t.Fatal(err)
	}
	first := sim.Now().Sub(t0)
	t1 := sim.Now()
	if _, err := sim.Deploy(Rule{SrcRegion: "aws:us-east-1", SrcBucket: "s",
		DstRegion: "gcp:us-east1", DstBucket: "d2", ProfileRounds: 6}); err != nil {
		t.Fatal(err)
	}
	second := sim.Now().Sub(t1)
	// The second deployment skips re-profiling the shared source region
	// and notification path, so it takes less virtual time.
	if second >= first {
		t.Fatalf("second deploy (%v) should reuse profiling from the first (%v)", second, first)
	}
}

func TestKeyPrefixThroughFacade(t *testing.T) {
	sim, rep := newDeployedSim(t, func(r *Rule) { r.KeyPrefix = "models/" })
	sim.PutObject("aws:us-east-1", "src", "models/a.bin", 1<<20)
	sim.PutObject("aws:us-east-1", "src", "tmp/scratch.bin", 1<<20)
	sim.Wait()
	if _, err := sim.HeadObject("gcp:us-east1", "dst", "models/a.bin"); err != nil {
		t.Fatalf("scoped key missing: %v", err)
	}
	if _, err := sim.HeadObject("gcp:us-east1", "dst", "tmp/scratch.bin"); err == nil {
		t.Fatal("out-of-scope key replicated")
	}
	if got := len(rep.Records()); got != 1 {
		t.Fatalf("records = %d", got)
	}
}

func TestSummary(t *testing.T) {
	sim, rep := newDeployedSim(t, func(r *Rule) { r.SLO = 30 * time.Second })
	for i := 0; i < 5; i++ {
		sim.PutObject("aws:us-east-1", "src", "k", 1<<20)
		sim.Sleep(2 * time.Second)
	}
	sim.Wait()
	s := rep.Summary()
	if s.Resolved != 5 || s.Pending != 0 || s.DeadLetter != 0 {
		t.Fatalf("summary = %v", s)
	}
	if s.P50 <= 0 || s.Max < s.P50 || s.P9999 < s.P99 {
		t.Fatalf("percentiles inconsistent: %v", s)
	}
	if s.SLOAttainment != 1.0 {
		t.Fatalf("attainment = %v", s.SLOAttainment)
	}
	if s.ModelObserved == 0 {
		t.Fatalf("logger observed nothing: %v", s)
	}
	if s.String() == "" {
		t.Fatal("empty string form")
	}
	// Empty replication: safe zero summary.
	_, rep2 := newDeployedSim(t, nil)
	s2 := rep2.Summary()
	if s2.Resolved != 0 || s2.SLOAttainment != 1.0 {
		t.Fatalf("empty summary = %v", s2)
	}
}

func TestProfileExportImportSkipsProfiling(t *testing.T) {
	// First sim: profile and export.
	sim1, _ := newDeployedSim(t, nil)
	var buf bytes.Buffer
	if err := sim1.ExportProfile(&buf); err != nil {
		t.Fatal(err)
	}

	// Second sim: import and deploy the same pair; profiling is skipped
	// entirely (no virtual time consumed).
	sim2 := NewSim()
	sim2.MustCreateBucket("aws:us-east-1", "src")
	sim2.MustCreateBucket("gcp:us-east1", "dst")
	if err := sim2.ImportProfile(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	t0 := sim2.Now()
	rep, err := sim2.Deploy(Rule{
		SrcRegion: "aws:us-east-1", SrcBucket: "src",
		DstRegion: "gcp:us-east1", DstBucket: "dst",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sim2.Now().Equal(t0) {
		t.Fatal("deploy re-profiled despite an imported profile")
	}
	// And the imported model still drives working replication.
	info, _ := sim2.PutObject("aws:us-east-1", "src", "x.bin", 8<<20)
	sim2.Wait()
	got, err := sim2.HeadObject("gcp:us-east1", "dst", "x.bin")
	if err != nil || got.ETag != info.ETag {
		t.Fatalf("replication with imported profile failed: %v", err)
	}
	_ = rep
}

func TestRelayRuleThroughFacade(t *testing.T) {
	sim := NewSim()
	sim.MustCreateBucket("gcp:us-east1", "s")
	sim.MustCreateBucket("azure:southeastasia", "d")
	rep, err := sim.Deploy(Rule{
		SrcRegion: "gcp:us-east1", SrcBucket: "s",
		DstRegion: "azure:southeastasia", DstBucket: "d",
		Relays:        []string{"aws:us-east-1"},
		ProfileRounds: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	info, _ := sim.PutObject("gcp:us-east1", "s", "big.bin", 512<<20)
	sim.Wait()
	got, err := sim.HeadObject("azure:southeastasia", "d", "big.bin")
	if err != nil || got.ETag != info.ETag {
		t.Fatalf("relay-path replication failed: %v", err)
	}
	if rep.Pending() != 0 {
		t.Fatal("pending writes")
	}
	// Invalid relay region is rejected.
	if _, err := sim.Deploy(Rule{
		SrcRegion: "gcp:us-east1", SrcBucket: "s",
		DstRegion: "azure:southeastasia", DstBucket: "d",
		Relays: []string{"aws:moonbase-1"},
	}); err == nil {
		t.Fatal("bogus relay accepted")
	}
}

func TestSyncExistingThroughFacade(t *testing.T) {
	sim := NewSim()
	sim.MustCreateBucket("aws:us-east-1", "src")
	sim.MustCreateBucket("gcp:us-east1", "dst")
	// Data exists before the rule does.
	var infos []ObjectInfo
	for i := 0; i < 3; i++ {
		info, err := sim.PutObject("aws:us-east-1", "src", fmt.Sprintf("pre-%d", i), 2<<20)
		if err != nil {
			t.Fatal(err)
		}
		infos = append(infos, info)
	}
	sim.Wait()
	rep, err := sim.Deploy(Rule{
		SrcRegion: "aws:us-east-1", SrcBucket: "src",
		DstRegion: "gcp:us-east1", DstBucket: "dst",
		ProfileRounds: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := rep.SyncExisting()
	if err != nil || n != 3 {
		t.Fatalf("SyncExisting = %d, %v", n, err)
	}
	sim.Wait()
	for _, info := range infos {
		got, err := sim.HeadObject("gcp:us-east1", "dst", info.Key)
		if err != nil || got.ETag != info.ETag {
			t.Fatalf("%s not synced: %v", info.Key, err)
		}
	}
	if s := rep.Summary(); s.Resolved != 3 || s.Pending != 0 {
		t.Fatalf("summary = %v", s)
	}
}

func TestRegisterConcatThroughFacade(t *testing.T) {
	sim, rep := newDeployedSim(t, func(r *Rule) { r.Changelog = true })
	// Two segments replicate normally.
	seg0, _ := sim.PutObject("aws:us-east-1", "src", "seg-0", 32<<20)
	seg1, _ := sim.PutObject("aws:us-east-1", "src", "seg-1", 32<<20)
	sim.Wait()

	// Concatenate them at the source (server-side compose) and register
	// the changelog; the destination rebuilds the joined object locally.
	egressBefore := sim.CostBreakdown()["net:egress"]
	w := sim.World()
	res, err := w.Region("aws:us-east-1").Obj.ComposeWithOrigin("src", "joined", []string{"seg-0", "seg-1"}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	err = rep.RegisterConcat("joined", res.ETag, []ConcatSource{
		{Key: "seg-0", ETag: seg0.ETag}, {Key: "seg-1", ETag: seg1.ETag},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Wait()

	got, err := sim.HeadObject("gcp:us-east1", "dst", "joined")
	if err != nil || got.ETag != res.ETag {
		t.Fatalf("concat changelog failed: %v", err)
	}
	if after := sim.CostBreakdown()["net:egress"]; after != egressBefore {
		t.Fatalf("concat propagation moved bytes: %v", after-egressBefore)
	}
}
