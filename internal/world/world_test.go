package world

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/faas"
	"repro/internal/netsim"
	"repro/internal/objstore"
	"repro/internal/simrand"
)

func TestNewWorldHasAllRegions(t *testing.T) {
	w := New()
	for _, r := range cloud.AllRegions() {
		s := w.Region(r.ID())
		if s.Obj == nil || s.KV == nil || s.Fn == nil {
			t.Fatalf("region %s missing services", r.ID())
		}
		if s.Region.ID() != r.ID() {
			t.Fatalf("region %s mislabeled as %s", r.ID(), s.Region.ID())
		}
	}
	if !w.Clock.Now().Equal(Epoch) {
		t.Fatalf("clock starts at %v", w.Clock.Now())
	}
}

func TestRegionPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().Region("aws:atlantis-1")
}

func TestMoveBytesSleepsAndMetersEgress(t *testing.T) {
	w := New()
	src := cloud.MustLookup("aws:us-east-1")
	dst := cloud.MustLookup("aws:eu-west-1")
	rng := simrand.New("world-test")
	start := w.Clock.Now()
	d := w.MoveBytes(src, dst, cloud.AWS, 64<<20, 1.0, rng)
	if got := w.Clock.Since(start); got != d {
		t.Fatalf("caller slept %v, transfer reported %v", got, d)
	}
	// 64 MiB at tens of MiB/s: roughly a second.
	if d < 200*time.Millisecond || d > 10*time.Second {
		t.Fatalf("transfer duration %v implausible", d)
	}
	want := 0.02 * 64.0 / 1024 // AWS inter-region $/GB
	if got := w.Meter.Item("net:egress"); got < want*0.99 || got > want*1.01 {
		t.Fatalf("egress = %v, want %v", got, want)
	}
}

// TestMoveBytesNilSpanAllocs: with tracing off a leg builds no region-ID
// strings and boxes no span attributes; what remains is the virtual
// clock's timer.
func TestMoveBytesNilSpanAllocs(t *testing.T) {
	w := New()
	src := cloud.MustLookup("aws:us-east-1")
	dst := cloud.MustLookup("gcp:europe-west6")
	rng := simrand.New("world-test-allocs")
	if n := testing.AllocsPerRun(200, func() { w.MoveBytes(src, dst, cloud.AWS, 8<<20, 1, rng) }); n > 2 {
		t.Errorf("MoveBytes with a nil span allocates %v objects a leg, want <= 2", n)
	}
}

func BenchmarkMoveBytes(b *testing.B) {
	w := New()
	src := cloud.MustLookup("aws:us-east-1")
	dst := cloud.MustLookup("gcp:europe-west6")
	rng := simrand.New("world-bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.MoveBytes(src, dst, cloud.AWS, 8<<20, 1, rng)
	}
}

func TestMoveBytesIntraRegionFree(t *testing.T) {
	w := New()
	r := cloud.MustLookup("gcp:us-east1")
	rng := simrand.New("world-test2")
	w.MoveBytes(r, r, cloud.GCP, 1<<30, 1.0, rng)
	if got := w.Meter.Item("net:egress"); got != 0 {
		t.Fatalf("intra-region egress = %v", got)
	}
}

func TestMoveBytesScaleSpeedsTransfer(t *testing.T) {
	w := New()
	src := cloud.MustLookup("aws:us-east-1")
	dst := cloud.MustLookup("azure:eastus")
	slow := w.MoveBytes(src, dst, cloud.AWS, 64<<20, 0.5, simrand.New("a"))
	fast := w.MoveBytes(src, dst, cloud.AWS, 64<<20, 2.0, simrand.New("a"))
	if fast >= slow {
		t.Fatalf("scale 2.0 (%v) should beat scale 0.5 (%v)", fast, slow)
	}
}

func TestMoveBytesVMFasterThanFunction(t *testing.T) {
	w := New()
	src := cloud.MustLookup("aws:us-east-1")
	dst := cloud.MustLookup("aws:eu-west-1")
	fn := w.MoveBytes(src, dst, cloud.AWS, 256<<20, 1.0, simrand.New("b"))
	vm := w.MoveBytesVM(src, dst, 256<<20, simrand.New("b"))
	if vm >= fn {
		t.Fatalf("VM leg (%v) should beat function leg (%v)", vm, fn)
	}
}

func TestSetupSleepConsumesTime(t *testing.T) {
	w := New()
	src := cloud.MustLookup("aws:us-east-1")
	dst := cloud.MustLookup("aws:ap-northeast-1")
	start := w.Clock.Now()
	d := w.SetupSleep(src, dst, simrand.New("c"))
	if w.Clock.Since(start) != d || d < 50*time.Millisecond {
		t.Fatalf("setup sleep %v", d)
	}
}

func TestSetFnConfigReplacesPlatform(t *testing.T) {
	w := New()
	id := cloud.RegionID("aws:us-east-1")
	cfg := faas.DefaultConfig(cloud.AWS)
	cfg.MemMB = 512
	w.SetFnConfig(id, cfg)
	if got := w.Region(id).Fn.Config().MemMB; got != 512 {
		t.Fatalf("config not applied: %d", got)
	}
}

func TestEgressChargedAtSenderRates(t *testing.T) {
	// GCP -> AWS must bill at GCP's internet rate, not AWS's.
	w := New()
	src := cloud.MustLookup("gcp:us-east1")
	dst := cloud.MustLookup("aws:us-east-1")
	w.MoveBytes(src, dst, cloud.GCP, 1<<30, 1.0, simrand.New("d"))
	if got := w.Meter.Item("net:egress"); got < 0.119 || got > 0.121 {
		t.Fatalf("GCP internet egress for 1GiB = %v, want ~0.12", got)
	}
	_ = netsim.MiB
}

func TestSnapshotCollectsActivity(t *testing.T) {
	w := New()
	use1 := cloud.RegionID("aws:us-east-1")
	svc := w.Region(use1)
	svc.Obj.CreateBucket("b", false)
	svc.Obj.Put("b", "k", objstoreBlob(1<<20))
	svc.KV.Put("t", "k", map[string]any{"v": int64(1)})
	svc.Fn.Invoke(2, func(ctx *faas.Ctx) { ctx.Clock.Sleep(time.Second) })
	svc.Wf.Delay(time.Second, func() {})
	w.Clock.Quiesce()

	snap := w.Snapshot()
	var found bool
	for _, r := range snap.Regions {
		if r.Region != use1 {
			continue
		}
		found = true
		if r.Fn.Invocations != 2 || r.KV.Writes != 1 || r.Wf.Executions != 1 {
			t.Fatalf("snapshot counters: %+v", r)
		}
		if r.StorageObjects != 1 || r.StorageBytes != 1<<20 {
			t.Fatalf("storage: %+v", r)
		}
	}
	if !found {
		t.Fatal("region missing from snapshot")
	}
	var buf strings.Builder
	snap.Print(&buf)
	if !strings.Contains(buf.String(), "aws:us-east-1") || strings.Contains(buf.String(), "gcp:us-west1") {
		t.Fatalf("print should include active regions only:\n%s", buf.String())
	}
}

// objstoreBlob is a tiny helper for snapshot tests.
func objstoreBlob(size int64) objstore.Blob { return objstore.BlobOfSize(size, 1) }
