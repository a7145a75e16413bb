package netsim

import (
	"math"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/simrand"
)

func region(id string) cloud.Region { return cloud.MustLookup(cloud.RegionID(id)) }

// providers are the three clouds the paper evaluates on.
var providers = []cloud.Provider{cloud.AWS, cloud.Azure, cloud.GCP}

func TestBaseBandwidthDecaysWithDistance(t *testing.T) {
	n := New()
	use1 := region("aws:us-east-1")
	near := region("aws:ca-central-1")
	far := region("aws:ap-northeast-1")
	bwNear := n.FuncLegMBps(use1, near, cloud.AWS).Mean()
	bwFar := n.FuncLegMBps(use1, far, cloud.AWS).Mean()
	if bwNear <= bwFar {
		t.Errorf("near link %v MBps should beat far link %v MBps", bwNear, bwFar)
	}
	// Paper: a few hundred Mbps per function, i.e. tens of MiB/s cross-region.
	if bwFar < 8 || bwNear > 250 {
		t.Errorf("bandwidths out of plausible range: near=%v far=%v", bwNear, bwFar)
	}
}

func TestIntraRegionIsFastest(t *testing.T) {
	n := New()
	use1 := region("aws:us-east-1")
	intra := n.FuncLegMBps(use1, use1, cloud.AWS).Mean()
	for _, r := range cloud.AllRegions() {
		if r.ID() == use1.ID() {
			continue
		}
		if cross := n.FuncLegMBps(use1, r, cloud.AWS).Mean(); cross >= intra {
			t.Errorf("cross link to %v (%v) >= intra (%v)", r, cross, intra)
		}
	}
}

func TestExecutionSideAsymmetry(t *testing.T) {
	n := New()
	use1 := region("aws:us-east-1")
	azEast := region("azure:eastus")
	onAWS := n.FuncLegMBps(use1, azEast, cloud.AWS)
	onAzure := n.FuncLegMBps(use1, azEast, cloud.Azure)
	if onAWS.Mean() <= onAzure.Mean() {
		t.Errorf("AWS-side execution should be faster: aws=%v azure=%v", onAWS.Mean(), onAzure.Mean())
	}
	// Azure execution is also more variable (relative sigma).
	if onAWS.Sigma/onAWS.Mu >= onAzure.Sigma/onAzure.Mu {
		t.Error("Azure-side execution should have higher relative variance")
	}
}

func TestCrossCloudPenalty(t *testing.T) {
	n := New()
	use1 := region("aws:us-east-1")
	use2 := region("aws:us-east-2")
	azEast := region("azure:eastus")
	sameCloud := n.FuncLegMBps(use1, use2, cloud.AWS).Mean()
	crossCloud := n.FuncLegMBps(use1, azEast, cloud.AWS).Mean()
	// azure:eastus is geographically closer to us-east-1 than us-east-2 is,
	// so any deficit must come from the cross-cloud penalty.
	if crossCloud >= sameCloud {
		t.Errorf("cross-cloud leg (%v) should be slower than same-cloud (%v)", crossCloud, sameCloud)
	}
}

func TestVMFasterThanFunction(t *testing.T) {
	n := New()
	a, b := region("aws:us-east-1"), region("aws:eu-west-1")
	if n.VMLegMBps(a, b).Mean() <= n.FuncLegMBps(a, b, cloud.AWS).Mean() {
		t.Error("VM NIC should outrun a single function instance")
	}
}

func TestInstanceMultiplierSpread(t *testing.T) {
	n := New()
	rng := simrand.New("test", "mult")
	for _, p := range providers {
		dist := n.InstanceMultiplier(p)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < 2000; i++ {
			m := dist.Sample(rng)
			if m <= 0 {
				t.Fatalf("non-positive multiplier on %v", p)
			}
			lo, hi = math.Min(lo, m), math.Max(hi, m)
		}
		if hi/lo < 1.5 {
			t.Errorf("%v instance spread %.2fx, want noticeable variability", p, hi/lo)
		}
	}
	// Azure shows the widest spread (paper: its links are least stable).
	if DefaultTraits(cloud.Azure).InstanceSigmaLog <= DefaultTraits(cloud.AWS).InstanceSigmaLog {
		t.Error("Azure should have larger instance sigma than AWS")
	}
}

func TestConfigScaleSweetSpot(t *testing.T) {
	// Below the sweet spot bandwidth scales with memory; beyond it, flat.
	half := ConfigScale(cloud.AWS, 512, 0)
	full := ConfigScale(cloud.AWS, 1024, 0)
	beyond := ConfigScale(cloud.AWS, 8192, 0)
	if !(half < full) {
		t.Errorf("512MB (%v) should be slower than 1024MB (%v)", half, full)
	}
	if full != beyond {
		t.Errorf("beyond sweet spot should be flat: %v vs %v", full, beyond)
	}
	if full != 1.0 {
		t.Errorf("default config scale should be 1.0, got %v", full)
	}
	// GCP: second vCPU helps a little, then saturates.
	one := ConfigScale(cloud.GCP, 1024, 1)
	two := ConfigScale(cloud.GCP, 1024, 2)
	four := ConfigScale(cloud.GCP, 1024, 4)
	if !(two > one) || four > 1.16*one {
		t.Errorf("GCP cpu scaling: 1cpu=%v 2cpu=%v 4cpu=%v", one, two, four)
	}
	// Zero memory means the platform default.
	if got := ConfigScale(cloud.Azure, 0, 0); got != 1.0 {
		t.Errorf("default-memory scale = %v", got)
	}
}

func TestSetupTimeGrowsWithRTT(t *testing.T) {
	n := New()
	use1 := region("aws:us-east-1")
	near := region("aws:us-east-2")
	far := region("aws:ap-northeast-1")
	if n.SetupTime(use1, near).Mean() >= n.SetupTime(use1, far).Mean() {
		t.Error("setup overhead should grow with RTT")
	}
	if s := n.SetupTime(use1, near).Mean(); s < 0.1 || s > 2 {
		t.Errorf("near setup time %v s out of range", s)
	}
}

func TestTransferTime(t *testing.T) {
	// 100 MiB at 50 MiB/s = 2 s.
	if got := TransferTime(100*MiB, 50); got != 2*time.Second {
		t.Errorf("TransferTime = %v, want 2s", got)
	}
	if got := TransferTime(0, 50); got != 0 {
		t.Errorf("zero bytes should take no time, got %v", got)
	}
	// Guard against division blow-ups on absurdly slow links.
	if got := TransferTime(MiB, 0); got <= 0 || got > 2*time.Minute {
		t.Errorf("clamped slow link transfer = %v", got)
	}
}

func TestNearLinearAggregateScaling(t *testing.T) {
	// The model has no shared-bottleneck term, so aggregate bandwidth over
	// k instances is exactly k times the per-instance mean — the paper's
	// Fig. 7 near-linearity. Verify by sampling.
	n := New()
	link := n.FuncLegMBps(region("aws:us-east-1"), region("gcp:us-east1"), cloud.AWS)
	rng := simrand.New("agg")
	for _, k := range []int{1, 8, 64} {
		var agg float64
		const rounds = 400
		for r := 0; r < rounds; r++ {
			for i := 0; i < k; i++ {
				agg += link.Sample(rng)
			}
		}
		got := agg / rounds
		want := float64(k) * link.Mean()
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("aggregate over %d instances = %v, want ~%v", k, got, want)
		}
	}
}
