package pricing

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/cloud"
)

func region(id string) cloud.Region { return cloud.MustLookup(cloud.RegionID(id)) }

func TestEgressTiers(t *testing.T) {
	use1 := region("aws:us-east-1")
	ca := region("aws:ca-central-1")
	euw := region("aws:eu-west-1")
	azEast := region("azure:eastus")
	azUK := region("azure:uksouth")
	gUSE := region("gcp:us-east1")
	gUSW := region("gcp:us-west1")
	gEU := region("gcp:europe-west6")
	gAS := region("gcp:asia-northeast1")

	cases := []struct {
		from, to cloud.Region
		want     float64
	}{
		{use1, use1, 0},        // same region: free
		{use1, ca, 0.02},       // AWS inter-region
		{use1, euw, 0.02},      // AWS flat inter-region tier
		{use1, azEast, 0.09},   // AWS to internet
		{azEast, azUK, 0.05},   // Azure cross-continent
		{azEast, use1, 0.0875}, // Azure to internet
		{gUSE, gUSW, 0.02},     // GCP intra-continent
		{gUSE, gEU, 0.05},      // GCP US-EU
		{gUSE, gAS, 0.08},      // GCP US-Asia premium tier
		{gUSE, use1, 0.12},     // GCP to internet
	}
	for _, c := range cases {
		if got := EgressPerGB(c.from, c.to); got != c.want {
			t.Errorf("EgressPerGB(%v, %v) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}

func TestEgressCostScalesWithBytes(t *testing.T) {
	from, to := region("aws:us-east-1"), region("aws:eu-west-1")
	oneGB := EgressCost(from, to, 1<<30)
	if math.Abs(oneGB-0.02) > 1e-12 {
		t.Errorf("1 GiB egress = %v, want 0.02", oneGB)
	}
	if got := EgressCost(from, to, 1<<29); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("0.5 GiB egress = %v, want 0.01", got)
	}
}

func TestFnComputeCost(t *testing.T) {
	// 1 GB for 10 s on Lambda: 10 * 16.67e-6.
	got := FnComputeCost(cloud.AWS, 1.0, 10*time.Second)
	if math.Abs(got-166.7e-6) > 1e-9 {
		t.Errorf("lambda 1GB*10s = %v", got)
	}
	// GCP is more expensive per GB-s than AWS (paper: Cloud Run pricier).
	if FnComputeCost(cloud.GCP, 1, time.Second) <= FnComputeCost(cloud.AWS, 1, time.Second) {
		t.Error("GCP GB-s should cost more than AWS")
	}
}

func TestVMCostMinimumBilling(t *testing.T) {
	short := VMCost(cloud.AWS, 10*time.Second)
	atMin := VMCost(cloud.AWS, 60*time.Second)
	if short != atMin {
		t.Errorf("sub-minimum uptime should bill the minimum: %v vs %v", short, atMin)
	}
	if VMCost(cloud.AWS, 2*time.Hour) <= atMin {
		t.Error("longer uptime must cost more")
	}
}

// providers are the three clouds the paper evaluates on.
var providers = []cloud.Provider{cloud.AWS, cloud.Azure, cloud.GCP}

func TestBookForEveryProvider(t *testing.T) {
	for _, p := range providers {
		b := BookFor(p)
		if b.Provider != p {
			t.Errorf("BookFor(%v).Provider = %v", p, b.Provider)
		}
		if b.FnGBSecond <= 0 || b.KVWrite <= 0 || b.VMHourly <= 0 || b.EgressInternet <= 0 {
			t.Errorf("book for %v has zero prices: %+v", p, b)
		}
	}
}

func TestRTCFeeOnlyAWS(t *testing.T) {
	if BookFor(cloud.AWS).RTCPerGB != 0.015 {
		t.Error("AWS RTC fee should be $0.015/GB")
	}
	if BookFor(cloud.Azure).RTCPerGB != 0 || BookFor(cloud.GCP).RTCPerGB != 0 {
		t.Error("RTC fee applies only to AWS")
	}
}

func TestMeterAccumulates(t *testing.T) {
	m := NewMeter()
	m.Add("egress", 0.5)
	m.Add("egress", 0.25)
	m.Add("compute", 0.1)
	m.Add("zero", 0) // ignored
	if got := m.Item("egress"); got != 0.75 {
		t.Errorf("egress = %v", got)
	}
	if got := m.Total(); math.Abs(got-0.85) > 1e-12 {
		t.Errorf("total = %v", got)
	}
	bd := m.Breakdown()
	if len(bd) != 2 {
		t.Errorf("breakdown has %d items: %v", len(bd), bd)
	}
	m.Reset()
	if m.Total() != 0 {
		t.Error("reset should clear the meter")
	}
}

func TestMeterConcurrent(t *testing.T) {
	m := NewMeter()
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.Add("x", 0.001)
			}
		}()
	}
	wg.Wait()
	if got := m.Item("x"); math.Abs(got-5.0) > 1e-9 {
		t.Errorf("concurrent total = %v, want 5.0", got)
	}
}
