package pricing

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cloud"
)

// Property: egress pricing is non-negative, zero only for same-region,
// internet egress is the most expensive tier for every provider, and cost
// is linear in bytes.
func TestEgressPricingProperties(t *testing.T) {
	all := cloud.AllRegions()
	f := func(ai, bi uint8, kb uint16) bool {
		a := all[int(ai)%len(all)]
		b := all[int(bi)%len(all)]
		p := EgressPerGB(a, b)
		if p < 0 {
			return false
		}
		if (a.ID() == b.ID()) != (p == 0) {
			return false
		}
		if a.Provider != b.Provider && p != BookFor(a.Provider).EgressInternet {
			return false
		}
		if a.Provider == b.Provider && p > BookFor(a.Provider).EgressInternet {
			return false // intra-cloud never beats internet pricing
		}
		bytes := int64(kb) * 1024
		c1 := EgressCost(a, b, bytes)
		c2 := EgressCost(a, b, 2*bytes)
		return c2 >= c1 && (bytes == 0 || c2 == 2*c1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: VM cost is non-decreasing in uptime and flat below the
// minimum billable duration.
func TestVMCostMonotone(t *testing.T) {
	f := func(s1, s2 uint16, pi uint8) bool {
		p := providers[int(pi)%len(providers)]
		a := time.Duration(s1) * time.Second
		b := time.Duration(s2) * time.Second
		if a > b {
			a, b = b, a
		}
		ca, cb := VMCost(p, a), VMCost(p, b)
		if ca > cb {
			return false
		}
		minB := BookFor(p).VMMinBillable
		if b <= minB && ca != cb {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: function compute cost scales linearly in both memory and time.
func TestFnComputeLinear(t *testing.T) {
	f := func(memRaw uint8, secsRaw uint8) bool {
		mem := float64(memRaw%16) + 0.5
		d := time.Duration(int(secsRaw%100)+1) * time.Second
		c := FnComputeCost(cloud.AWS, mem, d)
		c2m := FnComputeCost(cloud.AWS, 2*mem, d)
		c2t := FnComputeCost(cloud.AWS, mem, 2*d)
		const eps = 1e-12
		return c > 0 && c2m > 2*c-eps && c2m < 2*c+eps && c2t > 2*c-eps && c2t < 2*c+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
