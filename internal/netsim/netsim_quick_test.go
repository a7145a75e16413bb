package netsim

import (
	"testing"
	"testing/quick"

	"repro/internal/cloud"
)

// Property: over all region pairs and execution providers, bandwidth is
// positive and bounded, setup time is positive, and the per-instance path
// factor is deterministic per (instance, exec, remote).
func TestLinkModelInvariants(t *testing.T) {
	n := New()
	all := cloud.AllRegions()
	f := func(ai, bi, ei uint8, inst uint16) bool {
		a := all[int(ai)%len(all)]
		b := all[int(bi)%len(all)]
		exec := providers[int(ei)%len(providers)]

		link := n.FuncLegMBps(a, b, exec)
		if link.Mu <= 0 || link.Mu > 500 || link.Sigma < 0 {
			return false
		}
		if vm := n.VMLegMBps(a, b); vm.Mu <= link.Mu {
			return false // VM NICs always beat one function
		}
		if s := n.SetupTime(a, b); s.Mu <= 0 {
			return false
		}
		id := string(rune('a'+inst%26)) + "-inst"
		f1 := PathInstanceFactor(id, exec, a.Provider)
		f2 := PathInstanceFactor(id, exec, a.Provider)
		if f1 != f2 || f1 <= 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: bandwidth never increases with distance within one provider
// and execution side (monotone decay), comparing same-provider pairs.
func TestBandwidthMonotoneInDistance(t *testing.T) {
	n := New()
	use1 := cloud.MustLookup("aws:us-east-1")
	targets := []cloud.Region{
		cloud.MustLookup("aws:us-east-2"),
		cloud.MustLookup("aws:ca-central-1"),
		cloud.MustLookup("aws:eu-west-1"),
		cloud.MustLookup("aws:ap-northeast-1"),
	}
	prevBW := 1e18
	prevD := -1.0
	for _, tgt := range targets {
		d := cloud.DistanceKm(use1, tgt)
		bw := n.FuncLegMBps(use1, tgt, cloud.AWS).Mean()
		if d < prevD {
			t.Fatalf("targets not distance-ordered: %v", tgt)
		}
		if bw > prevBW {
			t.Fatalf("bandwidth rose with distance at %v: %v > %v", tgt, bw, prevBW)
		}
		prevBW, prevD = bw, d
	}
}

// Property: ConfigScale is non-decreasing in memory and capped at the
// sweet-spot value.
func TestConfigScaleMonotone(t *testing.T) {
	f := func(m1, m2 uint16, pi uint8) bool {
		p := providers[int(pi)%len(providers)]
		lo, hi := int(m1)%8192+64, int(m2)%8192+64
		if lo > hi {
			lo, hi = hi, lo
		}
		a, b := ConfigScale(p, lo, 0), ConfigScale(p, hi, 0)
		return a <= b+1e-12 && b <= 1.0+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
