package profiler

import (
	"testing"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/world"
)

const (
	src = cloud.RegionID("aws:us-east-1")
	dst = cloud.RegionID("azure:eastus")
)

func newProfiler() *Profiler {
	p := New(world.New())
	p.Rounds = 8
	p.ChunksPerRound = 3
	return p
}

func TestProfileLocShapes(t *testing.T) {
	p := newProfiler()
	lp := p.ProfileLoc(src)
	// I: milliseconds; D: sub-second cold start; P: small on AWS.
	if lp.I.Mu < 0.001 || lp.I.Mu > 0.05 {
		t.Errorf("I = %v", lp.I)
	}
	if lp.D.Mu < 0.05 || lp.D.Mu > 2 {
		t.Errorf("D = %v", lp.D)
	}
	if lp.P.Mu < 0 || lp.P.Mu > 2 {
		t.Errorf("P on AWS = %v, expected small", lp.P)
	}
	// GCP's 5-second scheduler rounds show up in P.
	gp := p.ProfileLoc("gcp:us-east1")
	if gp.P.Mu <= lp.P.Mu {
		t.Errorf("GCP P (%v) should exceed AWS P (%v)", gp.P.Mu, lp.P.Mu)
	}
}

func TestProfilePathShapes(t *testing.T) {
	p := newProfiler()
	pp := p.ProfilePath(src, dst, src)
	if pp.S.Mu < 0.05 || pp.S.Mu > 3 {
		t.Errorf("S = %v", pp.S)
	}
	// An 8 MB chunk over a few-hundred-Mbps path: tenths of a second.
	if pp.C.Mu < 0.02 || pp.C.Mu > 2 {
		t.Errorf("C = %+v", pp.C)
	}
	// Pool scheduling adds KV and request overhead: C' > C.
	if pp.Cp.Mu <= pp.C.Mu {
		t.Errorf("C' (%v) should exceed C (%v)", pp.Cp.Mu, pp.C.Mu)
	}
	// Both variance components must be populated on a cross-cloud path.
	if pp.C.Between <= 0 || pp.C.Within <= 0 {
		t.Errorf("variance split missing: %+v", pp.C)
	}
}

func TestProfilePathExecutionSidesDiffer(t *testing.T) {
	p := newProfiler()
	atSrc := p.ProfilePath(src, dst, src)
	atDst := p.ProfilePath(src, dst, dst)
	// The Azure side is slower on this pair (netsim exec factors).
	if atDst.C.Mu <= atSrc.C.Mu {
		t.Errorf("dst-side C (%v) should exceed src-side C (%v)", atDst.C.Mu, atSrc.C.Mu)
	}
}

func TestProfileNotifyMatchesPlatform(t *testing.T) {
	p := newProfiler()
	n := p.ProfileNotify(src)
	// Calibrated AWS notification delay is ~0.35 s.
	if n.Mu < 0.1 || n.Mu > 1.0 {
		t.Errorf("notify delay = %v", n)
	}
}

func TestFitRuleFillsModelAndSkipsRepeats(t *testing.T) {
	p := newProfiler()
	m := model.New()
	p.FitRuleWithRelays(m, src, dst, nil)
	if _, ok := m.Loc(src); !ok {
		t.Fatal("src loc not profiled")
	}
	if _, ok := m.Loc(dst); !ok {
		t.Fatal("dst loc not profiled")
	}
	for _, loc := range []cloud.RegionID{src, dst} {
		if _, ok := m.Path(model.PathKey{Src: src, Dst: dst, Loc: loc}); !ok {
			t.Fatalf("path at %s not profiled", loc)
		}
	}
	if m.Notify(src).Mu == 0 {
		t.Fatal("notify not profiled")
	}
	// Re-fitting is a cheap no-op (virtual time does not advance).
	before := p.W.Clock.Now()
	p.FitRuleWithRelays(m, src, dst, nil)
	if !p.W.Clock.Now().Equal(before) {
		t.Fatal("second FitRuleWithRelays re-profiled")
	}
	// A second rule sharing the source only profiles the new pieces.
	p.FitRuleWithRelays(m, src, "gcp:us-east1", nil)
	if _, ok := m.Path(model.PathKey{Src: src, Dst: "gcp:us-east1", Loc: src}); !ok {
		t.Fatal("new path not profiled")
	}
}

func TestProfiledModelPlansSanely(t *testing.T) {
	// End-to-end: profile, then check the model's single-function 1 GB
	// estimate lands in a plausible band for this path.
	p := newProfiler()
	m := model.New()
	p.FitRuleWithRelays(m, src, dst, nil)
	d, err := m.ReplTime(src, dst, src, 1<<30, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if mean := d.Mean(); mean < 5 || mean > 60 {
		t.Errorf("1GB single-function estimate = %v s", mean)
	}
	d32, err := m.ReplTime(src, dst, src, 1<<30, 32, false)
	if err != nil {
		t.Fatal(err)
	}
	if d32.Mean() >= d.Mean() {
		t.Error("32 functions should be predicted faster than 1")
	}
}
