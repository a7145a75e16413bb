package planner

import (
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/stats"
)

const (
	src = cloud.RegionID("aws:us-east-1")
	dst = cloud.RegionID("azure:eastus")
)

func fitted() *model.Model {
	m := model.New()
	m.SetLoc(src, model.LocParams{I: stats.N(0.008, 0.002), D: stats.N(0.25, 0.08), P: stats.N(0.15, 0.05)})
	m.SetLoc(dst, model.LocParams{I: stats.N(0.012, 0.004), D: stats.N(0.60, 0.20), P: stats.N(2.5, 1.4)})
	m.SetPath(model.PathKey{Src: src, Dst: dst, Loc: src},
		model.PathParams{S: stats.N(0.30, 0.08),
			C:  model.ChunkTime{Mu: 0.12, Between: 0.02, Within: 0.02},
			Cp: model.ChunkTime{Mu: 0.13, Between: 0.022, Within: 0.025}})
	m.SetPath(model.PathKey{Src: src, Dst: dst, Loc: dst},
		model.PathParams{S: stats.N(0.40, 0.15),
			C:  model.ChunkTime{Mu: 0.18, Between: 0.05, Within: 0.05},
			Cp: model.ChunkTime{Mu: 0.19, Between: 0.055, Within: 0.055}})
	return m
}

func TestSmallObjectGetsSingleLocalPlan(t *testing.T) {
	pl := New(fitted())
	p, err := pl.Plan(src, dst, 1<<20, 30*time.Second, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if p.N != 1 || !p.Local || p.Loc != src {
		t.Fatalf("1MB plan = %v, want single local at source", p)
	}
	if !p.Compliant {
		t.Fatal("a 30s SLO for 1MB must be compliant")
	}
}

func TestLargeObjectGetsParallelPlan(t *testing.T) {
	pl := New(fitted())
	p, err := pl.Plan(src, dst, 1<<30, 5*time.Second, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if p.N < 8 {
		t.Fatalf("1GB with 5s SLO needs parallelism, got %v", p)
	}
	if !p.Compliant {
		t.Fatalf("expected a compliant plan, got %v", p)
	}
}

func TestFirstCompliantIsCheapest(t *testing.T) {
	// With a loose SLO the sweep must stop at low parallelism even though
	// higher parallelism would be faster.
	pl := New(fitted())
	loose, _ := pl.Plan(src, dst, 1<<30, 5*time.Minute, 0.99)
	tight, _ := pl.Plan(src, dst, 1<<30, 4*time.Second, 0.99)
	if loose.N >= tight.N {
		t.Fatalf("loose SLO plan n=%d should use fewer functions than tight n=%d", loose.N, tight.N)
	}
}

func TestZeroSLOReturnsFastestPlan(t *testing.T) {
	pl := New(fitted())
	p, err := pl.Plan(src, dst, 1<<30, 0, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if p.Compliant {
		t.Fatal("zero SLO cannot be compliant")
	}
	// Verify it really is the fastest over the sweep, evaluating each
	// candidate exactly as PlanWith does (adaptive part size, pipelined)
	// so the comparison is apples-to-apples.
	for n := 1; n <= pl.MaxParallel; n *= 2 {
		for _, loc := range []cloud.RegionID{src, dst} {
			local := n == 1 && loc == src
			var mo model.Opts
			if n > 1 {
				mo = model.Opts{Chunk: pl.PartSizeFor(src, dst, loc, 1<<30, n), Pipelined: true}
			}
			d, err := pl.M.ReplTimeOpts(src, dst, loc, 1<<30, n, local, mo)
			if err != nil {
				t.Fatal(err)
			}
			if q := d.Quantile(0.99); q < p.EstSeconds-1e-9 {
				t.Fatalf("found faster plan n=%d loc=%s (%v) than returned %v", n, loc, q, p)
			}
		}
	}
}

func TestViolatedSLOStillReturnsFastest(t *testing.T) {
	pl := New(fitted())
	// 1 GB in 100 ms is impossible; Algorithm 3 falls back to the fastest.
	p, err := pl.Plan(src, dst, 1<<30, 100*time.Millisecond, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if p.Compliant {
		t.Fatal("impossible SLO marked compliant")
	}
	if p.EstSeconds <= 0.1 {
		t.Fatalf("estimate %v below the impossible budget", p.EstSeconds)
	}
}

func TestPercentileTightensPlans(t *testing.T) {
	// Requiring p99.9 rather than p50 within the same budget should demand
	// at least as much parallelism.
	pl := New(fitted())
	p50, _ := pl.Plan(src, dst, 1<<30, 12*time.Second, 0.50)
	p999, _ := pl.Plan(src, dst, 1<<30, 12*time.Second, 0.999)
	if p999.N < p50.N {
		t.Fatalf("p99.9 plan n=%d weaker than p50 plan n=%d", p999.N, p50.N)
	}
	// Invalid percentile falls back to the 0.99 default rather than failing.
	if _, err := pl.Plan(src, dst, 1<<20, time.Second, 0); err != nil {
		t.Fatal(err)
	}
}

func TestSourceSideChosenWhenFaster(t *testing.T) {
	pl := New(fitted())
	p, _ := pl.Plan(src, dst, 1<<30, 0, 0.99)
	if p.Loc != src {
		t.Fatalf("fastest side should be the source here, got %v", p)
	}
}

func TestDestinationSideChosenWhenFaster(t *testing.T) {
	// Invert the path parameters so the destination side wins.
	m := fitted()
	m.SetPath(model.PathKey{Src: src, Dst: dst, Loc: src},
		model.PathParams{S: stats.N(0.40, 0.15),
			C:  model.ChunkTime{Mu: 0.30, Between: 0.05, Within: 0.05},
			Cp: model.ChunkTime{Mu: 0.32, Between: 0.06, Within: 0.06}})
	m.SetPath(model.PathKey{Src: src, Dst: dst, Loc: dst},
		model.PathParams{S: stats.N(0.30, 0.08),
			C:  model.ChunkTime{Mu: 0.10, Between: 0.02, Within: 0.02},
			Cp: model.ChunkTime{Mu: 0.11, Between: 0.025, Within: 0.025}})
	// Make dst startup cheap so it can win outright.
	m.SetLoc(dst, model.LocParams{I: stats.N(0.008, 0.002), D: stats.N(0.25, 0.08), P: stats.N(0.15, 0.05)})
	pl := New(m)
	p, _ := pl.Plan(src, dst, 1<<30, 0, 0.99)
	if p.Loc != dst {
		t.Fatalf("fastest side should be the destination, got %v", p)
	}
}

func TestUnprofiledModelErrors(t *testing.T) {
	pl := New(model.New())
	if _, err := pl.Plan(src, dst, 1<<20, time.Second, 0.99); err == nil {
		t.Fatal("expected error for unprofiled model")
	}
}

func TestLocalMaxBytesBoundary(t *testing.T) {
	pl := New(fitted())
	at, _ := pl.Plan(src, dst, LocalMaxBytes, time.Hour, 0.99)
	over, _ := pl.Plan(src, dst, LocalMaxBytes+1, time.Hour, 0.99)
	if !at.Local {
		t.Errorf("object at the local threshold should be local: %v", at)
	}
	if over.Local {
		t.Errorf("object beyond the threshold must not be local: %v", over)
	}
}

// relayFitted adds a fast relay location to the fitted model.
func relayFitted() (*model.Model, cloud.RegionID) {
	m := fitted()
	relay := cloud.RegionID("aws:us-east-2")
	m.SetLoc(relay, model.LocParams{I: stats.N(0.008, 0.002), D: stats.N(0.25, 0.08), P: stats.N(0.15, 0.05)})
	m.SetPath(model.PathKey{Src: src, Dst: dst, Loc: relay},
		model.PathParams{S: stats.N(0.25, 0.05),
			C:  model.ChunkTime{Mu: 0.05, Between: 0.01, Within: 0.01},
			Cp: model.ChunkTime{Mu: 0.055, Between: 0.012, Within: 0.012}})
	return m, relay
}

func TestRelayIgnoredWhenDirectComplies(t *testing.T) {
	m, relay := relayFitted()
	pl := New(m)
	pl.Relays = []cloud.RegionID{relay}
	// A loose SLO: the direct side complies at n=1, so the (faster but
	// pricier) relay must not be chosen.
	p, err := pl.Plan(src, dst, 128<<20, 2*time.Minute, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if p.Loc == relay {
		t.Fatalf("relay chosen despite compliant direct plan: %v", p)
	}
	if !p.Compliant {
		t.Fatalf("plan not compliant: %v", p)
	}
}

func TestRelayChosenWhenDirectCannotComply(t *testing.T) {
	m, relay := relayFitted()
	pl := New(m)
	pl.Relays = []cloud.RegionID{relay}
	pl.MaxParallel = 1 // quota limit: escalation is not an option (§6)
	// 1 GB at n=1: direct ~16s+, relay ~6.7s. A 10s budget forces the relay.
	p, err := pl.Plan(src, dst, 1<<30, 10*time.Second, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if p.Loc != relay {
		t.Fatalf("expected relay, got %v", p)
	}
	if !p.Compliant {
		t.Fatalf("relay plan not compliant: %v", p)
	}
}

func TestRelayInFastestFallback(t *testing.T) {
	// With SLO=0 nothing complies; the fastest plan may be a relay.
	m, relay := relayFitted()
	pl := New(m)
	pl.Relays = []cloud.RegionID{relay}
	pl.MaxParallel = 1
	p, err := pl.Plan(src, dst, 1<<30, 0, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if p.Loc != relay {
		t.Fatalf("fastest fallback should be the relay here: %v", p)
	}
}

func TestEstimateCostShape(t *testing.T) {
	pl := New(fitted())
	// Direct (loc=src): one cross-cloud hop. Relay through a third region:
	// two hops, strictly more egress.
	direct := pl.EstimateCostUSD(src, dst, src, 1<<30, 8, 5, 0, 0)
	relay := pl.EstimateCostUSD(src, dst, "aws:us-east-2", 1<<30, 8, 5, 0, 0)
	if relay <= direct {
		t.Fatalf("two-hop relay (%v) must cost more than direct (%v)", relay, direct)
	}
	// More functions cost more (invocations + pool ops at same est).
	few := pl.EstimateCostUSD(src, dst, src, 1<<30, 2, 5, 0, 0)
	many := pl.EstimateCostUSD(src, dst, src, 1<<30, 256, 5, 0, 0)
	if many <= few {
		t.Fatalf("n=256 (%v) must cost more than n=2 (%v)", many, few)
	}
	// Single-function plans pay no part-pool operations.
	single := pl.EstimateCostUSD(src, dst, src, 1<<30, 1, 20, 0, 0)
	if single >= many {
		t.Fatalf("single (%v) should undercut massive parallelism (%v)", single, many)
	}
}
