package model

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cloud"
	"repro/internal/simrand"
	"repro/internal/stats"
)

const (
	src = cloud.RegionID("aws:us-east-1")
	dst = cloud.RegionID("azure:eastus")
)

// fitted returns a model with hand-set parameters resembling a profiled
// AWS→Azure path executed at the source.
func fitted() *Model {
	m := New()
	m.SetLoc(src, LocParams{
		I: stats.N(0.008, 0.002),
		D: stats.N(0.25, 0.08),
		P: stats.N(0.15, 0.05),
	})
	m.SetLoc(dst, LocParams{
		I: stats.N(0.012, 0.004),
		D: stats.N(0.60, 0.20),
		P: stats.N(2.5, 1.4),
	})
	m.SetPath(PathKey{src, dst, src}, PathParams{
		S:  stats.N(0.30, 0.08),
		C:  ChunkTime{Mu: 0.12, Between: 0.02, Within: 0.02}, // seconds per 8 MB chunk
		Cp: ChunkTime{Mu: 0.13, Between: 0.022, Within: 0.025},
	})
	m.SetPath(PathKey{src, dst, dst}, PathParams{
		S:  stats.N(0.40, 0.15),
		C:  ChunkTime{Mu: 0.18, Between: 0.05, Within: 0.05},
		Cp: ChunkTime{Mu: 0.19, Between: 0.055, Within: 0.055},
	})
	return m
}

func TestChunks(t *testing.T) {
	m := New()
	cases := []struct {
		size int64
		want int64
	}{
		{0, 0}, {1, 1}, {DefaultChunk, 1}, {DefaultChunk + 1, 2}, {1 << 30, 128},
	}
	for _, c := range cases {
		if got := m.Chunks(c.size); got != c.want {
			t.Errorf("Chunks(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

func TestSingleLocalOmitsStartup(t *testing.T) {
	m := fitted()
	local, err := m.ReplTime(src, dst, src, 1<<20, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := m.ReplTime(src, dst, src, 1<<20, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	// Local skips I+D (~0.26 s).
	diff := remote.Mean() - local.Mean()
	if diff < 0.2 || diff > 0.4 {
		t.Errorf("remote-local mean gap = %v, want ~0.26", diff)
	}
}

func TestSingleFunctionScalesWithSize(t *testing.T) {
	m := fitted()
	small, _ := m.ReplTime(src, dst, src, 8<<20, 1, true)
	big, _ := m.ReplTime(src, dst, src, 128<<20, 1, true)
	// 16x the chunks: transfer-dominated times should grow roughly 16x
	// minus the shared setup.
	if big.Mean() <= small.Mean()*4 {
		t.Errorf("scaling too weak: 8MB=%v 128MB=%v", small.Mean(), big.Mean())
	}
	// 1 GB single function ~ 128 chunks * 0.12 + 0.3 ≈ 15.7 s.
	gb, _ := m.ReplTime(src, dst, src, 1<<30, 1, true)
	if gb.Mean() < 10 || gb.Mean() > 25 {
		t.Errorf("1GB single mean = %v", gb.Mean())
	}
}

func TestParallelismReducesTime(t *testing.T) {
	m := fitted()
	prev := 1e18
	for _, n := range []int{1, 4, 16, 64} {
		d, err := m.ReplTime(src, dst, src, 1<<30, n, false)
		if err != nil {
			t.Fatal(err)
		}
		q := d.Quantile(0.9)
		if q >= prev {
			t.Errorf("n=%d p90=%v did not improve on %v", n, q, prev)
		}
		prev = q
	}
}

func TestDiminishingReturnsFromInvocationCost(t *testing.T) {
	// For a small object, huge parallelism hurts: I·n dominates.
	m := fitted()
	few, _ := m.ReplTime(src, dst, src, 8<<20, 2, false)
	many, _ := m.ReplTime(src, dst, src, 8<<20, 512, false)
	if many.Quantile(0.9) <= few.Quantile(0.9) {
		t.Errorf("512 functions for 8MB should be slower: few=%v many=%v",
			few.Quantile(0.9), many.Quantile(0.9))
	}
}

func TestParallelQuantileIsConservative(t *testing.T) {
	// The quantile (sum of component quantiles) must be >= the quantile
	// of a proper convolution, i.e. an overestimate.
	m := fitted()
	d, _ := m.ReplTime(src, dst, src, 1<<30, 32, false)
	if d.Quantile(0.99) < d.Mean() {
		t.Error("p99 below the mean")
	}
	if d.Quantile(0.99) <= d.Quantile(0.5) {
		t.Error("quantiles must increase")
	}
}

// monteCarloMax is the test's oracle: the distribution of the max of n
// draws of base, by brute force. The model used to predict this way.
func monteCarloMax(rng *rand.Rand, base stats.Normal, n, rounds int) *stats.Empirical {
	samples := make([]float64, rounds)
	for r := range samples {
		maxV := math.Inf(-1)
		for i := 0; i < n; i++ {
			maxV = math.Max(maxV, base.Sample(rng))
		}
		samples[r] = maxV
	}
	return stats.NewEmpirical(samples)
}

// bareTransfer is fitted() with a free, instant T_func, so a distributed
// prediction is the max over n per-instance transfers and nothing else.
// Every replicator gets perInst chunks whatever n is.
func bareTransfer(t *testing.T, n int, perInst int64) (Dist, stats.Normal) {
	t.Helper()
	m := fitted()
	m.SetLoc(src, LocParams{})
	d, err := m.ReplTime(src, dst, src, int64(n)*perInst*DefaultChunk, n, false)
	if err != nil {
		t.Fatal(err)
	}
	pp, _ := m.Path(PathKey{src, dst, src})
	return d, perInstTransfer(pp, perInst, 1, false)
}

// TestMaxOfNMatchesMonteCarlo: the closed form and a 200 k-round
// simulation of the same max agree to within the simulation's own
// sampling error, at every parallelism the planner sweeps.
func TestMaxOfNMatchesMonteCarlo(t *testing.T) {
	rounds := 200_000
	if testing.Short() {
		rounds = 20_000
	}
	const tol = 5 // standard errors; the seed is fixed, so this cannot flake
	rng := simrand.New("model-test-mc")
	for n := 2; n <= 512; n *= 2 {
		d, base := bareTransfer(t, n, 4)
		mc := monteCarloMax(rng, base, n, rounds)
		r := float64(rounds)
		check := func(what string, got, want, se float64) {
			if math.Abs(got-want) > tol*se {
				t.Errorf("n=%d %s: closed form %v, Monte Carlo %v (±%v)", n, what, got, want, se)
			}
		}
		check("mean", d.Mean(), mc.Mean(), mc.Std()/math.Sqrt(r))
		// The max is right-skewed (kurtosis up to Gumbel's 5.4), so the
		// sample std's error is about 1.1·std/sqrt(R), not std/sqrt(2R).
		check("std", d.Std(), mc.Std(), 1.1*mc.Std()/math.Sqrt(r))
		for _, p := range []float64{0.5, 0.9, 0.99} {
			// se of a sample quantile: sqrt(p(1-p)/R) over the density
			// there, and the max's density is n·f(x)·F(x)^(n-1).
			x := d.Quantile(p)
			z := (x - base.Mu) / base.Sigma
			density := float64(n) * math.Exp(-z*z/2) / (base.Sigma * math.Sqrt(2*math.Pi)) * math.Pow(base.CDF(x), float64(n-1))
			check(fmt.Sprintf("p%g", 100*p), x, mc.Quantile(p), math.Sqrt(p*(1-p)/r)/density)
		}
	}
}

// TestMaxOfNMonotoneInN: with the same work per replicator, waiting for
// more replicators can only take longer.
func TestMaxOfNMonotoneInN(t *testing.T) {
	var prev Dist
	for n := 2; n <= 1024; n *= 2 {
		d, _ := bareTransfer(t, n, 4)
		if n > 2 {
			for _, p := range []float64{0.1, 0.5, 0.99} {
				if d.Quantile(p) <= prev.Quantile(p) {
					t.Errorf("p=%v: max over %d = %v, over %d = %v", p, n, d.Quantile(p), n/2, prev.Quantile(p))
				}
			}
			if d.Mean() <= prev.Mean() {
				t.Errorf("mean of max over %d = %v, over %d = %v", n, d.Mean(), n/2, prev.Mean())
			}
			if d.Std() >= prev.Std() {
				t.Errorf("std of max over %d = %v did not narrow from %v", n, d.Std(), prev.Std())
			}
		}
		prev = d
	}
}

// TestSingleFunctionIsThePlainNormal: n = 1 has no max in it. The
// prediction is the Normal sum of its terms bit for bit, which is what
// keeps every single-function plan where it was.
func TestSingleFunctionIsThePlainNormal(t *testing.T) {
	m := fitted()
	lp, _ := m.Loc(src)
	pp, _ := m.Path(PathKey{src, dst, src})
	transfer := pp.S.Plus(pp.C.OverK(3))
	for _, c := range []struct {
		local bool
		want  stats.Normal
	}{{true, transfer}, {false, stats.SumNormals(lp.I, lp.D, transfer)}} {
		d, err := m.ReplTime(src, dst, src, 3*DefaultChunk, 1, c.local)
		if err != nil {
			t.Fatal(err)
		}
		if d.Mean() != c.want.Mu || d.Std() != c.want.Sigma || d.Quantile(0.99) != c.want.Quantile(0.99) {
			t.Errorf("local=%v: got (%v, %v, p99 %v), want %v", c.local, d.Mean(), d.Std(), d.Quantile(0.99), c.want)
		}
	}
	if one := (stats.MaxNormal{Base: transfer, N: 1}); one.Mean() != transfer.Mu || one.Std() != transfer.Sigma || one.Quantile(0.9) != transfer.Quantile(0.9) {
		t.Errorf("the max of one draw is not the draw: %v vs %v", one, transfer)
	}
}

// TestSetPathChangesTheNextPrediction: there is nothing to invalidate —
// a refreshed parameter is simply what the next prediction reads.
func TestSetPathChangesTheNextPrediction(t *testing.T) {
	m := fitted()
	key := PathKey{src, dst, src}
	before, _ := m.ReplTime(src, dst, src, 1<<30, 32, false)
	again, _ := m.ReplTime(src, dst, src, 1<<30, 32, false)
	if before != again {
		t.Errorf("the same question got two answers: %v then %v", before, again)
	}
	pp, _ := m.Path(key)
	pp.Cp = pp.Cp.Scale(2)
	m.SetPath(key, pp)
	after, _ := m.ReplTime(src, dst, src, 1<<30, 32, false)
	// 4 chunks a replicator: doubling C' adds 4·0.13 s to each one's mean.
	if gain := after.Quantile(0.9) - before.Quantile(0.9); gain < 0.5 {
		t.Errorf("doubling C' moved p90 by %v s: %v -> %v", gain, before.Quantile(0.9), after.Quantile(0.9))
	}
	if other, _ := m.ReplTime(src, dst, dst, 1<<30, 32, false); other.Mean() <= 0 || other == after {
		t.Errorf("the destination-side path answered %v", other)
	}
}

// BenchmarkReplTimeDistributed times one distributed prediction with its
// quantile and moments, as the planner's sweep asks for them: sizes never
// repeat, so nothing keyed on the size could help.
func BenchmarkReplTimeDistributed(b *testing.B) {
	m := fitted()
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		d, err := m.ReplTimeOpts(src, dst, src, 1<<30+int64(i), 64, false, Opts{Chunk: 16 << 20})
		if err != nil {
			b.Fatal(err)
		}
		sink += d.Quantile(0.99) + d.Mean() + d.Std()
	}
	if sink == 0 {
		b.Fatal("no prediction")
	}
}

func TestUnprofiledErrors(t *testing.T) {
	m := New()
	if _, err := m.ReplTime(src, dst, src, 1, 1, true); err == nil {
		t.Error("unprofiled region should error")
	}
	m.SetLoc(src, LocParams{})
	if _, err := m.ReplTime(src, dst, src, 1, 1, true); err == nil {
		t.Error("unprofiled path should error")
	}
	if _, err := m.ReplTime(src, dst, src, 1, 0, true); err == nil {
		t.Error("n=0 should error")
	}
}

func TestNotifyRoundTrip(t *testing.T) {
	m := New()
	want := stats.N(0.35, 0.1)
	m.SetNotify(src, want)
	if got := m.Notify(src); got != want {
		t.Errorf("Notify = %v", got)
	}
	if got := m.Notify(dst); got.Mu != 0 {
		t.Errorf("unprofiled notify = %v, want zero", got)
	}
}

func TestDestinationSideSlower(t *testing.T) {
	// With these parameters the Azure side is slower and more variable;
	// the model must preserve that ordering (basis of Fig. 20).
	m := fitted()
	atSrc, _ := m.ReplTime(src, dst, src, 128<<20, 8, false)
	atDst, _ := m.ReplTime(src, dst, dst, 128<<20, 8, false)
	if atSrc.Quantile(0.9) >= atDst.Quantile(0.9) {
		t.Errorf("src-side should win here: src=%v dst=%v", atSrc.Quantile(0.9), atDst.Quantile(0.9))
	}
}
