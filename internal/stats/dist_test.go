package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestNormalQuantileStandard(t *testing.T) {
	n := N(0, 1)
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.8413447, 1},       // Phi(1)
		{0.9772499, 2},       // Phi(2)
		{0.0227501, -2},      // Phi(-2)
		{0.99, 2.3263479},    // standard normal 99th percentile
		{0.999, 3.0902323},   // 99.9th
		{0.9999, 3.7190165},  // 99.99th
		{0.95, 1.6448536},    // 95th
		{0.05, -1.6448536},   // 5th
		{0.975, 1.959963985}, // 97.5th
	}
	for _, c := range cases {
		if got := n.Quantile(c.p); !almostEqual(got, c.want, 1e-5) {
			t.Errorf("Quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestNormalQuantileShiftScale(t *testing.T) {
	n := N(10, 2)
	if got := n.Quantile(0.5); !almostEqual(got, 10, 1e-9) {
		t.Errorf("median = %v, want 10", got)
	}
	if got := n.Quantile(0.8413447); !almostEqual(got, 12, 1e-4) {
		t.Errorf("p84 = %v, want 12", got)
	}
}

func TestNormalQuantileCDFRoundTrip(t *testing.T) {
	f := func(mu float64, sigmaRaw float64, pRaw float64) bool {
		sigma := math.Mod(math.Abs(sigmaRaw), 100) + 0.01
		p := math.Mod(math.Abs(pRaw), 0.98) + 0.01
		if math.IsNaN(mu) || math.IsInf(mu, 0) {
			return true
		}
		mu = math.Mod(mu, 1e6)
		n := N(mu, sigma)
		x := n.Quantile(p)
		return almostEqual(n.CDF(x), p, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNormalConstantSigmaZero(t *testing.T) {
	n := N(5, 0)
	if n.Quantile(0.01) != 5 || n.Quantile(0.99) != 5 {
		t.Error("constant distribution should always return Mu")
	}
	if n.CDF(4.9) != 0 || n.CDF(5.1) != 1 {
		t.Error("constant CDF is a step at Mu")
	}
}

func TestNormalPlusScale(t *testing.T) {
	a, b := N(1, 3), N(2, 4)
	sum := a.Plus(b)
	if !almostEqual(sum.Mu, 3, 1e-12) || !almostEqual(sum.Sigma, 5, 1e-12) {
		t.Errorf("Plus = %v, want N(3,5)", sum)
	}
	sc := a.Scale(2)
	if !almostEqual(sc.Mu, 2, 1e-12) || !almostEqual(sc.Sigma, 6, 1e-12) {
		t.Errorf("Scale = %v, want N(2,6)", sc)
	}
}

func TestSumNormals(t *testing.T) {
	got := SumNormals(N(1, 1), N(2, 2), N(3, 2))
	if !almostEqual(got.Mu, 6, 1e-12) || !almostEqual(got.Sigma, 3, 1e-12) {
		t.Errorf("SumNormals = %v, want N(6,3)", got)
	}
}

func TestFitNormalRecoversParameters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	want := N(42, 7)
	samples := make([]float64, 20000)
	for i := range samples {
		samples[i] = want.Sample(rng)
	}
	got := FitNormal(samples)
	if !almostEqual(got.Mu, want.Mu, 0.2) || !almostEqual(got.Sigma, want.Sigma, 0.2) {
		t.Errorf("FitNormal = %v, want approx %v", got, want)
	}
}

func TestFitNormalSingleSample(t *testing.T) {
	got := FitNormal([]float64{3})
	if got.Mu != 3 || got.Sigma != 0 {
		t.Errorf("FitNormal([3]) = %v", got)
	}
}

func TestNormalSampleMatchesMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := N(-3, 0.5)
	var samples []float64
	for i := 0; i < 20000; i++ {
		samples = append(samples, n.Sample(rng))
	}
	if m := Mean(samples); !almostEqual(m, -3, 0.02) {
		t.Errorf("sample mean = %v", m)
	}
	if s := StdDev(samples); !almostEqual(s, 0.5, 0.02) {
		t.Errorf("sample std = %v", s)
	}
}

// TestMaxNormalKnownMoments checks the quadrature against the order
// statistics of the standard normal that have closed forms.
func TestMaxNormalKnownMoments(t *testing.T) {
	sqrtPi := math.Sqrt(math.Pi)
	asin3 := math.Asin(1.0 / 3)
	for _, c := range []struct {
		n          int
		mean, vari float64 // vari < 0: no closed form checked
	}{
		{2, 1 / sqrtPi, 1 - 1/math.Pi},
		{3, 3 / (2 * sqrtPi), 1 + math.Sqrt(3)/(2*math.Pi) - 9/(4*math.Pi)},
		{4, 3 / (2 * sqrtPi) * (1 + 2/math.Pi*asin3), -1},
		{5, 5 / (4 * sqrtPi) * (1 + 6/math.Pi*asin3), -1},
	} {
		m := MaxNormal{Base: N(0, 1), N: c.n}
		if !almostEqual(m.Mean(), c.mean, 1e-12) {
			t.Errorf("E[M_%d] = %.15f, want %.15f", c.n, m.Mean(), c.mean)
		}
		if c.vari >= 0 && !almostEqual(m.Std()*m.Std(), c.vari, 1e-12) {
			t.Errorf("Var[M_%d] = %.15f, want %.15f", c.n, m.Std()*m.Std(), c.vari)
		}
	}
	// Location and scale pass straight through.
	m, std := MaxNormal{Base: N(10, 2), N: 64}, MaxNormal{Base: N(0, 1), N: 64}
	if !almostEqual(m.Mean(), 10+2*std.Mean(), 1e-12) || !almostEqual(m.Std(), 2*std.Std(), 1e-12) {
		t.Errorf("max of 64 N(10,2): mean %v std %v, standard %v %v", m.Mean(), m.Std(), std.Mean(), std.Std())
	}
}

// TestMaxNormalQuantileInvertsCDF: all n draws fall below the p-quantile
// with probability exactly p.
func TestMaxNormalQuantileInvertsCDF(t *testing.T) {
	base := N(10, 2)
	for _, n := range []int{1, 2, 7, 64, 512, 4096} {
		for _, p := range []float64{0.001, 0.1, 0.5, 0.9, 0.99, 0.9999} {
			x := MaxNormal{Base: base, N: n}.Quantile(p)
			if got := math.Pow(base.CDF(x), float64(n)); !almostEqual(got, p, 1e-7) {
				t.Errorf("n=%d: P(max <= Quantile(%v)) = %v", n, p, got)
			}
		}
	}
}

func TestEmpiricalQuantiles(t *testing.T) {
	e := NewEmpirical([]float64{4, 1, 3, 2, 5})
	cases := []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.125, 1.5},
	}
	for _, c := range cases {
		if got := e.Quantile(c.p); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestEmpiricalQuantileMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	samples := make([]float64, 101)
	for i := range samples {
		samples[i] = rng.NormFloat64() * 10
	}
	e := NewEmpirical(samples)
	f := func(p1, p2 float64) bool {
		p1 = math.Mod(math.Abs(p1), 1)
		p2 = math.Mod(math.Abs(p2), 1)
		lo, hi := math.Min(p1, p2), math.Max(p1, p2)
		return e.Quantile(lo) <= e.Quantile(hi)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEmpiricalSingleSample(t *testing.T) {
	e := NewEmpirical([]float64{7})
	if e.Quantile(0.3) != 7 || e.Mean() != 7 || e.Std() != 0 {
		t.Error("single-sample empirical should be constant")
	}
}

func TestPercentileHelpers(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Percentile(vals, 50); !almostEqual(got, 5.5, 1e-9) {
		t.Errorf("p50 = %v", got)
	}
	if got := Percentile(vals, 100); got != 10 {
		t.Errorf("p100 = %v", got)
	}
	if got := Mean(vals); !almostEqual(got, 5.5, 1e-9) {
		t.Errorf("mean = %v", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) || !math.IsNaN(Mean(nil)) {
		t.Error("empty input should yield NaN")
	}
	if StdDev([]float64{1}) != 0 {
		t.Error("StdDev of one value should be 0")
	}
}

func TestErfinvRoundTrip(t *testing.T) {
	for x := -0.999; x < 1; x += 0.0501 {
		if got := math.Erf(erfinv(x)); !almostEqual(got, x, 1e-8) {
			t.Errorf("erf(erfinv(%v)) = %v", x, got)
		}
	}
	if !math.IsInf(erfinv(1), 1) || !math.IsInf(erfinv(-1), -1) {
		t.Error("erfinv at +-1 should be infinite")
	}
}

func TestLogNormalMoments(t *testing.T) {
	l := LogNormalFromMedian(1.0, 0.4)
	if !almostEqual(l.Median(), 1.0, 1e-12) {
		t.Errorf("median = %v", l.Median())
	}
	rng := rand.New(rand.NewSource(7))
	samples := make([]float64, 50000)
	for i := range samples {
		samples[i] = l.Sample(rng)
		if samples[i] <= 0 {
			t.Fatal("lognormal sample must be positive")
		}
	}
	if got := Mean(samples); !almostEqual(got, l.Mean(), 0.02) {
		t.Errorf("sample mean %v vs analytic %v", got, l.Mean())
	}
	if got := StdDev(samples); !almostEqual(got, l.Std(), 0.05) {
		t.Errorf("sample std %v vs analytic %v", got, l.Std())
	}
	if got := Percentile(samples, 50); !almostEqual(got, 1.0, 0.02) {
		t.Errorf("sample median %v", got)
	}
}

func TestLogNormalQuantile(t *testing.T) {
	l := LogNormalFromMedian(2, 0.5)
	if got := l.Quantile(0.5); !almostEqual(got, 2, 1e-9) {
		t.Errorf("median quantile = %v", got)
	}
	if l.Quantile(0.9) <= l.Quantile(0.1) {
		t.Error("quantiles must be increasing")
	}
}
