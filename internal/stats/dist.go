// Package stats implements the probability machinery behind AReplica's
// distribution-aware performance model (§5.3 of the paper): Normal
// distributions with quantiles, sums and scaling, the exact distribution
// of the maximum of n i.i.d. Normals, and empirical distributions over
// sorted samples.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// Dist is a one-dimensional probability distribution.
type Dist interface {
	// Mean returns the expected value.
	Mean() float64
	// Std returns the standard deviation.
	Std() float64
	// Quantile returns x such that P(X <= x) = p, for p in (0, 1).
	Quantile(p float64) float64
	// Sample draws one value using rng.
	Sample(rng *rand.Rand) float64
}

// Normal is a Gaussian distribution with mean Mu and standard deviation
// Sigma. Sigma must be non-negative; Sigma == 0 describes a constant.
type Normal struct {
	Mu    float64
	Sigma float64
}

// N is shorthand for Normal{mu, sigma}.
func N(mu, sigma float64) Normal { return Normal{Mu: mu, Sigma: sigma} }

// Mean returns Mu.
func (n Normal) Mean() float64 { return n.Mu }

// Std returns Sigma.
func (n Normal) Std() float64 { return n.Sigma }

// Quantile returns the p-quantile of the distribution.
func (n Normal) Quantile(p float64) float64 {
	if n.Sigma == 0 {
		return n.Mu
	}
	return n.Mu + n.Sigma*math.Sqrt2*erfinv(2*p-1)
}

// Sample draws one value.
func (n Normal) Sample(rng *rand.Rand) float64 {
	return n.Mu + n.Sigma*rng.NormFloat64()
}

// CDF returns P(X <= x).
func (n Normal) CDF(x float64) float64 {
	if n.Sigma == 0 {
		if x < n.Mu {
			return 0
		}
		return 1
	}
	return 0.5 * (1 + math.Erf((x-n.Mu)/(n.Sigma*math.Sqrt2)))
}

// Plus returns the distribution of the sum of two independent Normals.
func (n Normal) Plus(o Normal) Normal {
	return Normal{Mu: n.Mu + o.Mu, Sigma: math.Hypot(n.Sigma, o.Sigma)}
}

// Scale returns the distribution of k*X for k >= 0.
func (n Normal) Scale(k float64) Normal {
	return Normal{Mu: k * n.Mu, Sigma: math.Abs(k) * n.Sigma}
}

// String implements fmt.Stringer.
func (n Normal) String() string {
	return fmt.Sprintf("N(%.4g, %.4g)", n.Mu, n.Sigma)
}

// SumNormals returns the distribution of the sum of independent Normals.
func SumNormals(ds ...Normal) Normal {
	var mu, varSum float64
	for _, d := range ds {
		mu += d.Mu
		varSum += d.Sigma * d.Sigma
	}
	return Normal{Mu: mu, Sigma: math.Sqrt(varSum)}
}

// FitNormal estimates a Normal from samples using the sample mean and the
// unbiased sample standard deviation. It panics on an empty slice.
func FitNormal(samples []float64) Normal {
	if len(samples) == 0 {
		panic("stats: FitNormal with no samples")
	}
	var sum float64
	for _, s := range samples {
		sum += s
	}
	mu := sum / float64(len(samples))
	if len(samples) == 1 {
		return Normal{Mu: mu}
	}
	var ss float64
	for _, s := range samples {
		d := s - mu
		ss += d * d
	}
	return Normal{Mu: mu, Sigma: math.Sqrt(ss / float64(len(samples)-1))}
}

// MaxNormal is the distribution of the maximum of N independent draws of
// Base, exactly: P(max <= x) = Φ((x-μ)/σ)^N. Since max_i N(μ,σ) =
// μ + σ·M_N, where M_N is the maximum of N standard normals, everything
// that depends on N alone is computed once per N for the whole process.
// N <= 1 is Base itself.
type MaxNormal struct {
	Base Normal
	N    int
}

// Mean returns μ + σ·E[M_N].
func (m MaxNormal) Mean() float64 { return m.Base.Mu + m.Base.Sigma*stdMaxMoments(m.N).mean }

// Std returns σ·Std[M_N].
func (m MaxNormal) Std() float64 { return m.Base.Sigma * stdMaxMoments(m.N).std }

// Quantile returns the p-quantile: the max is below x exactly when all N
// draws are, so it is Base's quantile at p^(1/N).
func (m MaxNormal) Quantile(p float64) float64 {
	if m.N <= 1 {
		return m.Base.Quantile(p)
	}
	return m.Base.Quantile(math.Pow(p, 1/float64(m.N)))
}

// moments are the mean and standard deviation of M_n.
type moments struct{ mean, std float64 }

var (
	stdMaxMu   sync.Mutex
	stdMaxMemo = map[int]moments{} // a pure function of n: memoising it process-wide cannot change a result
)

// stdMaxMoments integrates z and z² against M_n's density
// n·φ(z)·Φ(z)^(n-1) by the trapezoid rule on a fixed grid. The integrand
// is analytic and vanishes with all its derivatives at both ends, where
// the rule converges geometrically: at this step the quadrature error is
// below 1e-12 for every n a planner can ask for.
func stdMaxMoments(n int) moments {
	if n <= 1 {
		return moments{mean: 0, std: 1}
	}
	stdMaxMu.Lock()
	defer stdMaxMu.Unlock()
	if m, ok := stdMaxMemo[n]; ok {
		return m
	}
	const lo, hi, h = -9.0, 10.0, 1.0 / 64
	var m1, m2 float64
	for i := 0; i <= int((hi-lo)/h); i++ {
		z := lo + float64(i)*h
		w := float64(n) * math.Exp(-z*z/2) / math.Sqrt(2*math.Pi) * math.Pow(N(0, 1).CDF(z), float64(n-1)) * h
		m1 += z * w
		m2 += z * z * w
	}
	m := moments{mean: m1, std: math.Sqrt(m2 - m1*m1)}
	stdMaxMemo[n] = m
	return m
}

// Empirical is a distribution backed by sorted samples.
type Empirical struct {
	sorted []float64
	mean   float64
	std    float64
}

// NewEmpirical builds an Empirical distribution from samples. The slice is
// copied. It panics on an empty slice.
func NewEmpirical(samples []float64) *Empirical {
	if len(samples) == 0 {
		panic("stats: NewEmpirical with no samples")
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	fit := FitNormal(s)
	return &Empirical{sorted: s, mean: fit.Mu, std: fit.Sigma}
}

// Mean returns the sample mean.
func (e *Empirical) Mean() float64 { return e.mean }

// Std returns the sample standard deviation.
func (e *Empirical) Std() float64 { return e.std }

// Quantile returns the p-quantile using linear interpolation between order
// statistics.
func (e *Empirical) Quantile(p float64) float64 {
	n := len(e.sorted)
	if n == 1 {
		return e.sorted[0]
	}
	if p <= 0 {
		return e.sorted[0]
	}
	if p >= 1 {
		return e.sorted[n-1]
	}
	pos := p * float64(n-1)
	i := int(pos)
	frac := pos - float64(i)
	if i >= n-1 {
		return e.sorted[n-1]
	}
	return e.sorted[i]*(1-frac) + e.sorted[i+1]*frac
}

// Sample draws a random element (bootstrap sampling).
func (e *Empirical) Sample(rng *rand.Rand) float64 {
	return e.sorted[rng.Intn(len(e.sorted))]
}

// erfinv computes the inverse error function using the rational
// approximation of Giles (2012), accurate to ~1e-9 over (-1, 1).
func erfinv(x float64) float64 {
	if x <= -1 {
		return math.Inf(-1)
	}
	if x >= 1 {
		return math.Inf(1)
	}
	w := -math.Log((1 - x) * (1 + x))
	var p float64
	if w < 6.25 {
		w -= 3.125
		p = -3.6444120640178196996e-21
		p = -1.685059138182016589e-19 + p*w
		p = 1.2858480715256400167e-18 + p*w
		p = 1.115787767802518096e-17 + p*w
		p = -1.333171662854620906e-16 + p*w
		p = 2.0972767875968561637e-17 + p*w
		p = 6.6376381343583238325e-15 + p*w
		p = -4.0545662729752068639e-14 + p*w
		p = -8.1519341976054721522e-14 + p*w
		p = 2.6335093153082322977e-12 + p*w
		p = -1.2975133253453532498e-11 + p*w
		p = -5.4154120542946279317e-11 + p*w
		p = 1.051212273321532285e-09 + p*w
		p = -4.1126339803469836976e-09 + p*w
		p = -2.9070369957882005086e-08 + p*w
		p = 4.2347877827932403518e-07 + p*w
		p = -1.3654692000834678645e-06 + p*w
		p = -1.3882523362786468719e-05 + p*w
		p = 0.0001867342080340571352 + p*w
		p = -0.00074070253416626697512 + p*w
		p = -0.0060336708714301490533 + p*w
		p = 0.24015818242558961693 + p*w
		p = 1.6536545626831027356 + p*w
	} else if w < 16 {
		w = math.Sqrt(w) - 3.25
		p = 2.2137376921775787049e-09
		p = 9.0756561938885390979e-08 + p*w
		p = -2.7517406297064545428e-07 + p*w
		p = 1.8239629214389227755e-08 + p*w
		p = 1.5027403968909827627e-06 + p*w
		p = -4.013867526981545969e-06 + p*w
		p = 2.9234449089955446044e-06 + p*w
		p = 1.2475304481671778723e-05 + p*w
		p = -4.7318229009055733981e-05 + p*w
		p = 6.8284851459573175448e-05 + p*w
		p = 2.4031110387097893999e-05 + p*w
		p = -0.0003550375203628474796 + p*w
		p = 0.00095328937973738049703 + p*w
		p = -0.0016882755560235047313 + p*w
		p = 0.0024914420961078508066 + p*w
		p = -0.0037512085075692412107 + p*w
		p = 0.005370914553590063617 + p*w
		p = 1.0052589676941592334 + p*w
		p = 3.0838856104922207635 + p*w
	} else {
		w = math.Sqrt(w) - 5
		p = -2.7109920616438573243e-11
		p = -2.5556418169965252055e-10 + p*w
		p = 1.5076572693500548083e-09 + p*w
		p = -3.7894654401267369937e-09 + p*w
		p = 7.6157012080783393804e-09 + p*w
		p = -1.4960026627149240478e-08 + p*w
		p = 2.9147953450901080826e-08 + p*w
		p = -6.7711997758452339498e-08 + p*w
		p = 2.2900482228026654717e-07 + p*w
		p = -9.9298272942317002539e-07 + p*w
		p = 4.5260625972231537039e-06 + p*w
		p = -1.9681778105531670567e-05 + p*w
		p = 7.5995277030017761139e-05 + p*w
		p = -0.00021503011930044477347 + p*w
		p = -0.00013871931833623122026 + p*w
		p = 1.0103004648645343977 + p*w
		p = 4.8499064014085844221 + p*w
	}
	return p * x
}

// Percentile returns the q-th percentile (0-100) of values using the same
// interpolation as Empirical.Quantile. It copies and sorts values.
func Percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	return NewEmpirical(values).Quantile(q / 100)
}

// Mean returns the arithmetic mean of values, or NaN if empty.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// StdDev returns the unbiased sample standard deviation of values.
func StdDev(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	return FitNormal(values).Sigma
}
