// Package trace generates and replays IBM-COS-like object storage
// workloads. The paper's analysis of the public IBM Cloud Object Storage
// traces (§2) drives the generator's two defining properties:
//
//   - Object sizes are highly skewed: ~80% of PUT requests are ≤ 1 MB, over
//     99.99% are below 1 GB, yet most bytes live in the large tail (Fig. 2).
//   - Request rates swing sharply minute to minute, with transient bursts
//     several times the base rate (Fig. 3).
//
// The real traces are proprietary downloads (SNIA IOTTA); this generator
// reproduces their published distributional shape so replay exercises the
// same system behaviour.
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/simclock"
	"repro/internal/simrand"
)

// OpType is a trace operation kind.
type OpType string

// Operation kinds.
const (
	OpPut    OpType = "PUT"
	OpDelete OpType = "DELETE"
)

// Op is one trace record.
type Op struct {
	At   time.Duration // offset from trace start
	Type OpType
	Key  string
	Size int64 // PUT payload size; zero for DELETE
}

// sizeBucket is one band of the PUT size distribution.
type sizeBucket struct {
	lo, hi int64   // [lo, hi) bytes
	weight float64 // fraction of PUT requests
}

// sizeBuckets approximates Figure 2's count distribution: ~80% of PUTs at
// or below 1 MB, a heavy-capacity tail above, and a trace-wide maximum
// below 10 GB (99.99% of objects are < 1 GB).
var sizeBuckets = []sizeBucket{
	{1, 128, 0.04},
	{128, 1 << 10, 0.14},
	{1 << 10, 10 << 10, 0.22},
	{10 << 10, 100 << 10, 0.24},
	{100 << 10, 1 << 20, 0.16},
	{1 << 20, 10 << 20, 0.10},
	{10 << 20, 100 << 20, 0.06},
	{100 << 20, 1 << 30, 0.0399},
	{1 << 30, 10 << 30, 0.0001},
}

// SampleSize draws one PUT size from the calibrated distribution
// (log-uniform within the chosen bucket).
func SampleSize(rng *rand.Rand) int64 {
	u := rng.Float64()
	for _, b := range sizeBuckets {
		if u < b.weight {
			lo, hi := math.Log(float64(b.lo)), math.Log(float64(b.hi))
			return int64(math.Exp(lo + rng.Float64()*(hi-lo)))
		}
		u -= b.weight
	}
	last := sizeBuckets[len(sizeBuckets)-1]
	return last.lo
}

// Config parameterizes trace generation.
type Config struct {
	Duration       time.Duration
	BaseRatePerMin float64 // long-run average operations per minute
	// BurstFactor is the peak-to-base rate ratio during bursts; BurstProb
	// is the per-minute probability a burst starts.
	BurstFactor float64
	BurstProb   float64
	// Keys is the working-set size; key popularity is Zipf-like.
	Keys int
	// DeleteFraction of operations are DELETEs of previously PUT keys.
	DeleteFraction float64
	Seed           string
}

// DefaultConfig returns a busy-hour configuration resembling the paper's
// 60-minute IBM COS segment, scaled by rate.
func DefaultConfig(duration time.Duration, ratePerMin float64) Config {
	return Config{
		Duration:       duration,
		BaseRatePerMin: ratePerMin,
		BurstFactor:    4.0,
		BurstProb:      0.08,
		Keys:           5000,
		DeleteFraction: 0.04,
		Seed:           "ibm-cos",
	}
}

// Generate produces a trace: a time-ordered sequence of PUT/DELETE
// operations with bursty per-minute rates and skewed sizes. Key popularity
// is Zipf-like, and each key has a *sticky* characteristic size — an
// object is rewritten at roughly its previous size, as in real object
// stores — with the hottest keys biased small (frequently-rewritten
// objects are manifests, indexes and counters, not gigabyte archives).
func Generate(cfg Config) []Op {
	rng := simrand.New("trace", cfg.Seed)
	if cfg.Keys <= 0 {
		cfg.Keys = 1000
	}
	// Popularity is Zipf-like with a flattened head (v=50): even the
	// hottest object of a busy tenant sees well under 1% of all requests,
	// as in multi-tenant production traces.
	zipf := rand.NewZipf(rng, 1.1, 50, uint64(cfg.Keys-1))
	hotCutoff := uint64(cfg.Keys / 100)
	if hotCutoff < 16 {
		hotCutoff = 16
	}
	baseSize := make(map[uint64]int64)
	sizeFor := func(rank uint64) int64 {
		base, ok := baseSize[rank]
		if !ok {
			base = SampleSize(rng)
			if rank < hotCutoff {
				// Frequently-rewritten objects are manifest/index-sized,
				// not gigabyte archives.
				for base > 32<<20 {
					base = SampleSize(rng)
				}
			}
			baseSize[rank] = base
		}
		// Rewrites land near the previous size.
		size := int64(float64(base) * (0.8 + 0.45*rng.Float64()))
		if size < 1 {
			size = 1
		}
		return size
	}

	var ops []Op
	minutes := int(cfg.Duration.Minutes() + 0.5)
	burstLeft := 0
	// A slow random walk modulates the base rate (Fig. 3's drift).
	walk := 1.0
	for m := 0; m < minutes; m++ {
		walk *= 1 + 0.2*(rng.Float64()-0.5)
		if walk < 0.4 {
			walk = 0.4
		}
		if walk > 2.0 {
			walk = 2.0
		}
		rate := cfg.BaseRatePerMin * walk
		if burstLeft > 0 {
			rate *= cfg.BurstFactor
			burstLeft--
		} else if rng.Float64() < cfg.BurstProb {
			burstLeft = 1 + rng.Intn(3)
		}
		n := poisson(rng, rate)
		for i := 0; i < n; i++ {
			at := time.Duration(m)*time.Minute + simclock.Scale(time.Minute, rng.Float64())
			rank := zipf.Uint64()
			key := fmt.Sprintf("obj-%05d", rank)
			if rng.Float64() < cfg.DeleteFraction {
				ops = append(ops, Op{At: at, Type: OpDelete, Key: key})
			} else {
				ops = append(ops, Op{At: at, Type: OpPut, Key: key, Size: sizeFor(rank)})
			}
		}
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].At < ops[j].At })
	return ops
}

// poisson draws a Poisson variate (Knuth's method for small lambda, normal
// approximation for large).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 500 {
		v := lambda + math.Sqrt(lambda)*rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for p > l {
		k++
		p *= rng.Float64()
	}
	return k - 1
}

// SizeHistogram buckets PUT requests by size for Figure 2, returning
// per-bucket request counts and capacity (bytes).
func SizeHistogram(ops []Op) (labels []string, counts []int64, capacity []int64) {
	edges := []int64{128, 1 << 10, 10 << 10, 100 << 10, 1 << 20, 10 << 20, 100 << 20, 1 << 30, 10 << 30}
	labels = []string{"<128B", "128B-1K", "1K-10K", "10K-100K", "100K-1M", "1M-10M", "10M-100M", "100M-1G", "1G-10G"}
	counts = make([]int64, len(labels))
	capacity = make([]int64, len(labels))
	for _, op := range ops {
		if op.Type != OpPut {
			continue
		}
		i := sort.Search(len(edges), func(i int) bool { return op.Size < edges[i] })
		if i >= len(labels) {
			i = len(labels) - 1
		}
		counts[i]++
		capacity[i] += op.Size
	}
	return labels, counts, capacity
}

// ThroughputSeries returns per-minute written MB/s for Figure 3.
func ThroughputSeries(ops []Op) []float64 {
	var maxMin int
	for _, op := range ops {
		if m := int(op.At.Minutes()); m > maxMin {
			maxMin = m
		}
	}
	series := make([]float64, maxMin+1)
	for _, op := range ops {
		if op.Type == OpPut {
			series[int(op.At.Minutes())] += float64(op.Size)
		}
	}
	for i := range series {
		series[i] /= 60 * 1e6 // bytes/min -> MB/s
	}
	return series
}
