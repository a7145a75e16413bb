package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is ready
// to use; a nil *Counter no-ops. A labelled family child (CounterVec.With)
// rolls every Add up into its family's aggregate.
type Counter struct {
	v   atomic.Int64
	agg *Counter // family aggregate; nil on the aggregate itself
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
		c.agg.Add(n)
	}
}

// Inc is Add(1).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable integer level. The zero value is ready to use; a
// nil *Gauge no-ops.
//
// Set stores any int64, including negative values — a gauge is a level,
// not a count, and levels such as clock skew or budget headroom can be
// negative. The high-water mark (Max) only ever rises and starts at
// zero, so a gauge that never goes positive reports Max() == 0.
//
// A labelled family child (GaugeVec.With) moves its family's aggregate by
// the same delta on every update — Set(n) by n minus the old level — so
// the aggregate is the sum of its children, with its own high-water mark.
type Gauge struct {
	v   atomic.Int64
	hw  atomic.Int64 // monotonic high-water mark of v, floored at 0
	agg *Gauge       // family aggregate; nil on the aggregate itself
}

func (g *Gauge) raiseHW(n int64) {
	for {
		cur := g.hw.Load()
		if n <= cur || g.hw.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Set stores n (negative values included; see the type comment).
func (g *Gauge) Set(n int64) {
	if g != nil {
		old := g.v.Swap(n)
		g.raiseHW(n)
		g.agg.Add(n - old)
	}
}

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.raiseHW(g.v.Add(delta))
		g.agg.Add(delta)
	}
}

// SetMax raises the gauge to n if n exceeds the current value (peak
// tracking, e.g. maximum concurrent function instances).
func (g *Gauge) SetMax(n int64) {
	if g == nil {
		return
	}
	g.raiseHW(n)
	for {
		cur := g.v.Load()
		if n <= cur {
			return
		}
		if g.v.CompareAndSwap(cur, n) {
			g.agg.Add(n - cur)
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max returns the monotonic high-water mark: the largest level the gauge
// has held since creation (or the last Registry.Reset), never below 0.
// Watermark readers use this to report peaks — e.g. maximum backlog
// depth — without sampling every transition.
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.hw.Load()
}

// atomicFloat is a float64 with atomic add/min/max via CAS on its bits.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) storeMin(v float64) {
	for {
		old := f.bits.Load()
		if v >= math.Float64frombits(old) || f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (f *atomicFloat) storeMax(v float64) {
	for {
		old := f.bits.Load()
		if v <= math.Float64frombits(old) || f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// DefaultLatencyBuckets are the histogram bounds used for latencies, in
// seconds: 1 ms doubling up to ~35 simulated minutes.
func DefaultLatencyBuckets() []float64 {
	bounds := make([]float64, 22)
	v := 0.001
	for i := range bounds {
		bounds[i] = v
		v *= 2
	}
	return bounds
}

// Histogram is a fixed-bucket histogram with lock-free observation.
// Bucket i counts observations in (bounds[i-1], bounds[i]]; an implicit
// overflow bucket catches values above the last bound. The zero value is
// not usable; create one with NewHistogram or Registry.Histogram. A nil
// *Histogram no-ops. A labelled family child (HistogramVec.With) shares
// its family aggregate's bounds and records every observation in both.
type Histogram struct {
	agg    *Histogram // family aggregate; nil on the aggregate itself
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is overflow
	count  atomic.Int64
	sum    atomicFloat
	min    atomicFloat
	max    atomicFloat
	// exemplars holds one retained-trace exemplar per bucket (incl. the
	// overflow bucket), set by the tracer's retention pipeline — never by
	// Observe — so every exposed exemplar references a kept trace.
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar links one histogram bucket to a concrete retained trace: the
// observed value, the trace ID it came from, and optional extra labels
// (rule, destination). Rendered in WritePromText's OpenMetrics-style
// exemplar syntax.
type Exemplar struct {
	Value   float64
	TraceID string
	Labels  []Label
}

// exemplarCandidate is a deferred exemplar: instrumentation nominates it
// via Span.Exemplar, and the tracer flushes it into the histogram only if
// the span's trace survives retention.
type exemplarCandidate struct {
	hist   *Histogram
	value  float64
	labels []Label
}

// NewHistogram returns a histogram over the given ascending upper bounds
// (nil means DefaultLatencyBuckets).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets()
	}
	return newHistogram(append([]float64(nil), bounds...), nil)
}

// newHistogram builds a histogram over bounds (not copied: a family's
// children share their aggregate's slice).
func newHistogram(bounds []float64, agg *Histogram) *Histogram {
	h := &Histogram{
		agg:       agg,
		bounds:    bounds,
		counts:    make([]atomic.Int64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
	h.min.store(math.Inf(1))
	h.max.store(math.Inf(-1))
	return h
}

// reset zeroes all observations in place, keeping the bucket layout.
func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sum.store(0)
	h.min.store(math.Inf(1))
	h.max.store(math.Inf(-1))
	for i := range h.exemplars {
		h.exemplars[i].Store(nil)
	}
}

// setExemplar records a retained-trace exemplar in v's bucket, replacing
// any previous one (last retained wins, which keeps output deterministic
// given the tracer's deterministic flush order). On a family child the
// exemplar lands on the child bare — its own labels already identify it —
// and on the aggregate with labels naming the child.
func (h *Histogram) setExemplar(v float64, traceID string, labels []Label) {
	if h == nil || len(h.exemplars) == 0 {
		return
	}
	idx := sort.SearchFloat64s(h.bounds, v)
	if h.agg != nil {
		h.agg.exemplars[idx].Store(&Exemplar{Value: v, TraceID: traceID, Labels: labels})
		labels = nil
	}
	h.exemplars[idx].Store(&Exemplar{Value: v, TraceID: traceID, Labels: labels})
}

// Exemplars returns the per-bucket exemplars (nil entries for buckets
// without one), aligned with BucketCounts: one per bound plus overflow.
func (h *Histogram) Exemplars() []*Exemplar {
	if h == nil {
		return nil
	}
	out := make([]*Exemplar, len(h.exemplars))
	for i := range h.exemplars {
		out[i] = h.exemplars[i].Load()
	}
	return out
}

// WorstExemplar returns the exemplar from the highest occupied bucket
// (nil when none): the retained trace behind the worst observed latency,
// which alert events link to.
func (h *Histogram) WorstExemplar() *Exemplar {
	if h == nil {
		return nil
	}
	for i := len(h.exemplars) - 1; i >= 0; i-- {
		if e := h.exemplars[i].Load(); e != nil {
			return e
		}
	}
	return nil
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	idx := sort.SearchFloat64s(h.bounds, v)
	h.record(idx, v)
	if h.agg != nil {
		h.agg.record(idx, v)
	}
}

// record counts v in bucket idx.
func (h *Histogram) record(idx int, v float64) {
	h.counts[idx].Add(1)
	h.count.Add(1)
	h.sum.add(v)
	h.min.storeMin(v)
	h.max.storeMax(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.load()
}

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.Count() == 0 {
		return 0
	}
	return h.Sum() / float64(h.Count())
}

// Min and Max return the observed extremes (0 when empty).
func (h *Histogram) Min() float64 {
	if h.Count() == 0 {
		return 0
	}
	return h.min.load()
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	if h.Count() == 0 {
		return 0
	}
	return h.max.load()
}

// BucketCounts returns the per-bucket counts including the overflow
// bucket, and the bucket bounds.
func (h *Histogram) BucketCounts() (bounds []float64, counts []int64) {
	if h == nil {
		return nil, nil
	}
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return append([]float64(nil), h.bounds...), counts
}

// Quantile estimates the p-quantile (p in [0,1]) by linear interpolation
// within the containing bucket, clamped to the observed min/max. An
// empty (or nil) histogram returns 0 for every p; p <= 0 (or NaN)
// returns the observed minimum and p >= 1 the observed maximum, so the
// estimate never leaves the observed range — including observations
// below the first bound or in the overflow bucket.
func (h *Histogram) Quantile(p float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	if !(p > 0) { // p <= 0 and NaN
		return h.Min()
	}
	if p >= 1 {
		return h.Max()
	}
	target := p * float64(n)
	var cum int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if float64(cum+c) >= target {
			// Interpolate within [lo, hi]: the bucket's bounds tightened to
			// the observed extremes. The first bucket has no lower bound and
			// the overflow bucket no upper one — without the min/max clamp a
			// single sample there would interpolate against ±infinity (or,
			// for negative observations, against a bogus 0 floor).
			lo := math.Inf(-1)
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.max.load()
			if i < len(h.bounds) && h.bounds[i] < hi {
				hi = h.bounds[i]
			}
			if mn := h.min.load(); lo < mn {
				lo = mn
			}
			if hi < lo {
				hi = lo
			}
			frac := (target - float64(cum)) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum += c
	}
	return h.Max()
}

// Registry is a named collection of counter, gauge and histogram families
// (see labels.go): one family per (kind, name). Lookups get-or-create, so
// independent packages can share instruments by name. Counter, Gauge and
// Histogram return a family's aggregate — the unlabelled instrument every
// labelled child rolls up into. A nil *Registry returns nil instruments,
// which no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*CounterVec
	gauges   map[string]*GaugeVec
	hists    map[string]*HistogramVec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*CounterVec),
		gauges:   make(map[string]*GaugeVec),
		hists:    make(map[string]*HistogramVec),
	}
}

// Reset zeroes every registered instrument in place — counters, gauges
// (level and high-water mark) and histograms, aggregates and labelled
// children alike — while keeping instrument identities, so pointers held
// by long-lived services stay valid. Back-to-back experiment runs sharing
// one process use this for snapshot isolation: without it, level gauges
// such as engine.dlq.depth or faas.running leak their final value into
// the next run's report.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.counters {
		f.each(func(_ string, c *Counter) { c.v.Store(0) })
	}
	for _, f := range r.gauges {
		f.each(func(_ string, g *Gauge) {
			g.v.Store(0)
			g.hw.Store(0)
		})
	}
	for _, f := range r.hists {
		f.each(func(_ string, h *Histogram) { h.reset() })
	}
}

// Counter returns the named counter (its family's aggregate), creating it
// on first use.
func (r *Registry) Counter(name string) *Counter { return r.CounterVec(name).With() }

// Gauge returns the named gauge (its family's aggregate), creating it on
// first use.
func (r *Registry) Gauge(name string) *Gauge { return r.GaugeVec(name).With() }

// Histogram returns the named histogram (its family's aggregate) with the
// default latency buckets, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram { return r.HistogramVec(name).With() }

// WriteText dumps every non-empty instrument as sorted plain text:
// counters and gauges as "name value", histograms with count, sum,
// extremes and interpolated p50/p95/p99. Labelled family children are
// emitted as `name{k1="v1",k2="v2"} ...` with keys in sorted order, and
// lines sort on (name, canonical labels) — the output is byte-identical
// across runs regardless of registration or goroutine interleaving.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	type line struct{ key, text string }
	var lines []line
	addInt := func(name, labels string, v int64) {
		if v != 0 {
			lines = append(lines, line{name + labels, fmt.Sprintf("%s%s %d\n", name, labels, v)})
		}
	}
	r.mu.Lock()
	for name, f := range r.counters {
		f.each(func(labels string, c *Counter) { addInt(name, labels, c.Value()) })
	}
	for name, f := range r.gauges {
		f.each(func(labels string, g *Gauge) { addInt(name, labels, g.Value()) })
	}
	for name, f := range r.hists {
		f.each(func(labels string, h *Histogram) {
			if h.Count() == 0 {
				return
			}
			lines = append(lines, line{name + labels, fmt.Sprintf(
				"%s%s count=%d sum=%.6f min=%.6f max=%.6f p50=%.6f p95=%.6f p99=%.6f\n",
				name, labels, h.Count(), h.Sum(), h.Min(), h.Max(),
				h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))})
		})
	}
	r.mu.Unlock()
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].key != lines[j].key {
			return lines[i].key < lines[j].key
		}
		return lines[i].text < lines[j].text // name shared across kinds: break ties on content
	})
	for _, l := range lines {
		if _, err := io.WriteString(w, l.text); err != nil {
			return err
		}
	}
	return nil
}
