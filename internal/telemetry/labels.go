package telemetry

import (
	"sort"
	"strings"
	"sync"
)

// Label is one key=value dimension attached to a metric family. Families
// are keyed on the canonical sorted form of their label pairs, so the
// order labels are passed in never matters.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for Label{Key: k, Value: v}.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// escapeLabelValue escapes a label value for text exposition: backslash,
// double quote and newline, matching the Prometheus text format.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// canonicalLabels renders labels as `{k1="v1",k2="v2"}` with keys sorted,
// the canonical child key used for both lookup and text output. Empty
// label sets render as "".
func canonicalLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// labelInterner caches canonical strings for the 1- and 2-label sets that
// dominate instrument lookups ({rule}, {rule,dest}, {provider,region}).
// Label is comparable, so small fixed-size arrays key the cache directly
// and a hit costs two map probes with zero allocations — at fleet scale
// (a thousand rules × a dozen families) the same label sets recur across
// every family, and re-sorting + re-rendering them per With call was the
// registry's dominant allocation source. Larger sets fall through to
// canonicalLabels; the process-wide cache is safe because the canonical
// form depends only on the labels themselves.
type labelInterner struct {
	mu  sync.Mutex
	one map[[1]Label]string
	two map[[2]Label]string
}

var interned = labelInterner{
	one: make(map[[1]Label]string),
	two: make(map[[2]Label]string),
}

// key returns the canonical child key for labels, interning small sets.
func (in *labelInterner) key(labels []Label) string {
	switch len(labels) {
	case 0:
		return ""
	case 1:
		k := [1]Label{labels[0]}
		in.mu.Lock()
		s, ok := in.one[k]
		if !ok {
			s = canonicalLabels(labels)
			in.one[k] = s
		}
		in.mu.Unlock()
		return s
	case 2:
		k := [2]Label{labels[0], labels[1]}
		in.mu.Lock()
		s, ok := in.two[k]
		if !ok {
			s = canonicalLabels(labels)
			in.two[k] = s
		}
		in.mu.Unlock()
		return s
	}
	return canonicalLabels(labels)
}

// family is one named instrument family: an aggregate plus the labelled
// children that roll every update up into it at write time, so readers of
// the plain name (Registry.Counter/Gauge/Histogram) see the exact total
// while the children carry the per-dimension breakdown. A nil *family
// returns nil instruments, which no-op.
type family[T any] struct {
	agg      *T
	newChild func(agg *T) *T
	mu       sync.Mutex
	children map[string]*T
}

// CounterVec is a family of counters sharing one name, distinguished by
// labels. With returns an ordinary *Counter, so hot paths hold the child
// once and pay the same allocation-free cost as an unlabelled counter.
type CounterVec = family[Counter]

// GaugeVec is a family of gauges sharing one name, distinguished by
// labels. Its aggregate is the sum of its children.
type GaugeVec = family[Gauge]

// HistogramVec is a family of histograms sharing one name and bucket
// layout, distinguished by labels.
type HistogramVec = family[Histogram]

// With returns the child for the given labels, creating it on first use;
// with no labels it returns the family's aggregate.
func (f *family[T]) With(labels ...Label) *T {
	if f == nil {
		return nil
	}
	if len(labels) == 0 {
		return f.agg
	}
	key := interned.key(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = f.newChild(f.agg)
		f.children[key] = c
	}
	return c
}

// each visits the aggregate (labels "") and every child with its
// canonical label string.
func (f *family[T]) each(fn func(labels string, inst *T)) {
	fn("", f.agg)
	f.mu.Lock()
	defer f.mu.Unlock()
	for labels, c := range f.children {
		fn(labels, c)
	}
}

// lookup returns m[name], creating the family on first use. Hot paths
// look instruments up by name, so a hit must not allocate: newAgg is only
// called here (a capturing closure stays on the caller's stack) and
// newChild, which the family keeps, captures nothing.
func lookup[T any](r *Registry, m map[string]*family[T], name string, newAgg func() *T, newChild func(agg *T) *T) *family[T] {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := m[name]
	if !ok {
		f = &family[T]{agg: newAgg(), newChild: newChild, children: make(map[string]*T)}
		m[name] = f
	}
	return f
}

// CounterVec returns the named counter family, creating it on first use.
func (r *Registry) CounterVec(name string) *CounterVec {
	if r == nil {
		return nil
	}
	return lookup(r, r.counters, name,
		func() *Counter { return &Counter{} },
		func(agg *Counter) *Counter { return &Counter{agg: agg} })
}

// GaugeVec returns the named gauge family, creating it on first use.
func (r *Registry) GaugeVec(name string) *GaugeVec {
	if r == nil {
		return nil
	}
	return lookup(r, r.gauges, name,
		func() *Gauge { return &Gauge{} },
		func(agg *Gauge) *Gauge { return &Gauge{agg: agg} })
}

// HistogramVec returns the named histogram family with the default
// latency buckets, creating it on first use.
func (r *Registry) HistogramVec(name string) *HistogramVec {
	return r.HistogramVecBuckets(name, nil)
}

// HistogramVecBuckets is HistogramVec with explicit bucket bounds
// (applied only on first creation).
func (r *Registry) HistogramVecBuckets(name string, bounds []float64) *HistogramVec {
	if r == nil {
		return nil
	}
	return lookup(r, r.hists, name,
		func() *Histogram { return NewHistogram(bounds) },
		func(agg *Histogram) *Histogram { return newHistogram(agg.bounds, agg) })
}
