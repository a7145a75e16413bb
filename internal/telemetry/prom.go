package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// promName sanitizes an instrument name for the Prometheus text format:
// every rune outside [a-zA-Z0-9_:] becomes '_' (the registry's dotted
// names map onto the conventional underscore hierarchy), and a leading
// digit is prefixed with '_'.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if r >= '0' && r <= '9' && i == 0 {
			b.WriteByte('_')
			b.WriteRune(r)
			continue
		}
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// mergeLabels splices extra `k="v"` pairs into a canonical label string
// (which is either empty or `{...}`), appending after the existing pairs.
func mergeLabels(canonical, extra string) string {
	if extra == "" {
		return canonical
	}
	if canonical == "" {
		return "{" + extra + "}"
	}
	return canonical[:len(canonical)-1] + "," + extra + "}"
}

// promExemplar renders an OpenMetrics exemplar suffix for one bucket
// line — ` # {trace_id="...",k="v"} value` — or "" when the bucket has
// none. The trace ID links the bucket to a trace the retention pipeline
// kept, so it is always resolvable in the matching trace export.
func promExemplar(e *Exemplar) string {
	if e == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString(` # {trace_id="`)
	b.WriteString(escapeLabelValue(e.TraceID))
	b.WriteByte('"')
	for _, l := range e.Labels {
		b.WriteByte(',')
		b.WriteString(promName(l.Key))
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteString("} ")
	b.WriteString(promFloat(e.Value))
	return b.String()
}

type promFam struct {
	name string // sanitized family name
	kind string // counter | gauge | histogram
	rows []promRow
}

type promRow struct {
	key  string // sort key within the family (canonical labels)
	text string
}

// WritePromText writes every non-empty instrument in the Prometheus text
// exposition format: one `# TYPE` header per family, counters and gauges
// as `name{labels} value`, histograms as cumulative `name_bucket{le=...}`
// series plus `name_sum` and `name_count`. Unlabelled instruments are the
// aggregate series of their family; labelled children follow with their
// canonical sorted label sets. Output is byte-deterministic: families
// sort by name and series by labels, independent of registration order.
func (r *Registry) WritePromText(w io.Writer) error {
	if r == nil {
		return nil
	}
	fams := make(map[string]*promFam)
	fam := func(name, kind string) *promFam {
		pn := promName(name)
		f, ok := fams[pn]
		if !ok {
			f = &promFam{name: pn, kind: kind}
			fams[pn] = f
		}
		return f
	}
	addCounter := func(name, labels string, c *Counter) {
		if v := c.Value(); v != 0 {
			f := fam(name, "counter")
			f.rows = append(f.rows, promRow{labels, fmt.Sprintf("%s%s %d\n", f.name, labels, v)})
		}
	}
	addGauge := func(name, labels string, g *Gauge) {
		if v := g.Value(); v != 0 {
			f := fam(name, "gauge")
			f.rows = append(f.rows, promRow{labels, fmt.Sprintf("%s%s %d\n", f.name, labels, v)})
		}
	}
	addHist := func(name, labels string, h *Histogram) {
		if h.Count() == 0 {
			return
		}
		f := fam(name, "histogram")
		var b strings.Builder
		bounds, counts := h.BucketCounts()
		exemplars := h.Exemplars()
		var cum int64
		for i, bound := range bounds {
			cum += counts[i]
			le := mergeLabels(labels, `le="`+promFloat(bound)+`"`)
			fmt.Fprintf(&b, "%s_bucket%s %d%s\n", f.name, le, cum, promExemplar(exemplars[i]))
		}
		cum += counts[len(counts)-1]
		inf := mergeLabels(labels, `le="+Inf"`)
		fmt.Fprintf(&b, "%s_bucket%s %d%s\n", f.name, inf, cum, promExemplar(exemplars[len(exemplars)-1]))
		fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, labels, promFloat(h.Sum()))
		fmt.Fprintf(&b, "%s_count%s %d\n", f.name, labels, h.Count())
		f.rows = append(f.rows, promRow{labels, b.String()})
	}
	r.mu.Lock()
	for name, f := range r.counters {
		f.each(func(labels string, c *Counter) { addCounter(name, labels, c) })
	}
	for name, f := range r.gauges {
		f.each(func(labels string, g *Gauge) { addGauge(name, labels, g) })
	}
	for name, f := range r.hists {
		f.each(func(labels string, h *Histogram) { addHist(name, labels, h) })
	}
	r.mu.Unlock()
	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := fams[n]
		sort.Slice(f.rows, func(i, j int) bool {
			if f.rows[i].key != f.rows[j].key {
				return f.rows[i].key < f.rows[j].key
			}
			return f.rows[i].text < f.rows[j].text
		})
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, row := range f.rows {
			if _, err := io.WriteString(w, row.text); err != nil {
				return err
			}
		}
	}
	return nil
}
