package trace

import (
	"sort"
	"time"

	"repro/internal/simclock"
)

// Replay drives a trace against a system under test on the virtual clock:
// each operation's apply callback runs as its own actor at the operation's
// trace time. Replay returns once every operation has been *issued*; the
// caller quiesces the clock to drain in-flight replication.
func Replay(clock *simclock.Clock, ops []Op, apply func(Op)) {
	start := clock.Now()
	for _, op := range ops {
		target := start.Add(op.At)
		if d := target.Sub(clock.Now()); d > 0 {
			clock.Sleep(d)
		}
		op := op
		clock.Go(func() { apply(op) })
	}
}

// WindowedPercentile computes a per-window percentile over (time, delay)
// samples — the paper's per-minute p99.99 replication delay (Figure 23).
// Windows with no samples carry the previous window's value.
func WindowedPercentile(times []time.Time, delays []float64, start time.Time, window time.Duration, pct float64) []float64 {
	if len(times) != len(delays) || len(times) == 0 {
		return nil
	}
	type sample struct {
		w int
		v float64
	}
	var maxW int
	samples := make([]sample, 0, len(times))
	for i, tm := range times {
		w := int(tm.Sub(start) / window)
		if w < 0 {
			w = 0
		}
		if w > maxW {
			maxW = w
		}
		samples = append(samples, sample{w: w, v: delays[i]})
	}
	byWindow := make([][]float64, maxW+1)
	for _, s := range samples {
		byWindow[s.w] = append(byWindow[s.w], s.v)
	}
	out := make([]float64, maxW+1)
	prev := 0.0
	for w, vs := range byWindow {
		if len(vs) == 0 {
			out[w] = prev
			continue
		}
		sort.Float64s(vs)
		pos := pct / 100 * float64(len(vs)-1)
		i := int(pos)
		frac := pos - float64(i)
		v := vs[i]
		if i+1 < len(vs) {
			v = vs[i]*(1-frac) + vs[i+1]*frac
		}
		out[w] = v
		prev = v
	}
	return out
}
