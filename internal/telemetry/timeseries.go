package telemetry

import (
	"sync"
	"time"
)

// Sample is one point of a virtual-time series.
type Sample struct {
	AtSeconds float64 // virtual seconds since the sampler epoch
	Value     float64
}

// Series is one tracked signal sampled at fixed virtual intervals.
type Series struct {
	Name            string
	IntervalSeconds float64
	Samples         []Sample
}

// Digest summarizes a series for compact machine-readable reports.
type Digest struct {
	Name            string  `json:"name"`
	IntervalSeconds float64 `json:"interval_s"`
	Count           int     `json:"count"`
	Min             float64 `json:"min"`
	Max             float64 `json:"max"`
	Mean            float64 `json:"mean"`
	Last            float64 `json:"last"`
}

// Digest computes the series' summary (zero value when empty).
func (s Series) Digest() Digest {
	d := Digest{Name: s.Name, IntervalSeconds: s.IntervalSeconds, Count: len(s.Samples)}
	if len(s.Samples) == 0 {
		return d
	}
	d.Min = s.Samples[0].Value
	d.Max = s.Samples[0].Value
	sum := 0.0
	for _, p := range s.Samples {
		if p.Value < d.Min {
			d.Min = p.Value
		}
		if p.Value > d.Max {
			d.Max = p.Value
		}
		sum += p.Value
	}
	d.Mean = sum / float64(len(s.Samples))
	d.Last = s.Samples[len(s.Samples)-1].Value
	return d
}

// Sampler snapshots a set of signals — typically registry counters and
// gauges — at fixed virtual intervals, producing deterministic series on
// the simulated clock.
//
// The simulator's clock only advances while actors sleep, so the sampler
// does not self-schedule (a free-running periodic timer would keep
// Clock.Quiesce from ever draining). Instead the workload driver calls
// Poll at its natural loop points; Poll back-fills one sample per
// interval boundary crossed since the previous call, each carrying the
// signal's current value. Sample k therefore sits at exactly
// epoch + k*interval of virtual time and holds the value observed at the
// first Poll at or after that boundary — deterministic for a
// deterministic workload, regardless of wall-clock scheduling.
type Sampler struct {
	mu       sync.Mutex
	now      func() time.Time
	epoch    time.Time
	interval time.Duration
	next     int // next sample index to record
	sources  []*tsSource
}

type tsSource struct {
	name string
	read func() float64
	vals []float64
}

// NewSampler returns a sampler whose epoch is now() (typically
// simclock.Clock.Now) and whose boundaries are interval apart. A
// non-positive interval defaults to one second.
func NewSampler(now func() time.Time, interval time.Duration) *Sampler {
	if now == nil {
		now = time.Now
	}
	if interval <= 0 {
		interval = time.Second
	}
	return &Sampler{now: now, epoch: now(), interval: interval}
}

// Track registers a named signal; read is called once per recorded
// sample. Registration order fixes the order of Series.
func (s *Sampler) Track(name string, read func() float64) {
	if s == nil || read == nil {
		return
	}
	s.mu.Lock()
	s.sources = append(s.sources, &tsSource{name: name, read: read, vals: make([]float64, s.next)})
	s.mu.Unlock()
}

// TrackGauge tracks a gauge's current level.
func (s *Sampler) TrackGauge(name string, g *Gauge) {
	s.Track(name, func() float64 { return float64(g.Value()) })
}

// Poll records one sample per interval boundary crossed since the last
// call (including the epoch itself on the first call). Signals that were
// registered after earlier boundaries hold zero for them.
func (s *Sampler) Poll() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	elapsed := s.now().Sub(s.epoch)
	if elapsed < 0 {
		return
	}
	last := int(elapsed / s.interval) // sample indices 0..last are due
	for s.next <= last {
		for _, src := range s.sources {
			src.vals = append(src.vals, src.read())
		}
		s.next++
	}
}

// Series returns the recorded series in registration order.
func (s *Sampler) Series() []Series {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Series, 0, len(s.sources))
	ivs := s.interval.Seconds()
	for _, src := range s.sources {
		ser := Series{Name: src.name, IntervalSeconds: ivs, Samples: make([]Sample, len(src.vals))}
		for i, v := range src.vals {
			ser.Samples[i] = Sample{AtSeconds: float64(i) * ivs, Value: v}
		}
		out = append(out, ser)
	}
	return out
}
