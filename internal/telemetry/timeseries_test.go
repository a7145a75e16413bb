package telemetry

import (
	"math"
	"testing"
	"time"
)

func TestSamplerBackfill(t *testing.T) {
	now := time.Unix(0, 0)
	s := NewSampler(func() time.Time { return now }, time.Second)
	g := &Gauge{}
	s.TrackGauge("g", g)

	g.Set(3)
	s.Poll() // epoch sample (index 0)
	g.Set(7)
	now = now.Add(2500 * time.Millisecond)
	s.Poll() // boundaries 1s and 2s crossed: back-fill two samples of 7

	series := s.Series()
	if len(series) != 1 {
		t.Fatalf("got %d series, want 1", len(series))
	}
	ser := series[0]
	if ser.Name != "g" || ser.IntervalSeconds != 1 {
		t.Fatalf("series meta wrong: %+v", ser)
	}
	want := []Sample{{0, 3}, {1, 7}, {2, 7}}
	if len(ser.Samples) != len(want) {
		t.Fatalf("got %d samples, want %d: %+v", len(ser.Samples), len(want), ser.Samples)
	}
	for i, w := range want {
		if ser.Samples[i] != w {
			t.Errorf("sample %d = %+v, want %+v", i, ser.Samples[i], w)
		}
	}

	// Polling again without time advancing records nothing new.
	s.Poll()
	if n := len(s.Series()[0].Samples); n != 3 {
		t.Errorf("redundant Poll added samples: %d", n)
	}
}

func TestSamplerLateRegistrationPadsZero(t *testing.T) {
	now := time.Unix(0, 0)
	s := NewSampler(func() time.Time { return now }, time.Second)
	s.TrackGauge("early", &Gauge{})
	s.Poll()
	now = now.Add(time.Second)
	s.Poll() // two samples recorded

	g := &Gauge{}
	g.Set(9)
	s.TrackGauge("late", g)
	now = now.Add(time.Second)
	s.Poll()

	series := s.Series()
	if len(series) != 2 {
		t.Fatalf("got %d series, want 2", len(series))
	}
	late := series[1]
	if late.Name != "late" {
		t.Fatalf("registration order not preserved: %+v", series)
	}
	want := []float64{0, 0, 9}
	for i, w := range want {
		if late.Samples[i].Value != w {
			t.Errorf("late sample %d = %v, want %v", i, late.Samples[i].Value, w)
		}
	}
}

func TestSamplerDefaultsAndNilSafety(t *testing.T) {
	s := NewSampler(nil, -time.Second)
	if s.interval != time.Second {
		t.Errorf("non-positive interval not defaulted: %v", s.interval)
	}
	var nilS *Sampler
	nilS.Poll()
	nilS.Track("x", func() float64 { return 0 })
	if got := nilS.Series(); got != nil {
		t.Errorf("nil sampler Series = %v, want nil", got)
	}
	s.Track("skipped", nil) // nil read func must be ignored
	s.Poll()
	if len(s.Series()) != 0 {
		t.Errorf("nil read func was registered")
	}
}

func TestSeriesDigest(t *testing.T) {
	ser := Series{Name: "g", IntervalSeconds: 2, Samples: []Sample{
		{0, 4}, {2, -1}, {4, 7}, {6, 2},
	}}
	d := ser.Digest()
	if d.Name != "g" || d.IntervalSeconds != 2 || d.Count != 4 {
		t.Fatalf("digest meta wrong: %+v", d)
	}
	if d.Min != -1 || d.Max != 7 || d.Last != 2 {
		t.Errorf("digest extremes wrong: %+v", d)
	}
	if math.Abs(d.Mean-3) > 1e-12 {
		t.Errorf("digest mean = %v, want 3", d.Mean)
	}

	empty := Series{Name: "e", IntervalSeconds: 1}.Digest()
	if empty.Count != 0 || empty.Min != 0 || empty.Max != 0 || empty.Mean != 0 || empty.Last != 0 {
		t.Errorf("empty digest not zero: %+v", empty)
	}
}
