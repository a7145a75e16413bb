package trace

import (
	"sync"
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/simrand"
)

func TestSampleSizeDistributionShape(t *testing.T) {
	rng := simrand.New("size-test")
	const n = 100000
	var le1MB, le1GB, total int
	for i := 0; i < n; i++ {
		s := SampleSize(rng)
		if s <= 0 {
			t.Fatal("non-positive size")
		}
		if s <= 1<<20 {
			le1MB++
		}
		if s < 1<<30 {
			le1GB++
		}
		total++
	}
	// ~80% of PUTs at or below 1MB (Figure 2).
	if f := float64(le1MB) / float64(total); f < 0.75 || f < 0.70 || f > 0.85 {
		t.Fatalf("fraction <=1MB = %v, want ~0.80", f)
	}
	// >99.9% below 1GB.
	if f := float64(le1GB) / float64(total); f < 0.999 {
		t.Fatalf("fraction <1GB = %v, want >0.999", f)
	}
}

func TestGenerateBasicProperties(t *testing.T) {
	cfg := DefaultConfig(30*time.Minute, 200)
	ops := Generate(cfg)
	if len(ops) == 0 {
		t.Fatal("empty trace")
	}
	// Time-ordered and within the duration.
	for i := 1; i < len(ops); i++ {
		if ops[i].At < ops[i-1].At {
			t.Fatal("trace not time-ordered")
		}
	}
	if last := ops[len(ops)-1].At; last > cfg.Duration {
		t.Fatalf("op beyond duration: %v", last)
	}
	// Total volume near rate*duration.
	if len(ops) < 3000 || len(ops) > 20000 {
		t.Fatalf("ops = %d for 30min@200/min", len(ops))
	}
	var puts, deletes, small int
	for _, op := range ops {
		switch {
		case op.Type != OpPut:
			deletes++
		case op.Size <= 1<<20:
			puts++
			small++
		default:
			puts++
		}
	}
	if deletes == 0 || puts == 0 {
		t.Fatalf("mix missing: %d puts, %d deletes", puts, deletes)
	}
	if f := float64(small) / float64(puts); f < 0.7 || f > 0.9 {
		t.Fatalf("small-object fraction = %v", f)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig(10*time.Minute, 100)
	a, b := Generate(cfg), Generate(cfg)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs", i)
		}
	}
	cfg2 := cfg
	cfg2.Seed = "other"
	c := Generate(cfg2)
	if len(c) == len(a) {
		same := true
		for i := range c {
			if c[i] != a[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestRatesFluctuate(t *testing.T) {
	ops := Generate(DefaultConfig(60*time.Minute, 300))
	perMin := make([]int, 61)
	for _, op := range ops {
		perMin[int(op.At.Minutes())]++
	}
	lo, hi := perMin[0], perMin[0]
	for _, n := range perMin[:60] {
		if n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
	}
	if hi < 2*lo+1 {
		t.Fatalf("per-minute rates too flat: min %d max %d", lo, hi)
	}
}

func TestSizeHistogramCapacityInTail(t *testing.T) {
	ops := Generate(DefaultConfig(60*time.Minute, 500))
	labels, counts, capacity := SizeHistogram(ops)
	if len(labels) != len(counts) || len(labels) != len(capacity) {
		t.Fatal("histogram shape mismatch")
	}
	var smallCount, totalCount, smallCap, totalCap int64
	for i := range labels {
		totalCount += counts[i]
		totalCap += capacity[i]
		if i <= 4 { // up to 1MB
			smallCount += counts[i]
			smallCap += capacity[i]
		}
	}
	if f := float64(smallCount) / float64(totalCount); f < 0.7 {
		t.Fatalf("count mass below 1MB = %v", f)
	}
	// Capacity concentrates in large objects even though counts do not.
	if f := float64(smallCap) / float64(totalCap); f > 0.2 {
		t.Fatalf("capacity mass below 1MB = %v, want tail-heavy", f)
	}
}

func TestThroughputSeries(t *testing.T) {
	ops := Generate(DefaultConfig(30*time.Minute, 300))
	series := ThroughputSeries(ops)
	if len(series) < 29 {
		t.Fatalf("series too short: %d", len(series))
	}
	var nonzero int
	for _, v := range series {
		if v < 0 {
			t.Fatal("negative throughput")
		}
		if v > 0 {
			nonzero++
		}
	}
	if nonzero < len(series)/2 {
		t.Fatal("throughput mostly zero")
	}
}

func TestReplayTiming(t *testing.T) {
	clock := simclock.New(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	ops := []Op{
		{At: 0, Type: OpPut, Key: "a", Size: 1},
		{At: 2 * time.Second, Type: OpPut, Key: "b", Size: 1},
		{At: 5 * time.Second, Type: OpDelete, Key: "a"},
	}
	var mu sync.Mutex
	issued := map[string]time.Duration{}
	start := clock.Now()
	Replay(clock, ops, func(op Op) {
		mu.Lock()
		issued[op.Key+string(op.Type)] = clock.Since(start)
		mu.Unlock()
	})
	clock.Quiesce()
	if issued["aPUT"] != 0 || issued["bPUT"] != 2*time.Second || issued["aDELETE"] != 5*time.Second {
		t.Fatalf("issue times: %v", issued)
	}
}

func TestWindowedPercentile(t *testing.T) {
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var times []time.Time
	var delays []float64
	// Minute 0: delays 1..10; minute 2: delays all 5. Minute 1: empty.
	for i := 1; i <= 10; i++ {
		times = append(times, start.Add(time.Duration(i)*time.Second))
		delays = append(delays, float64(i))
	}
	for i := 0; i < 4; i++ {
		times = append(times, start.Add(2*time.Minute+time.Duration(i)*time.Second))
		delays = append(delays, 5)
	}
	out := WindowedPercentile(times, delays, start, time.Minute, 100)
	if len(out) != 3 {
		t.Fatalf("windows = %d", len(out))
	}
	if out[0] != 10 {
		t.Fatalf("w0 max = %v", out[0])
	}
	if out[1] != 10 { // empty window carries previous
		t.Fatalf("w1 = %v", out[1])
	}
	if out[2] != 5 {
		t.Fatalf("w2 = %v", out[2])
	}
	// p50 of minute 0 is 5.5.
	p50 := WindowedPercentile(times, delays, start, time.Minute, 50)
	if p50[0] != 5.5 {
		t.Fatalf("p50 = %v", p50[0])
	}
	if WindowedPercentile(nil, nil, start, time.Minute, 50) != nil {
		t.Fatal("empty input should return nil")
	}
}
