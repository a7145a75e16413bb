package kvstore

import (
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/telemetry"
)

// TestGetIntCostsWhatGetCosts runs the same reads through Get on one store
// and GetInt on an identically seeded one, under injected throttling: the
// virtual time spent, the read counters, the metered dollars and the
// operation histogram must not tell the two apart.
func TestGetIntCostsWhatGetCosts(t *testing.T) {
	type outcome struct {
		elapsed   time.Duration
		stats     OpStats
		readCost  float64
		regReads  int64
		histCount int64
		histSum   float64
		values    [3]int64
		found     [3]bool
	}
	run := func(read func(s *Store, key string) (int64, bool)) outcome {
		clk, s, m := newStore()
		reg := telemetry.NewRegistry()
		s.SetTelemetry(reg)
		s.SetChaos(chaos.NewInjector(clk, chaos.Profile{Name: "t", KVThrottleRate: 0.5, KVThrottleMax: 250 * time.Millisecond}, reg))
		s.Put("t", "k", Item{"done": int64(7), "name": "x"})
		s.PutWithTTL("t", "lease", Item{"done": int64(9)}, 10*time.Second)
		clk.Sleep(11 * time.Second)
		before, start := s.Stats(), clk.Now()
		cost0, reads0, count0, sum0 := m.Item("kv:read"), reg.Counter("kvstore.reads").Value(), reg.Histogram("kvstore.op.seconds").Count(), reg.Histogram("kvstore.op.seconds").Sum()
		var o outcome
		for i := 0; i < 20; i++ {
			for j, key := range []string{"k", "absent", "lease"} {
				o.values[j], o.found[j] = read(s, key)
			}
		}
		after := s.Stats()
		o.elapsed = clk.Since(start)
		o.stats = OpStats{Reads: after.Reads - before.Reads, Writes: after.Writes - before.Writes, Throttled: after.Throttled - before.Throttled}
		o.readCost = m.Item("kv:read") - cost0
		o.regReads = reg.Counter("kvstore.reads").Value() - reads0
		o.histCount = reg.Histogram("kvstore.op.seconds").Count() - count0
		o.histSum = reg.Histogram("kvstore.op.seconds").Sum() - sum0
		return o
	}
	viaGet := run(func(s *Store, key string) (int64, bool) {
		it, ok := s.Get("t", key)
		return it.Int("done"), ok
	})
	viaGetInt := run(func(s *Store, key string) (int64, bool) { return s.GetInt("t", key, "done") })
	if viaGet != viaGetInt {
		t.Fatalf("GetInt and Get differ:\n Get    %+v\n GetInt %+v", viaGet, viaGetInt)
	}
	if viaGetInt.stats.Reads != 60 || viaGetInt.stats.Writes != 0 || viaGetInt.stats.Throttled == 0 || viaGetInt.histCount != 60 {
		t.Fatalf("60 reads under throttling recorded as %+v", viaGetInt)
	}
	// Present, absent, expired.
	if viaGetInt.values != [3]int64{7, 0, 0} || viaGetInt.found != [3]bool{true, false, false} {
		t.Fatalf("values %v found %v", viaGetInt.values, viaGetInt.found)
	}
}

func TestGetIntAbsentOrMistypedAttributeIsZero(t *testing.T) {
	_, s, _ := newStore()
	s.Put("t", "k", Item{"name": "x"})
	if v, ok := s.GetInt("t", "k", "done"); v != 0 || !ok {
		t.Fatalf("absent attribute: %d, %v", v, ok)
	}
	if v, ok := s.GetInt("t", "k", "name"); v != 0 || !ok {
		t.Fatalf("string attribute: %d, %v", v, ok)
	}
}

// TestGetIntAllocsIndependentOfRecordSize is the read-side twin of
// TestUpdateAllocsIndependentOfRecordSize: probing one counter of a pool
// record with 512 leases allocates what probing a bare counter does, where
// Get pays for the whole map.
func TestGetIntAllocsIndependentOfRecordSize(t *testing.T) {
	_, s, _ := newStore()
	putRecord(s, "big", 512)
	putRecord(s, "small", 0)
	small := testing.AllocsPerRun(100, func() { s.GetInt("t", "small", "n") })
	large := testing.AllocsPerRun(100, func() { s.GetInt("t", "big", "n") })
	if large > small || large > 1 {
		t.Errorf("GetInt allocates %v times on a 512-attribute record, %v on a 1-attribute one", large, small)
	}
	if get := testing.AllocsPerRun(100, func() { s.Get("t", "big") }); get <= large {
		t.Errorf("Get on the same record allocates %v times, GetInt %v: the projection saves nothing", get, large)
	}
}
