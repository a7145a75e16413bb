package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestRunFleet drives both presets end to end at unit-test size — the full
// topology mix, fewer rules, a short trace — and holds them to the
// scenario's hard bars: every audited key converges, nothing is left
// pending or dead-lettered, no duplicate final write lands (at-least-once
// delivery with reordered notifications must still land every destination
// version exactly once) and the stall guard stays cold. A rerun must give
// an identical result: the fleet[] bench rows are part of the
// byte-identical report gate, and the clock's single-runnable actor
// discipline makes the schedule a pure function of the simulation, even
// under race instrumentation.
func TestRunFleet(t *testing.T) {
	for _, tc := range []struct {
		cfg FleetConfig
		// amplification is the least replica writes per trace op: fan-out
		// amplification is fleet-day's point.
		amplification int64
	}{
		{cfg: FleetConfig{Preset: FleetHundred, Quick: true, Rules: 24, Duration: 2 * time.Minute, Ops: 180}},
		{cfg: FleetConfig{Preset: FleetDay, Quick: true, Rules: 60, Duration: 45 * time.Minute, Ops: 3000}, amplification: 2},
	} {
		t.Run(tc.cfg.Preset, func(t *testing.T) {
			res, err := RunFleet(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Name != tc.cfg.Preset || res.Rules != tc.cfg.Rules {
				t.Errorf("ran %q with %d rules, want %q with %d", res.Name, res.Rules, tc.cfg.Preset, tc.cfg.Rules)
			}
			if res.ConvergencePct != 100 {
				t.Errorf("ConvergencePct = %.2f, want 100 (%d/%d diverged, %d pending)",
					res.ConvergencePct, res.Diverged, res.Audited, res.Pending)
			}
			if res.Pending != 0 || res.DLQ != 0 {
				t.Errorf("Pending = %d, DLQ = %d, want 0, 0", res.Pending, res.DLQ)
			}
			if res.DupFinalWrites != 0 {
				t.Errorf("DupFinalWrites = %d, want 0", res.DupFinalWrites)
			}
			if res.Forced != 0 {
				t.Errorf("Forced quota admissions = %d, want 0", res.Forced)
			}
			if res.Admits == 0 {
				t.Error("scheduler admitted nothing")
			}
			if len(res.PerRule) != res.Rules {
				t.Errorf("PerRule rows = %d, want %d", len(res.PerRule), res.Rules)
			}
			if res.ReplicatedObjects < tc.amplification*int64(res.Ops) {
				t.Errorf("ReplicatedObjects = %d for %d ops, want >= %dx amplification", res.ReplicatedObjects, res.Ops, tc.amplification)
			}
			if bars := FleetBars(res.BenchFleet); len(bars) != 0 {
				t.Errorf("absolute bars broken: %v", bars)
			}

			again, err := RunFleet(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, again) {
				t.Errorf("same-seed runs differ:\n  a = %+v\n  b = %+v", res, again)
			}
		})
	}
}

// TestFleetPresetsGolden pins the quick presets' report rows, field by
// field, to the values the runners produced before they were folded into
// one (the fleet and fleet_day rows of the areplica-bench/v1 baseline). A
// preset's bucket names, trace seed, key population, size law and quotas
// all feed simrand seeds, so a drift in any of them moves these numbers.
// A change that means to move them updates BENCH_baseline.json and this
// table together.
func TestFleetPresetsGolden(t *testing.T) {
	for _, want := range []BenchFleet{
		{
			Name: FleetHundred, Rules: 100, Entries: 86, Ops: 555, ReplicatedObjects: 577,
			ConvergencePct: 100, Admits: 585, Batches: 552, BatchMeanSize: 1.059782608695652,
			QuotaUtilPct: 15.625, LagP99MaxS: 5.0955907831000005, LagP99SpreadS: 4.493499064100001,
			VirtualHours: 0.29858458261888887, CostUSD: 0.05318052473755153,
		},
		{
			Name: FleetDay, Rules: 120, Entries: 40, Ops: 8197, ReplicatedObjects: 22338,
			ConvergencePct: 100, Admits: 23149, Batches: 8364, BatchMeanSize: 2.767694882831181,
			QuotaUtilPct: 16.796875, LagP99MaxS: 2.040414814814815, LagP99SpreadS: 0.976915804474815,
			VirtualHours: 1.5892907277458332, CostUSD: 2.2150842399110453,
		},
	} {
		res, err := RunFleet(FleetConfig{Preset: want.Name, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		got, exp := reflect.ValueOf(res.BenchFleet), reflect.ValueOf(want)
		for i := 0; i < got.NumField(); i++ {
			if g, w := got.Field(i).Interface(), exp.Field(i).Interface(); g != w {
				t.Errorf("%s: %s = %v, want %v", want.Name, got.Type().Field(i).Name, g, w)
			}
		}
	}
	if _, err := RunFleet(FleetConfig{Preset: "fleet-nope"}); err == nil {
		t.Error("unknown preset accepted")
	}
}

// TestFleetTopologyShape pins the shared builder's mix for both presets'
// shapes: the requested rule count exactly, the fan-out groups the shape
// asks for (one fixed group, or three quarters of the budget), and one
// distinct entry point per source bucket.
func TestFleetTopologyShape(t *testing.T) {
	for name, tc := range map[string]struct {
		fanSrc   string // what every fan-out source bucket starts with
		fanRules int
		entries  int
	}{
		FleetHundred: {fanSrc: "fan-src", fanRules: 10, entries: 1 + 2 + 3 + 80},
		FleetDay:     {fanSrc: "day-fan-0", fanRules: (100 * 3 / 4) / 16 * 16, entries: 4 + 2 + 3 + 26},
	} {
		rules, entries, err := fleetTopology(fleetPresets[name], 100)
		if err != nil {
			t.Fatal(err)
		}
		if len(rules) != 100 {
			t.Fatalf("%s: rules = %d, want 100", name, len(rules))
		}
		if len(entries) != tc.entries {
			t.Errorf("%s: entries = %d, want %d", name, len(entries), tc.entries)
		}
		seen := map[fleetEntry]bool{}
		for _, e := range entries {
			if seen[e] {
				t.Errorf("%s: duplicate entry %+v", name, e)
			}
			seen[e] = true
		}
		fan := 0
		for _, r := range rules {
			if strings.HasPrefix(r.SrcBucket, tc.fanSrc) {
				fan++
			}
		}
		if fan != tc.fanRules {
			t.Errorf("%s: fan-out rules = %d, want %d", name, fan, tc.fanRules)
		}
	}
}
