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
// an identical result: the clock's single-runnable actor discipline makes
// the schedule a pure function of the simulation, even under race
// instrumentation.
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

			again, err := RunFleet(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, again) {
				t.Errorf("same-seed runs differ:\n  a = %+v\n  b = %+v", res, again)
			}
		})
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
