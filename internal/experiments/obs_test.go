package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/fleetobs"
)

// TestFaultMatrixObservability is the fleet-observability acceptance
// check: a degraded-network chaos run must surface in every layer — a
// deterministic per-destination streaming lag p99, a nonzero
// oldest-unreplicated-age watermark sampled during the fault window, and
// at least one burn-rate alert in the structured JSONL log — while the
// clean baseline row stays silent. The lag target sits between the
// baseline's worst delay (~1.3s) and the degraded tail (~1.57s) so the
// throughput factor alone trips the SLO.
func TestFaultMatrixObservability(t *testing.T) {
	run := func() (*FaultMatrixResult, string) {
		log := fleetobs.NewEventLog()
		res, err := RunFaultMatrix(FaultMatrixConfig{
			Profiles:  []string{"net-degraded@1"},
			Quick:     true,
			Events:    log,
			LagTarget: 1400 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("RunFaultMatrix: %v", err)
		}
		var buf bytes.Buffer
		if err := log.WriteJSONL(&buf); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
		return res, buf.String()
	}
	res, jsonl := run()

	if len(res.Scenarios) != 2 {
		t.Fatalf("want [none, net-degraded@1], got %d scenarios", len(res.Scenarios))
	}
	base, deg := res.Scenarios[0], res.Scenarios[1]

	if base.SLOAlerts != 0 {
		t.Errorf("baseline run alerted %d times; the lag target is miscalibrated", base.SLOAlerts)
	}
	if deg.LagP99S <= 0 {
		t.Errorf("degraded lag p99 = %.3fs, want > 0", deg.LagP99S)
	}
	if deg.LagP99S <= base.LagP99S {
		t.Errorf("degraded lag p99 %.3fs not above baseline %.3fs", deg.LagP99S, base.LagP99S)
	}
	if deg.BacklogMax <= 0 {
		t.Errorf("degraded backlog max = %d, want > 0", deg.BacklogMax)
	}
	if deg.OldestAgeMaxS <= 0 {
		t.Errorf("oldest-unreplicated-age watermark never rose above zero during the fault window")
	}
	if deg.SLOAlerts < 1 {
		t.Errorf("degraded run emitted %d SLO alerts, want >= 1", deg.SLOAlerts)
	}
	if !strings.Contains(jsonl, `"kind":"lag-burn"`) {
		t.Errorf("JSONL lacks a lag-burn event:\n%s", jsonl)
	}
	if !strings.Contains(jsonl, `"scope":"net-degraded@1"`) {
		t.Errorf("JSONL events not scoped by profile spec:\n%s", jsonl)
	}
	for _, line := range strings.Split(strings.TrimSpace(jsonl), "\n") {
		if line != "" && !strings.HasPrefix(line, `{"at_s":`) {
			t.Errorf("malformed JSONL line: %s", line)
		}
	}

	// Same seed, same schedule: the watermarks and the alert log must be
	// byte-for-byte reproducible.
	res2, jsonl2 := run()
	d2 := res2.Scenarios[1]
	if deg.LagP99S != d2.LagP99S || deg.BacklogMax != d2.BacklogMax ||
		deg.OldestAgeMaxS != d2.OldestAgeMaxS || deg.SLOAlerts != d2.SLOAlerts {
		t.Errorf("watermarks not deterministic: %+v vs %+v", deg, d2)
	}
	if jsonl != jsonl2 {
		t.Errorf("alert JSONL not deterministic:\n%s\nvs\n%s", jsonl, jsonl2)
	}
}
