package main

import (
	"testing"

	"repro/internal/experiments"
)

// TestFleetExit: a fleet run that holds every hard bar exits 0; one write
// still pending after the drain is enough for a non-zero status.
func TestFleetExit(t *testing.T) {
	clean := &experiments.FleetResult{Name: experiments.FleetDay, ConvergencePct: 100}
	if code := fleetExit(clean); code != 0 {
		t.Errorf("clean run: exit %d, want 0", code)
	}
	pending := *clean
	pending.Pending = 1
	if code := fleetExit(&pending); code == 0 {
		t.Error("run with one pending write: exit 0, want non-zero")
	}
}
