package experiments

import (
	"bytes"
	"testing"
)

// TestFaultMatrixDeterministic is the issue's determinism check: two
// identically-seeded chaos runs must produce byte-identical fault-matrix
// tables (and CSV exports).
func TestFaultMatrixDeterministic(t *testing.T) {
	cfg := FaultMatrixConfig{Profiles: []string{"mixed@det", "storage-flaky@det"}, Objects: 8, Quick: true}
	run := func() (*FaultMatrixResult, string) {
		res, err := RunFaultMatrix(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		Print(&buf, res.Tables()...)
		return res, buf.String()
	}
	a, atext := run()
	b, btext := run()
	if atext != btext {
		t.Fatalf("identically-seeded fault matrices differ:\n--- run 1\n%s--- run 2\n%s", atext, btext)
	}
	for i := range a.Scenarios {
		if a.Scenarios[i] != b.Scenarios[i] {
			t.Fatalf("scenario %d differs: %+v vs %+v", i, a.Scenarios[i], b.Scenarios[i])
		}
	}
	// A different seed must draw a different fault schedule for at least
	// one fault-injecting profile.
	c, err := RunFaultMatrix(FaultMatrixConfig{Profiles: []string{"mixed@other", "storage-flaky@other"}, Objects: 8, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Scenarios {
		if a.Scenarios[i].Profile != "none" &&
			(a.Scenarios[i].Injected != c.Scenarios[i].Injected ||
				a.Scenarios[i].P99S != c.Scenarios[i].P99S) {
			same = false
		}
	}
	if same {
		t.Fatal("reseeded runs drew identical fault schedules")
	}
}

// TestFaultMatrixAcceptance runs the issue's acceptance scenario at the
// experiment level: the mixed profile must converge >= 99% with zero
// duplicate final writes, and the baseline must converge fully.
func TestFaultMatrixAcceptance(t *testing.T) {
	res, err := RunFaultMatrix(FaultMatrixConfig{Profiles: []string{"mixed"}, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Scenarios {
		if s.ConvergencePct < 99 {
			t.Fatalf("%s converged %.1f%% (%d/%d, dlq %d), want >= 99%%",
				s.Profile, s.ConvergencePct, s.Converged, s.Objects, s.DLQ)
		}
		if s.DupFinalWrites != 0 {
			t.Fatalf("%s produced %d duplicate final writes, want 0", s.Profile, s.DupFinalWrites)
		}
		if s.Profile == "mixed" && s.Injected == 0 {
			t.Fatal("mixed profile injected nothing; the scenario proved nothing")
		}
	}
	tables := res.Tables()
	if len(tables) != 1 || tables[0].Name != "fault_matrix" || len(tables[0].Rows) != len(res.Scenarios) {
		t.Fatalf("tables malformed: %+v", tables)
	}
}
