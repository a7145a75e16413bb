package experiments

import (
	"bytes"
	"testing"
)

// TestScrubSweepAcceptance checks the sweep's core claims: without scrub
// the lossy profile leaves residual divergence, and every scrubbed cadence
// converges fully with zero residual divergence and zero duplicate final
// writes while actually paying for digest traffic.
func TestScrubSweepAcceptance(t *testing.T) {
	res, err := RunScrub(ScrubConfig{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 3 {
		t.Fatalf("expected baseline + >= 2 cadences, got %d rows", len(res.Points))
	}
	base := res.Points[0]
	if base.Cadence != "off" {
		t.Fatalf("first row should be the no-scrub baseline, got %q", base.Cadence)
	}
	if base.ResidualDivergence == 0 {
		t.Fatal("lossy baseline left no divergence; the sweep proved nothing")
	}
	for _, p := range res.Points[1:] {
		if p.ConvergencePct != 100 || p.ResidualDivergence != 0 {
			t.Fatalf("cadence %s: converged %.1f%%, residual %d — scrub did not close the gap",
				p.Cadence, p.ConvergencePct, p.ResidualDivergence)
		}
		if p.DupFinalWrites != 0 {
			t.Fatalf("cadence %s produced %d duplicate final writes, want 0", p.Cadence, p.DupFinalWrites)
		}
		if p.Rounds == 0 || p.DigestBytes == 0 {
			t.Fatalf("cadence %s ran %d rounds / %d digest bytes; scrubbing did not happen",
				p.Cadence, p.Rounds, p.DigestBytes)
		}
		if p.RepairsDispatched+p.RepairsRedriven == 0 {
			t.Fatalf("cadence %s repaired nothing yet converged; audit is broken", p.Cadence)
		}
	}
	tables := res.Tables()
	if len(tables) != 1 || tables[0].Name != "scrub_cadence" || len(tables[0].Rows) != len(res.Points) {
		t.Fatalf("tables malformed: %+v", tables)
	}
}

// TestScrubSweepDeterministic pins byte-identical reruns — the property
// TestSweepRowsGolden and CI's cmp steps depend on.
func TestScrubSweepDeterministic(t *testing.T) {
	run := func() string {
		res, err := RunScrub(ScrubConfig{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		Print(&buf, res.Tables()...)
		return buf.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("identically-seeded scrub sweeps differ:\n--- run 1\n%s--- run 2\n%s", a, b)
	}
}
