package experiments

import (
	"bytes"
	"testing"
)

// TestCrashSweepRecovery is the issue's acceptance check at the experiment
// level: every enumerated crash point must converge with zero duplicate
// final writes and zero leftover in-progress MPUs, the crash must actually
// fire exactly once, and a resumed task must redo far less than a full
// restart would.
func TestCrashSweepRecovery(t *testing.T) {
	res, err := RunCrashSweep(CrashSweepConfig{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(CrashPoints()) {
		t.Fatalf("swept %d points, want %d", len(res.Points), len(CrashPoints()))
	}
	if res.BaselineBytes < crashSweepSize {
		t.Fatalf("baseline moved %d bytes, want >= object size %d", res.BaselineBytes, int64(crashSweepSize))
	}
	for _, p := range res.Points {
		if p.Crashes != 1 {
			t.Errorf("%s: injected %d crashes, want exactly 1", p.Point, p.Crashes)
		}
		if !p.Converged {
			t.Errorf("%s: destination did not converge", p.Point)
		}
		if p.DupFinalWrites != 0 {
			t.Errorf("%s: %d duplicate final writes, want 0", p.Point, p.DupFinalWrites)
		}
		if p.MPUsLeft != 0 {
			t.Errorf("%s: %d in-progress MPUs survived GC, want 0", p.Point, p.MPUsLeft)
		}
		// The recovery-cost bound: a checkpointed resume must redo much
		// less than the whole object. Half the object is a generous bar —
		// observed values are around one part (or one attempt's worth for
		// pre-transfer crashes); a from-scratch restart would double it.
		if p.RedoneBytes >= crashSweepSize/2 {
			t.Errorf("%s: redid %d bytes (%.1f parts) — resume is not bounding rework",
				p.Point, p.RedoneBytes, p.RedoneParts)
		}
		if p.RedoneBytes < 0 {
			t.Errorf("%s: negative redone bytes %d — measurement is broken", p.Point, p.RedoneBytes)
		}
	}
	// Replicator-side crashes (claim/part/flush) must recover through the
	// checkpoint path, inheriting already-delivered parts rather than
	// restarting; tally across the sweep so a single point's flake-free
	// zero (e.g. a crash before any part landed) doesn't fail it.
	var resumed, partsIn int64
	for _, p := range res.Points {
		resumed += p.Resumed
		partsIn += p.PartsResumed
	}
	if resumed == 0 {
		t.Error("no crash point exercised checkpointed resume")
	}
	if partsIn == 0 {
		t.Error("no resumed task inherited delivered parts from its checkpoint")
	}
	tables := res.Tables()
	if len(tables) != 1 || tables[0].Name != "crash_sweep" || len(tables[0].Rows) != len(res.Points) {
		t.Fatalf("tables malformed: %+v", tables)
	}
}

// TestCrashSweepDeterministic: two identically-seeded sweeps are
// byte-identical — the CI invariant that makes the crash schedule a
// reproducible artifact rather than a flake source.
func TestCrashSweepDeterministic(t *testing.T) {
	run := func() (*CrashSweepResult, string) {
		res, err := RunCrashSweep(CrashSweepConfig{Quick: true})
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
		t.Fatalf("identically-seeded crash sweeps differ:\n--- run 1\n%s--- run 2\n%s", atext, btext)
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, a.Points[i], b.Points[i])
		}
	}
}
