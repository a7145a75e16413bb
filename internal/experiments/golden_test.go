package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestSweepRowsGolden pins, byte for byte and at full float precision,
// every field of the quick fault matrix, crash sweep, scrub cadence sweep
// and both fleet presets (per-rule fleet rows aside). Profile seeds, bucket
// names, trace seeds, size laws and quotas all feed simrand seeds, so a
// drift in any of them moves a line here. The hard bars on these rows are
// asserted by the acceptance tests beside each sweep; this test only says
// "nothing moved". A change that means to move a row reruns with -update,
// and the golden file's diff is the list of rows that moved.
func TestSweepRowsGolden(t *testing.T) {
	var rows struct {
		FaultMatrix *FaultMatrixResult
		CrashSweep  *CrashSweepResult
		Scrub       *ScrubResult
		Fleet       []*FleetResult
	}
	var err error
	if rows.FaultMatrix, err = RunFaultMatrix(FaultMatrixConfig{
		Profiles: []string{"storage-flaky", "mixed", "net-degraded"}, Quick: true,
	}); err != nil {
		t.Fatal(err)
	}
	if rows.CrashSweep, err = RunCrashSweep(CrashSweepConfig{Quick: true}); err != nil {
		t.Fatal(err)
	}
	if rows.Scrub, err = RunScrub(ScrubConfig{Quick: true}); err != nil {
		t.Fatal(err)
	}
	for _, preset := range []string{FleetHundred, FleetDay} {
		res, err := RunFleet(FleetConfig{Preset: preset, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		res.PerRule = nil
		rows.Fleet = append(rows.Fleet, res)
	}
	got, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "sweep_rows.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			t.Fatalf("%s line %d: got %s, golden has %s (rerun with -update if the move is meant)",
				golden, i+1, bytes.TrimSpace(g[i]), bytes.TrimSpace(w[i]))
		}
	}
	t.Fatalf("%s: got %d lines, golden has %d (rerun with -update if the move is meant)", golden, len(g), len(w))
}
