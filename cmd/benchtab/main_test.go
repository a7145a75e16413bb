package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/csv_quick.sha256")

// asMainEnv, set to "1", makes the test binary run benchtab's main instead
// of the tests, so a test can drive the real command line and read its
// exit status.
const asMainEnv = "BENCHTAB_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchtab runs the command with args and returns its standard output,
// standard error and exit status.
func benchtab(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// TestQuickCSVGolden runs everything `benchtab -all -quick -csv` runs,
// renders every entry's text, checks that no two tables share a CSV name,
// and checks the SHA-256 of every CSV written against
// testdata/csv_quick.sha256 (sha256sum's format), so a change to how
// results are rendered shows any CSV byte it moves. A change that means to
// move a dataset reruns with -update and reviews the golden's diff.
func TestQuickCSVGolden(t *testing.T) {
	dir := t.TempDir()
	names := make(map[string]string)
	for _, e := range allEntries() {
		tables, err := e.run(true)
		if err != nil {
			t.Fatalf("%s: %v", e.title, err)
		}
		var text strings.Builder
		experiments.Print(&text, tables...)
		if text.Len() == 0 {
			t.Errorf("%s printed nothing", e.title)
		}
		for _, tb := range tables {
			if tb.Name == "" {
				continue
			}
			if strings.Contains(tb.Name, ":") {
				t.Errorf("CSV name %s has a ':', which Windows and artifact uploads reject", tb.Name)
			}
			if prev, dup := names[tb.Name]; dup {
				t.Errorf("CSV %s written by both %s and %s", tb.Name, prev, e.title)
			}
			names[tb.Name] = e.title
		}
		if err := experiments.ExportCSV(dir, tables...); err != nil {
			t.Fatalf("%s: %v", e.title, err)
		}
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%x  %s\n", sha256.Sum256(data), f.Name())
	}

	golden := filepath.Join("testdata", "csv_quick.sha256")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got.String() == string(want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	for _, line := range strings.Split(got.String(), "\n") {
		if !strings.Contains(string(want), line+"\n") {
			t.Errorf("%s: not in golden: %s", golden, line)
		}
	}
	for _, line := range wantLines {
		if !strings.Contains(got.String(), line+"\n") {
			t.Errorf("%s: golden line not written: %s", golden, line)
		}
	}
	t.Fatalf("%s differs (rerun with -update if the move is meant)", golden)
}

// TestCSVExportFailureExits1: a CSV that cannot be written fails the run
// with exit status 1, as a failed telemetry export does.
func TestCSVExportFailureExits1(t *testing.T) {
	dir := t.TempDir()
	// A directory where the CSV file must go makes its creation fail.
	if err := os.Mkdir(filepath.Join(dir, "fig2_put_sizes.csv"), 0o755); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := benchtab(t, "-fig", "2", "-quick", "-csv", dir)
	if code != 1 || !strings.Contains(stderr, "csv export") {
		t.Fatalf("exit %d, stderr %q; want exit 1 with a csv export error", code, stderr)
	}
}

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
