// Command benchreport runs the canonical regression suite — four
// representative replication scenarios plus a chaos fault-matrix slice —
// and writes a deterministic BENCH_<suite>.json report: per-experiment
// delay percentiles, dollar cost, the dominant critical-path delay
// category, and virtual-time series digests. It reports nothing about the
// host: wall seconds, CPU and allocations come from `go run ./bench`.
//
// Usage:
//
//	benchreport -quick                      # CI-sized suite -> BENCH_quick.json
//	benchreport -o out.json                 # full suite, explicit output
//	benchreport -quick -compare base.json   # exit 1 on regression vs base
//
// Two runs with identical flags produce byte-identical JSON (everything
// runs on the seeded virtual clock; the report carries no timestamps), so
// the file diffs cleanly and -compare needs no noise filtering.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
	"repro/internal/fleetobs"
)

func main() {
	var (
		quick      = flag.Bool("quick", false, "CI-sized workloads and a two-profile fault matrix")
		out        = flag.String("o", "", "output path (default BENCH_<suite>.json)")
		compare    = flag.String("compare", "", "baseline BENCH_*.json to diff against; regressions exit non-zero")
		tol        = flag.Float64("tol", 0.25, "relative regression tolerance for -compare (0.25 = 25% worse allowed)")
		interval   = flag.Duration("interval", 5*time.Second, "virtual-time series sampling interval")
		scrub      = flag.Bool("scrub", false, "include the anti-entropy cadence sweep in the report")
		fleet      = flag.Bool("fleet", false, "include the fleet presets (fleet-hundred-rules, fleet-day) in the report")
		fleetday   = flag.Bool("fleetday", false, "run ONLY the full-scale fleet-day replay (1000 rules, 24 virtual hours) and gate its absolute bars")
		events     = flag.String("events", "", "write the fault matrix's SLO alert log as JSONL to this file")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchreport: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}
	stopProfile := func() {}
	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			os.Exit(1)
		}
		// Idempotent: explicitly invoked before the non-zero exits below
		// (os.Exit skips defers), deferred for the normal return.
		stopProfile = func() {
			pprof.StopCPUProfile()
			pf.Close()
		}
		defer stopProfile()
	}
	if *fleetday {
		code := runFleetDay(*quick)
		stopProfile()
		os.Exit(code)
	}

	var alertLog *fleetobs.EventLog
	if *events != "" {
		alertLog = fleetobs.NewEventLog()
	}
	rep, err := experiments.RunBench(experiments.BenchConfig{
		Quick: *quick, SampleInterval: *interval, Scrub: *scrub, Fleet: *fleet,
		Events: alertLog,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
	rep.Print(os.Stderr)

	path := *out
	if path == "" {
		path = "BENCH_" + rep.Suite + ".json"
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		fmt.Fprintf(os.Stderr, "benchreport: write %s: %v\n", path, err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: close %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)

	if alertLog != nil {
		ef, err := os.Create(*events)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			os.Exit(1)
		}
		if err := alertLog.WriteJSONL(ef); err != nil {
			ef.Close()
			fmt.Fprintf(os.Stderr, "benchreport: write %s: %v\n", *events, err)
			os.Exit(1)
		}
		if err := ef.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: close %s: %v\n", *events, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d alert events to %s\n", alertLog.Len(), *events)
	}

	if *compare == "" {
		return
	}
	bf, err := os.Open(*compare)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
	baseline, err := experiments.ReadBenchReport(bf)
	bf.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: parse %s: %v\n", *compare, err)
		os.Exit(1)
	}
	regs := experiments.CompareBench(baseline, rep, experiments.BenchTolerance{Relative: *tol})
	if len(regs) == 0 {
		fmt.Fprintf(os.Stderr, "no regressions vs %s (tol %.0f%%)\n", *compare, 100**tol)
		return
	}
	fmt.Fprintf(os.Stderr, "%d regression(s) vs %s:\n", len(regs), *compare)
	for _, r := range regs {
		fmt.Fprintf(os.Stderr, "  %s\n", r)
	}
	stopProfile()
	os.Exit(1)
}

// runFleetDay runs the fleet-day replay on its own — the CI step that
// profiles the full-scale scenario — and enforces its absolute bars:
// 100% convergence, zero duplicate final writes, an empty DLQ and nothing
// pending.
func runFleetDay(quick bool) int {
	res, err := experiments.RunFleet(experiments.FleetConfig{Preset: experiments.FleetDay, Quick: quick})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: fleet-day: %v\n", err)
		return 1
	}
	res.Print(os.Stderr)
	fmt.Fprintf(os.Stderr, "  %d replicated objects over %.1f virtual hours\n", res.ReplicatedObjects, res.VirtualHours)
	broken := experiments.FleetBars(res.BenchFleet)
	for _, b := range broken {
		fmt.Fprintf(os.Stderr, "fleet-day gate: %s\n", b)
	}
	if len(broken) > 0 {
		return 1
	}
	return 0
}
