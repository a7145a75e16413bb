// Command benchtab regenerates the tables and figures of the paper's
// evaluation on the simulated three-cloud world and prints the same rows
// and series the paper reports, plus every table of the extensions. Each
// result is a list of named-column tables: the printed headers are the
// CSV column names, and -csv writes every named table as <name>.csv. It
// measures nothing about the host (`go run ./bench` does) and gates only
// the fleet runs' hard bars, through its exit status.
//
// Usage:
//
//	benchtab -all             # every table, figure, ablation and sweep (results_full.txt)
//	benchtab -all -quick      # reduced sizes/rounds, same shapes
//	benchtab -table 1         # one table (1, 2, 3 or 4)
//	benchtab -fig 23          # one figure (2-9, 12, 16-23)
//	benchtab -chaos matrix    # fault matrix across every chaos profile
//	benchtab -crash           # crash-point sweep: recovery audit per data-plane step
//	benchtab -chaos mixed@7   # fault matrix for one profile spec
//	benchtab -fleet           # fleet control plane: hundred-rule fairness table
//	benchtab -extra scrub     # anti-entropy scrub cadence sweep
//	benchtab -extra fleet-day # thousand-rule replay of a virtual day (~1 min)
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/cloud"
	"repro/internal/experiments"
	"repro/internal/fleetobs"
)

func main() {
	var (
		table     = flag.Int("table", 0, "regenerate one table (1-4)")
		fig       = flag.Int("fig", 0, "regenerate one figure (2-9, 12, 16-23)")
		extra     = flag.String("extra", "", "extensions: partsize | overlay | pipeline | scrub | fleet-day")
		chaosFlag = flag.String("chaos", "", "fault matrix: 'matrix' (all profiles) or comma-separated profile specs (e.g. mixed@7,storage-flaky)")
		crash     = flag.Bool("crash", false, "crash-point sweep: deterministic crash at each data-plane step, recovery audit per point")
		fleet     = flag.Bool("fleet", false, "fleet control plane: hundred-rule topology mix under shared quotas, per-rule fairness table")
		all       = flag.Bool("all", false, "regenerate every table, figure, ablation and sweep (fleet-day excepted)")
		quick     = flag.Bool("quick", false, "reduced sizes and rounds")
		csv       = flag.String("csv", "", "also export plottable CSV datasets into this directory")
		tracedir  = flag.String("tracedir", "", "export per-experiment Chrome traces and metrics dumps into this directory")
	)
	flag.Parse()

	// Each selector flag picks one entry. -table, -fig and -extra exclude
	// each other, and -all, which runs every entry but the fleet-day
	// replay, excludes them all: reject a conflicting combination instead
	// of silently preferring one.
	var flags, sels []string
	pick := func(on bool, name, sel string) {
		if on {
			flags, sels = append(flags, name), append(sels, sel)
		}
	}
	pick(*chaosFlag != "", "-chaos", "chaos")
	pick(*crash, "-crash", "crash")
	pick(*fleet, "-fleet", "fleet")
	pick(*table != 0, "-table", fmt.Sprintf("table %d", *table))
	pick(*fig != 0, "-fig", fmt.Sprintf("fig %d", *fig))
	pick(*extra != "", "-extra", "extra "+*extra)
	single := slices.DeleteFunc(slices.Clone(flags), func(f string) bool { return f != "-table" && f != "-fig" && f != "-extra" })
	switch {
	case *all && len(flags) > 0:
		fmt.Fprintf(os.Stderr, "benchtab: -all already runs everything; drop %s\n", strings.Join(flags, ", "))
		os.Exit(2)
	case len(single) > 1:
		fmt.Fprintf(os.Stderr, "benchtab: %s select different experiments; pass exactly one\n", strings.Join(single, ", "))
		os.Exit(2)
	case !*all && len(flags) == 0:
		flag.Usage()
		os.Exit(2)
	}

	// Fail on unusable output directories before running experiments for
	// minutes, not after.
	for _, dir := range []string{*csv, *tracedir} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(2)
		}
	}
	experiments.TraceDir = *tracedir

	var run []entry
	if *all {
		run = allEntries()
	}
	list := entries(*chaosFlag)
	for _, sel := range sels {
		i := slices.IndexFunc(list, func(e entry) bool { return e.sel == sel })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "benchtab: no experiment -%s\n", sel)
			os.Exit(2)
		}
		run = append(run, list[i])
	}
	for _, e := range run {
		fmt.Printf("\n================ %s ================\n", e.title)
		tables, err := e.run(*quick)
		experiments.Print(os.Stdout, tables...)
		if *csv != "" {
			if err := experiments.ExportCSV(*csv, tables...); err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: csv export: %v\n", err)
				os.Exit(1)
			}
		}
		if errors.Is(err, errHardBar) {
			os.Exit(1)
		} else if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %s: %v\n", e.title, err)
			os.Exit(2)
		}
	}
	if err := experiments.FlushTelemetry(); err != nil {
		fmt.Fprintf(os.Stderr, "telemetry export: %v\n", err)
		os.Exit(1)
	} else if *tracedir != "" {
		fmt.Fprintf(os.Stderr, "\nwrote traces and metrics to %s\n", *tracedir)
	}
}

// entry is one experiment benchtab can run: sel names the flag that picks
// it ("table 1", "fig 20", "extra scrub", "chaos", "crash", "fleet"), title
// heads its printed section, and run returns its tables.
type entry struct {
	sel, title string
	run        func(quick bool) ([]experiments.Table, error)
}

// errHardBar is what a fleet run that broke a hard bar returns after
// fleetExit has said which: its tables still print, then benchtab exits 1.
var errHardBar = errors.New("hard bar broken")

// entries lists every experiment in -all's order; chaosSpec is -chaos's
// value: comma-separated profile specs, or "matrix" or "" for all.
func entries(chaosSpec string) []entry {
	table := func(src cloud.RegionID) func(bool) *experiments.TableResult {
		return func(quick bool) *experiments.TableResult {
			return experiments.RunTable(experiments.TableConfig{Source: src, Quick: quick})
		}
	}
	accuracy := func(src, dst cloud.RegionID) func(bool) *experiments.ModelAccuracyResult {
		return func(quick bool) *experiments.ModelAccuracyResult {
			return experiments.RunModelAccuracy(src, dst, quick)
		}
	}
	return []entry{
		{"table 1", "Table 1", rows(table(experiments.AWSEast))},
		{"table 2", "Table 2", rows(table(experiments.AzureEast))},
		{"table 3", "Table 3", rows(table(experiments.GCPEast))},
		{"table 4", "Table 4", rows(experiments.RunTable4)},
		{"fig 2", "Figure 2", rows(experiments.RunFig2)},
		{"fig 3", "Figure 3", rows(experiments.RunFig3)},
		{"fig 4", "Figure 4", rows(func(bool) *experiments.Fig4Result { return experiments.RunFig4() })},
		{"fig 5", "Figure 5", rows(experiments.RunFig5)},
		{"fig 6", "Figure 6", rows(experiments.RunFig6)},
		{"fig 7", "Figure 7", rows(experiments.RunFig7)},
		{"fig 8", "Figure 8", rows(experiments.RunFig8)},
		{"fig 9", "Figure 9", rows(func(bool) *experiments.Fig9Result { return experiments.RunFig9() })},
		{"fig 12", "Figure 12", rows(func(bool) *experiments.Fig12Result { return experiments.RunFig12() })},
		{"fig 16", "Figure 16", rows(experiments.RunFig16)},
		{"fig 17", "Figure 17", rows(experiments.RunFig17)},
		{"fig 18", "Figure 18", rows(accuracy("aws:us-east-1", "azure:eastus"))},
		{"fig 19", "Figure 19", rows(accuracy("azure:eastus", "gcp:asia-northeast1"))},
		{"fig 20", "Figure 20", func(quick bool) ([]experiments.Table, error) {
			a := experiments.RunFig20("azure:southeastasia", []cloud.RegionID{
				"gcp:europe-west6", "gcp:us-east1", "gcp:asia-northeast1",
			}, quick)
			b := experiments.RunFig20("gcp:europe-west6", []cloud.RegionID{
				"azure:westus2", "azure:southeastasia", "azure:uksouth",
			}, quick)
			return append(a.Tables(), b.Tables()...), nil
		}},
		{"fig 21", "Figure 21", rows(experiments.RunFig21)},
		{"fig 22", "Figure 22", rows(experiments.RunFig22)},
		{"fig 23", "Figure 23", rows(experiments.RunFig23)},
		{"extra partsize", "Extra: part-size ablation", rows(experiments.RunPartSizeAblation)},
		{"extra overlay", "Extra: overlay relay ablation", rows(experiments.RunOverlayAblation)},
		{"extra pipeline", "Extra: pipelined data plane ablation", rows(experiments.RunPipeline)},
		{"chaos", "Fault matrix", func(quick bool) ([]experiments.Table, error) {
			cfg := experiments.FaultMatrixConfig{Quick: quick, Events: fleetobs.NewEventLog()}
			if chaosSpec != "" && chaosSpec != "matrix" {
				cfg.Profiles = strings.Split(chaosSpec, ",")
			}
			res, err := experiments.RunFaultMatrix(cfg)
			if err != nil {
				return nil, err
			}
			tables := res.Tables()
			// The monitors' structured alert stream, scoped per profile: what
			// an operator's pager would have seen during each scenario.
			if cfg.Events.Len() > 0 {
				var jsonl strings.Builder
				if err := cfg.Events.WriteJSONL(&jsonl); err != nil {
					return nil, err
				}
				tables = append(tables, experiments.Table{
					Title: fmt.Sprintf("SLO alert events (%d):", cfg.Events.Len()),
					Notes: strings.Split(strings.TrimSuffix(jsonl.String(), "\n"), "\n"),
				})
			}
			return tables, nil
		}},
		{"crash", "Crash-point sweep", func(quick bool) ([]experiments.Table, error) {
			res, err := experiments.RunCrashSweep(experiments.CrashSweepConfig{Quick: quick})
			if err != nil {
				return nil, err
			}
			return res.Tables(), nil
		}},
		{"extra scrub", "Extra: anti-entropy scrub cadence sweep", func(quick bool) ([]experiments.Table, error) {
			res, err := experiments.RunScrub(experiments.ScrubConfig{Quick: quick})
			if err != nil {
				return nil, err
			}
			return res.Tables(), nil
		}},
		{"fleet", "Fleet control plane", fleetRun(experiments.FleetHundred)},
		{"extra fleet-day", "Extra: fleet-day replay", fleetRun(experiments.FleetDay)},
	}
}

// allEntries is what -all runs: every entry but the day replay, which
// takes about a minute and runs only as -extra fleet-day.
func allEntries() []entry {
	return slices.DeleteFunc(entries(""), func(e entry) bool { return e.sel == "extra fleet-day" })
}

// rows adapts an experiment that cannot fail to an entry's run.
func rows[R interface{ Tables() []experiments.Table }](run func(quick bool) R) func(bool) ([]experiments.Table, error) {
	return func(quick bool) ([]experiments.Table, error) { return run(quick).Tables(), nil }
}

func fleetRun(preset string) func(bool) ([]experiments.Table, error) {
	return func(quick bool) ([]experiments.Table, error) {
		res, err := experiments.RunFleet(experiments.FleetConfig{Preset: preset, Quick: quick})
		if err != nil {
			return nil, err
		}
		if fleetExit(res) != 0 {
			return res.Tables(), errHardBar
		}
		return res.Tables(), nil
	}
}

// fleetExit is the exit status a fleet run earns: 1 when it breaks a hard
// bar — anything short of full convergence, a duplicate final write, or
// work left dead-lettered or pending after the drain.
func fleetExit(r *experiments.FleetResult) int {
	if r.ConvergencePct == 100 && r.DupFinalWrites == 0 && r.DLQ == 0 && r.Pending == 0 {
		return 0
	}
	fmt.Fprintf(os.Stderr, "%s: hard bar broken: convergence %.2f%% (must be 100), %d duplicate final writes, %d DLQ, %d pending (must be 0)\n",
		r.Name, r.ConvergencePct, r.DupFinalWrites, r.DLQ, r.Pending)
	return 1
}
