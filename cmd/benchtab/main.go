// Command benchtab regenerates the tables and figures of the paper's
// evaluation on the simulated three-cloud world and prints the same rows
// and series the paper reports, plus every table of the extensions. It
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
	"flag"
	"fmt"
	"io"
	"os"
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

	// Selectors are mutually exclusive: -all already covers every table,
	// figure, ablation and sweep but fleet-day, and the single-selection flags pick exactly one
	// experiment each. Reject conflicting combinations instead of silently
	// preferring one.
	var selected []string
	if *table != 0 {
		selected = append(selected, "-table")
	}
	if *fig != 0 {
		selected = append(selected, "-fig")
	}
	if *extra != "" {
		selected = append(selected, "-extra")
	}
	if *all {
		if len(selected) > 0 || *chaosFlag != "" || *crash || *fleet {
			conflicting := selected
			if *chaosFlag != "" {
				conflicting = append(conflicting, "-chaos")
			}
			if *crash {
				conflicting = append(conflicting, "-crash")
			}
			if *fleet {
				conflicting = append(conflicting, "-fleet")
			}
			fmt.Fprintf(os.Stderr, "benchtab: -all already runs everything; drop %s\n",
				strings.Join(conflicting, ", "))
			os.Exit(2)
		}
	} else if len(selected) > 1 {
		fmt.Fprintf(os.Stderr, "benchtab: %s select different experiments; pass exactly one\n",
			strings.Join(selected, ", "))
		os.Exit(2)
	}
	if !*all && len(selected) == 0 && *chaosFlag == "" && !*crash && !*fleet {
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
	csvDir = *csv
	experiments.TraceDir = *tracedir
	if *chaosFlag != "" {
		runChaos(*chaosFlag, *quick)
	}
	if *crash {
		runCrash(*quick)
	}
	if *fleet {
		runFleet("Fleet control plane", experiments.FleetHundred, *quick)
	}
	if *all {
		for _, t := range []int{1, 2, 3, 4} {
			runTable(t, *quick)
		}
		for _, f := range []int{2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 17, 18, 19, 20, 21, 22, 23} {
			runFig(f, *quick)
		}
		for _, e := range []string{"partsize", "overlay", "pipeline"} {
			runExtra(e, *quick)
		}
		runChaos("matrix", *quick)
		runCrash(*quick)
		runExtra("scrub", *quick)
		runFleet("Fleet control plane", experiments.FleetHundred, *quick)
	} else if *table != 0 {
		runTable(*table, *quick)
	} else if *extra != "" {
		runExtra(*extra, *quick)
	} else if *fig != 0 {
		runFig(*fig, *quick)
	}
	if err := experiments.FlushTelemetry(); err != nil {
		fmt.Fprintf(os.Stderr, "telemetry export: %v\n", err)
		os.Exit(1)
	} else if *tracedir != "" {
		fmt.Fprintf(os.Stderr, "\nwrote traces and metrics to %s\n", *tracedir)
	}
}

var csvDir string

// emit prints a result and, with -csv, exports its datasets.
func emit[T interface{ Print(w io.Writer) }](res T) {
	res.Print(os.Stdout)
	if csvDir == "" {
		return
	}
	if exp, ok := any(res).(experiments.CSVExporter); ok {
		if err := experiments.ExportCSV(csvDir, exp); err != nil {
			fmt.Fprintf(os.Stderr, "csv export: %v\n", err)
		}
	}
}

func runTable(n int, quick bool) {
	hdr(fmt.Sprintf("Table %d", n))
	switch n {
	case 1:
		emit(experiments.RunTable(experiments.TableConfig{Source: experiments.AWSEast, Quick: quick}))
	case 2:
		emit(experiments.RunTable(experiments.TableConfig{Source: experiments.AzureEast, Quick: quick}))
	case 3:
		emit(experiments.RunTable(experiments.TableConfig{Source: experiments.GCPEast, Quick: quick}))
	case 4:
		experiments.RunTable4(quick).Print(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "unknown table %d\n", n)
		os.Exit(2)
	}
}

func runFig(n int, quick bool) {
	hdr(fmt.Sprintf("Figure %d", n))
	switch n {
	case 2:
		emit(experiments.RunFig2(quick))
	case 3:
		emit(experiments.RunFig3(quick))
	case 4:
		experiments.RunFig4().Print(os.Stdout)
	case 5:
		experiments.RunFig5(quick).Print(os.Stdout)
	case 6:
		experiments.RunFig6(quick).Print(os.Stdout)
	case 7:
		emit(experiments.RunFig7(quick))
	case 8:
		emit(experiments.RunFig8(quick))
	case 9:
		emit(experiments.RunFig9())
	case 12:
		experiments.RunFig12().Print(os.Stdout)
	case 16:
		emit(experiments.RunFig16(quick))
	case 17:
		emit(experiments.RunFig17(quick))
	case 18:
		emit(experiments.RunModelAccuracy("aws:us-east-1", "azure:eastus", quick))
	case 19:
		emit(experiments.RunModelAccuracy("azure:eastus", "gcp:asia-northeast1", quick))
	case 20:
		emit(experiments.RunFig20("azure:southeastasia", []cloud.RegionID{
			"gcp:europe-west6", "gcp:us-east1", "gcp:asia-northeast1",
		}, quick))
		emit(experiments.RunFig20("gcp:europe-west6", []cloud.RegionID{
			"azure:westus2", "azure:southeastasia", "azure:uksouth",
		}, quick))
	case 21:
		emit(experiments.RunFig21(quick))
	case 22:
		emit(experiments.RunFig22(quick))
	case 23:
		emit(experiments.RunFig23(quick))
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %d\n", n)
		os.Exit(2)
	}
}

func runChaos(spec string, quick bool) {
	hdr("Fault matrix")
	cfg := experiments.FaultMatrixConfig{Quick: quick, Events: fleetobs.NewEventLog()}
	if spec != "matrix" {
		cfg.Profiles = strings.Split(spec, ",")
	}
	res, err := experiments.RunFaultMatrix(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fault matrix: %v\n", err)
		os.Exit(2)
	}
	emit(res)
	// The monitors' structured alert stream, scoped per profile: what an
	// operator's pager would have seen during each scenario.
	if cfg.Events.Len() > 0 {
		fmt.Printf("\nSLO alert events (%d):\n", cfg.Events.Len())
		if err := cfg.Events.WriteJSONL(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "alert log: %v\n", err)
		}
	}
}

func runCrash(quick bool) {
	hdr("Crash-point sweep")
	res, err := experiments.RunCrashSweep(experiments.CrashSweepConfig{Quick: quick})
	if err != nil {
		fmt.Fprintf(os.Stderr, "crash sweep: %v\n", err)
		os.Exit(2)
	}
	emit(res)
}

func runFleet(title, preset string, quick bool) {
	hdr(title)
	res, err := experiments.RunFleet(experiments.FleetConfig{Preset: preset, Quick: quick})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
		os.Exit(2)
	}
	emit(res)
	// The day replay's point is volume, which the control-plane summary
	// does not print.
	if preset == experiments.FleetDay {
		fmt.Printf("  %d replicated objects over %.1f virtual hours\n", res.ReplicatedObjects, res.VirtualHours)
	}
	if code := fleetExit(res); code != 0 {
		os.Exit(code)
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

func runExtra(name string, quick bool) {
	switch name {
	case "partsize":
		hdr("Extra: part-size ablation")
		experiments.RunPartSizeAblation(quick).Print(os.Stdout)
	case "overlay":
		hdr("Extra: overlay relay ablation")
		experiments.RunOverlayAblation(quick).Print(os.Stdout)
	case "pipeline":
		hdr("Extra: pipelined data plane ablation")
		emit(experiments.RunPipeline(quick))
	case "scrub":
		hdr("Extra: anti-entropy scrub cadence sweep")
		res, err := experiments.RunScrub(experiments.ScrubConfig{Quick: quick})
		if err != nil {
			fmt.Fprintf(os.Stderr, "scrub sweep: %v\n", err)
			os.Exit(2)
		}
		emit(res)
	case "fleet-day":
		runFleet("Extra: fleet-day replay", experiments.FleetDay, quick)
	default:
		fmt.Fprintf(os.Stderr, "unknown extra %q\n", name)
		os.Exit(2)
	}
}

func hdr(title string) {
	fmt.Printf("\n================ %s ================\n", title)
}
