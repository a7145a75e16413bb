// Command bench is the repo's benchmark: four workloads over the public
// facade, end-to-end metrics for the simulator (host seconds, CPU,
// allocations) and for the simulated system (virtual-time delay, dollars,
// KV operations), a per-layer ledger, a traced run and isolated layer
// drivers, all behind one correctness gate. See README.md.
//
//	go run ./bench                         every workload x -reps, the traced runs and the layer drivers
//	go run ./bench -workload heavy-tail    one workload
//	go run ./bench -compare a.json b.json  apply each metric's bound to two reports
//	go run ./bench -workload W -seed N -seconds S -trace 0|1   one run, one JSON result line
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/stats"
)

const (
	// runSeconds is how long one run measures; BENCHMARK.json carries the
	// same number as run_seconds.
	runSeconds = 15
	// inputsPerRun is how many distinct inputs a run derives from its seed.
	// One input's few hundred heavy-tail objects leave delay percentiles
	// and per-replica costs swinging 10 % between seeds; five cut that to a
	// few percent. A run makes at least one iteration more, so that the
	// first input comes round again and must repeat exactly.
	inputsPerRun = 5
)

func main() {
	var (
		workloadF = flag.String("workload", "", "workload to run (default: all, then layers)")
		seed      = flag.Uint64("seed", 1, "seed of the trace, the size RNG and the chaos profile")
		seconds   = flag.Float64("seconds", 0, "run once in this process, measuring for this long, and print one JSON result line")
		trace     = flag.Int("trace", 0, "with -seconds: 1 reports the per-layer metrics from a traced, profiled run")
		reps      = flag.Int("reps", 3, "runs per workload, each in a fresh child process")
		traced    = flag.Bool("traced", true, "add one traced run per workload")
		out       = flag.String("o", "", "also write the report as JSON to this file")
		scale     = flag.Float64("scale", 1, "shrink every workload (tests only; output is not comparable)")
		compare   = flag.Bool("compare", false, "compare two report files: -compare old.json new.json")
		manifest  = flag.Bool("manifest", false, "print BENCHMARK.json as generated from the metric table")
	)
	flag.Parse()

	var err error
	switch {
	case *manifest:
		_, err = os.Stdout.Write(manifestJSON())
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two report files")
			break
		}
		var worse int
		worse, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err == nil && worse > 0 {
			err = fmt.Errorf("%d metric(s) worse than their bound", worse)
		}
	case *seconds > 0:
		err = childMain(*workloadF, *seed, *seconds, *scale, *trace != 0)
	default:
		err = parentMain(*workloadF, *seed, *reps, *traced, *scale, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one line a run prints last on standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// childMain performs one run in this process and prints its result line.
// It exits non-zero when the correctness gate fails.
func childMain(name string, seed uint64, seconds, scale float64, traced bool) error {
	// The clock runs one actor at a time, so a second P only adds futex
	// wake-ups whose cost follows the host's mood: on the 2-core reference
	// box wall_s spread 22 % between runs at GOMAXPROCS=2 and 4 % at 1. A run
	// therefore uses one P unless the caller sets GOMAXPROCS.
	if runProcs() == "1" {
		runtime.GOMAXPROCS(1)
	}
	var res result
	var problems []string
	var err error
	if name == "layers" {
		res.Metrics, err = runLayers(time.Duration(seconds*float64(time.Second)/float64(len(layerDrivers))), scale)
		res.Correct, res.Attempted = err == nil, len(res.Metrics)
	} else {
		wl, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		res, problems, err = runWorkload(wl, seed, time.Duration(seconds*float64(time.Second)), scale, traced)
		if traced {
			// A traced run reports the per-layer metrics only: its few
			// untraced iterations are too short a window for the rest.
			for _, m := range metrics {
				if m.endToEnd() {
					delete(res.Metrics, m.Name)
				}
			}
		}
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "bench: gate:", p)
		}
		return fmt.Errorf("%s seed %d: correctness gate failed", name, seed)
	}
	return nil
}

// runWorkload runs iterations of one workload for the given measured time
// and folds them into one result. A run replays inputsPerRun distinct
// inputs derived from the seed, round robin: simulated metrics and counts
// are the mean over those inputs (each must repeat exactly when its input
// comes round again). Host times are the median over all iterations of the
// time at the reference speed (calib.go); so are allocations.
func runWorkload(wl workload, seed uint64, measure time.Duration, scale float64, traced bool) (result, []string, error) {
	var its []*iteration
	var problems []string
	measured := time.Duration(0)
	plainFor := measure
	if traced {
		plainFor = 0 // the untraced iterations only anchor overhead and determinism
	}
	for len(its) <= inputsPerRun || measured < plainFor {
		it, err := runIteration(wl, seed*inputsPerRun+uint64(len(its)%inputsPerRun), scale, false, nil)
		if err != nil {
			return result{}, nil, err
		}
		measured += time.Duration(it.values["box.raw_wall_s"] * float64(time.Second)) // by the clock: a slow box does fewer iterations, not longer runs
		its = append(its, it)
	}
	inputs := its[:inputsPerRun]
	digest := fnv.New64a()
	res := result{Correct: true, Metrics: make(map[string]value)}
	for _, it := range inputs {
		fmt.Fprintf(digest, "%016x", it.digest)
		res.Attempted += it.attempted
		res.Failed += it.failed
		problems = append(problems, it.problems...)
	}
	if want, pinned := pinnedDigest(wl.name, seed, scale); pinned && want != digest.Sum64() {
		problems = append(problems, fmt.Sprintf("input digest %016x differs from the pinned %016x: the generated workload changed", digest.Sum64(), want))
	}
	for i, it := range its[inputsPerRun:] {
		for _, m := range metrics {
			if a, b := inputs[i%inputsPerRun].values[m.Name], it.values[m.Name]; m.exact() && m.Kind != tracedSim && a != b {
				problems = append(problems, fmt.Sprintf("%s is not deterministic: %v then %v for the same input", m.Name, a, b))
			}
		}
	}

	put := func(m metric, v float64) { res.Metrics[m.Name] = value{Value: v, Unit: m.Unit} }
	mean := func(its []*iteration, name string) float64 {
		var sum float64
		for _, it := range its {
			sum += it.values[name]
		}
		return sum / float64(len(its))
	}
	quantile := func(its []*iteration, name string, p float64) float64 {
		xs := make([]float64, len(its))
		for i, it := range its {
			xs[i] = it.values[name]
		}
		return stats.Percentile(xs, p)
	}

	fmt.Fprintf(os.Stderr, "bench: %s seed %d: input digest %016x, %d iterations, windows %.3f s by the clock at %.2f ms a yardstick pass\n",
		wl.name, seed, digest.Sum64(), len(its), quantile(its, "box.raw_wall_s", 50), quantile(its, "box.yardstick_ms", 50))
	for _, m := range metrics {
		switch {
		case m.Name == "peak_rss_mb":
			put(m, peakRSSMB())
		case m.Kind == hostE2E:
			put(m, quantile(its, m.Name, 50))
		case m.Kind == simE2E:
			put(m, mean(inputs, m.Name))
		}
	}
	if !traced {
		res.Correct = len(problems) == 0
		return res, problems, nil
	}

	// Traced run: every input once more with the tracer on and the CPU
	// sampled over the windows only. The end-to-end numbers above are never
	// taken from these iterations, whose simulated outcome must still equal
	// the untraced one.
	prof := &cpuProfile{}
	var tracedIts []*iteration
	for i, plain := range inputs {
		it, err := runIteration(wl, seed*inputsPerRun+uint64(i), scale, true, prof)
		if err != nil {
			return result{}, nil, err
		}
		problems = append(problems, it.problems...)
		for _, m := range metrics {
			if a, b := plain.values[m.Name], it.values[m.Name]; (m.Kind == simE2E || m.Kind == count) && a != b {
				problems = append(problems, fmt.Sprintf("%s differs with tracing on: %v traced, %v untraced", m.Name, b, a))
			}
		}
		tracedIts = append(tracedIts, it)
	}
	host := prof.fractions()
	var hostSum float64
	for _, f := range host {
		hostSum += f
	}
	if math.Abs(hostSum-1) > 1e-9 {
		problems = append(problems, fmt.Sprintf("host.* fractions sum to %.12f, not 1", hostSum))
	}
	base := quantile(its, "wall_s", 50)
	micros, err := runLayers(measure/2/time.Duration(len(layerDrivers)), scale)
	if err != nil {
		return result{}, nil, err
	}
	for _, m := range metrics {
		switch {
		case m.Name == "trace.overhead_frac":
			put(m, (quantile(tracedIts, "wall_s", 50)-base)/base)
		case m.Kind == count:
			put(m, mean(inputs, m.Name))
		case m.Kind == hostRaw:
			put(m, quantile(its, m.Name, 50))
		case m.Kind == tracedSim:
			put(m, mean(tracedIts, m.Name))
		case m.Kind == tracedCPU:
			put(m, host[m.Name])
		case m.Kind == micro:
			res.Metrics[m.Name] = micros[m.Name]
		}
	}
	res.Correct = len(problems) == 0
	return res, problems, nil
}
