package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// header fingerprints the machine and build: two reports are comparable
// only when every field but Commit matches.
type header struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	RunProcs   string  `json:"run_gomaxprocs"` // what each run uses: 1 unless GOMAXPROCS is exported
	NumCPU     int     `json:"numcpu"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Reps       int     `json:"reps"`
	RunSeconds int     `json:"run_seconds"`
	Scale      float64 `json:"scale"`
	Comparable bool    `json:"comparable"` // false at -scale != 1
}

// stat is one metric of one workload in a report: the median over the
// runs and, for host metrics, the quartiles and the runs themselves.
type stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Runs   []float64 `json:"runs,omitempty"`
}

type workloadReport struct {
	Name      string          `json:"name"`
	Digest    string          `json:"input_digest,omitempty"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	EndToEnd  map[string]stat `json:"end_to_end,omitempty"`
	PerLayer  map[string]stat `json:"per_layer,omitempty"`
}

type report struct {
	Header    header           `json:"header"`
	Workloads []workloadReport `json:"workloads"`
}

func quartiles(xs []float64) (q1, med, q3 float64) {
	return stats.Percentile(xs, 25), stats.Percentile(xs, 50), stats.Percentile(xs, 75)
}

func runProcs() string {
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		return v
	}
	return "1"
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// child re-executes this binary for one run and parses its result line.
// Runs are sequential and each gets a fresh process, so peak RSS, GC state
// and the goroutine pool of one run cannot leak into the next.
func child(name string, seed uint64, seconds, scale float64, traced bool) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-scale", strconv.FormatFloat(scale, 'g', -1, 64), "-trace", tr)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		if runErr != nil {
			return result{}, fmt.Errorf("%s run: %w", name, runErr)
		}
		return result{}, fmt.Errorf("%s run printed no result line: %w", name, err)
	}
	if runErr != nil {
		return res, fmt.Errorf("%s run: %w", name, runErr)
	}
	return res, nil
}

// parentMain runs every workload (or the one named) reps times plus a
// traced run each, then the layer drivers, prints the table and exits
// non-zero if any run failed its gate or a simulated metric differed
// between two runs of the same seed.
func parentMain(only string, seed uint64, reps int, traced bool, scale float64, outPath string) error {
	rep := report{Header: header{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		RunProcs: runProcs(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Commit: gitCommit(),
		Seed: seed, Reps: reps, RunSeconds: runSeconds, Scale: scale, Comparable: scale == 1,
	}}
	seconds := float64(runSeconds) * scale // a shrunken workload needs a shorter window
	var failures []string
	for _, wl := range workloads {
		if only != "" && only != wl.name {
			continue
		}
		wr := workloadReport{Name: wl.name, EndToEnd: map[string]stat{}, PerLayer: map[string]stat{}}
		if d, ok := pinnedDigest(wl.name, seed, scale); ok {
			wr.Digest = fmt.Sprintf("%016x", d)
		}
		runs := map[string][]float64{}
		for r := 0; r < reps; r++ {
			fmt.Fprintf(os.Stderr, "bench: %s run %d/%d\n", wl.name, r+1, reps)
			res, err := child(wl.name, seed, seconds, scale, false)
			if err != nil {
				failures = append(failures, err.Error())
				continue
			}
			wr.Attempted, wr.Failed = res.Attempted, res.Failed
			for name, v := range res.Metrics {
				runs[name] = append(runs[name], v.Value)
			}
		}
		for _, m := range metrics {
			xs := runs[m.Name]
			if !m.endToEnd() || len(xs) == 0 {
				continue
			}
			q1, med, q3 := quartiles(xs)
			st := stat{Unit: m.Unit, Median: med, Q1: q1, Q3: q3}
			if m.exact() {
				// Simulated metrics are reported once: they must repeat.
				if q1 != q3 || xs[0] != med {
					failures = append(failures, fmt.Sprintf("%s: %s differs between runs of seed %d: %v", wl.name, m.Name, seed, xs))
				}
			} else {
				st.Runs = xs
			}
			wr.EndToEnd[m.Name] = st
		}
		if traced {
			fmt.Fprintf(os.Stderr, "bench: %s traced run\n", wl.name)
			res, err := child(wl.name, seed, seconds, scale, true)
			if err != nil {
				failures = append(failures, err.Error())
			}
			for name, v := range res.Metrics {
				// The layer drivers get their own, longer run below.
				if m, _ := metricByName(name); m.Kind != micro {
					wr.PerLayer[name] = stat{Unit: v.Unit, Median: v.Value, Q1: v.Value, Q3: v.Value}
				}
			}
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	if only == "" || only == "layers" {
		fmt.Fprintln(os.Stderr, "bench: layers")
		wr := workloadReport{Name: "layers", PerLayer: map[string]stat{}}
		// At least a second per driver at full scale.
		res, err := child("layers", seed, float64(len(layerDrivers))*scale, scale, false)
		if err != nil {
			failures = append(failures, err.Error())
		}
		wr.Attempted = res.Attempted
		for name, v := range res.Metrics {
			wr.PerLayer[name] = stat{Unit: v.Unit, Median: v.Value, Q1: v.Value, Q3: v.Value}
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	if len(rep.Workloads) == 0 {
		return fmt.Errorf("unknown workload %q", only)
	}

	rep.print(os.Stdout)
	if outPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "bench: FAIL:", f)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d failure(s)", len(failures))
	}
	return nil
}

// print writes every metric by name with its unit, one table per workload.
func (r report) print(w io.Writer) {
	h := r.Header
	fmt.Fprintf(w, "bench: %s %s/%s gomaxprocs=%d (runs use %s) numcpu=%d commit=%s seed=%d reps=%d run_seconds=%d\n",
		h.GoVersion, h.GOOS, h.GOARCH, h.GOMAXPROCS, h.RunProcs, h.NumCPU, h.Commit, h.Seed, h.Reps, h.RunSeconds)
	if !h.Comparable {
		fmt.Fprintf(w, "NOT COMPARABLE: -scale %g shrinks every workload\n", h.Scale)
	}
	for _, wr := range r.Workloads {
		fmt.Fprintf(w, "\n== %s (attempted %d, failed %d", wr.Name, wr.Attempted, wr.Failed)
		if wr.Digest != "" {
			fmt.Fprintf(w, ", input %s", wr.Digest)
		}
		fmt.Fprintln(w, ")")
		for _, m := range metrics {
			if st, ok := wr.EndToEnd[m.Name]; ok {
				if len(st.Runs) > 0 {
					fmt.Fprintf(w, "  %-36s %14.6g %-7s [q1 %.6g, q3 %.6g, n=%d]\n", m.Name, st.Median, st.Unit, st.Q1, st.Q3, len(st.Runs))
				} else {
					fmt.Fprintf(w, "  %-36s %14.6g %-7s exact\n", m.Name, st.Median, st.Unit)
				}
			}
		}
		for _, m := range metrics {
			if st, ok := wr.PerLayer[m.Name]; ok {
				fmt.Fprintf(w, "  %-36s %14.6g %s\n", m.Name, st.Median, st.Unit)
			}
		}
	}
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// manifestJSON renders BENCHMARK.json from the workload and metric tables.
func manifestJSON() []byte {
	m := manifest{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, wl := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{Name: wl.name, Why: wl.why})
	}
	for _, mt := range metrics {
		mm := manifestMetric{Name: mt.Name, Unit: mt.Unit, Better: mt.Better}
		if mt.endToEnd() {
			b := mt.Bound
			mm.Bound = &b
			m.EndToEnd = append(m.EndToEnd, mm)
		} else {
			m.PerLayer = append(m.PerLayer, mm)
		}
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // the tables hold only strings and finite numbers
	}
	return append(data, '\n')
}

// inputsJSON pins each workload's input digest for the seeds the reference
// results were taken with; regenerate it only in a `benchmark` issue.
//
//go:embed inputs.json
var inputsJSON []byte

// pinnedDigest returns the digest a workload's generated op list must have
// for seed at full scale, when one is pinned.
func pinnedDigest(name string, seed uint64, scale float64) (uint64, bool) {
	if scale != 1 {
		return 0, false
	}
	var pins map[string]map[string]string // workload -> seed -> hex digest
	if err := json.Unmarshal(inputsJSON, &pins); err != nil {
		panic(fmt.Sprintf("bench/inputs.json: %v", err))
	}
	hex, ok := pins[name][strconv.FormatUint(seed, 10)]
	if !ok {
		return 0, false
	}
	d, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		panic(fmt.Sprintf("bench/inputs.json: %s seed %d: %v", name, seed, err))
	}
	return d, true
}
