package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/stats"
)

// Fig8Bar is one bar of Figure 8: a path executed on one platform's
// functions.
type Fig8Bar struct {
	Label    string
	Src, Dst cloud.RegionID
	Exec     cloud.RegionID
	MeanMBps float64
	StdMBps  float64
}

// Fig8Result reproduces Figure 8: replication speed of a 1 GB object
// between AWS us-east-1, Azure eastus and GCP us-east1, grouped by where
// the functions run.
type Fig8Result struct {
	Bars []Fig8Bar
}

// RunFig8 replicates a 1 GB object over every ordered pair of the three
// evaluation regions with 16 functions pinned to each side in turn.
func RunFig8(quick bool) *Fig8Result {
	rounds := 5
	if quick {
		rounds = 2
	}
	regions := []cloud.RegionID{"aws:us-east-1", "azure:eastus", "gcp:us-east1"}
	short := map[cloud.RegionID]string{
		"aws:us-east-1": "AWS", "azure:eastus": "Azure", "gcp:us-east1": "GCP",
	}
	res := &Fig8Result{}
	for _, src := range regions {
		for _, dst := range regions {
			if src == dst {
				continue
			}
			for _, exec := range []cloud.RegionID{src, dst} {
				speeds := replicationSpeeds(src, dst, exec, 1*GB, 16, rounds)
				fit := stats.FitNormal(speeds)
				res.Bars = append(res.Bars, Fig8Bar{
					Label: fmt.Sprintf("%s2%s@%s", short[src], short[dst], short[exec]),
					Src:   src, Dst: dst, Exec: exec,
					MeanMBps: fit.Mu, StdMBps: fit.Sigma,
				})
			}
		}
	}
	return res
}

// replicationSpeeds runs `rounds` forced-plan replications and returns the
// achieved end-to-end speeds in MiB/s.
func replicationSpeeds(src, dst, exec cloud.RegionID, size int64, n, rounds int) []float64 {
	w := newWorld("fig8")
	mustCreate(w, src, "src", false)
	mustCreate(w, dst, "dst", false)
	var mu sync.Mutex
	var speeds []float64
	svc := deployService(w, model.New(), engine.Rule{
		Src: src, Dst: dst, SrcBucket: "src", DstBucket: "dst",
		ForceN: n, ForceLoc: exec,
	}, core.Options{OnTaskDone: func(r engine.TaskResult) {
		mu.Lock()
		speeds = append(speeds, float64(r.Size)/(1<<20)/r.ExecSeconds())
		mu.Unlock()
	}})
	_ = svc
	for r := 0; r < rounds; r++ {
		// Fresh instances each round: measured spread must reflect the
		// instance population, not one warm set.
		w.Region(exec).Fn.FlushWarm()
		putObject(w, src, "src", "obj", size, r)
		w.Clock.Quiesce()
	}
	return speeds
}

// Tables returns the bars.
func (r *Fig8Result) Tables() []Table {
	t := Table{
		Name:  "fig8_asymmetry",
		Title: "Asymmetric behaviour of cloud functions, 1GB x 16 fns (Figure 8, MiB/s)",
		Cols:  []Col{{"label", "%s"}, {"mean_mibps", "%.1f"}, {"std_mibps", "%.1f"}},
	}
	for _, b := range r.Bars {
		t.Add(b.Label, b.MeanMBps, b.StdMBps)
	}
	return []Table{t}
}

// Fig12Result reproduces Figure 12's illustrative example: two replicators
// at 4 and 2 parts/second sharing 8 parts.
type Fig12Result struct {
	EqualSeconds   float64 // fixed 4/4 split
	OptimalSeconds float64 // oracle 5/3 split
	PoolSeconds    float64 // decentralized pool (simulated)
}

// RunFig12 computes the static splits analytically and simulates the
// decentralized pool with deterministic per-part service times.
func RunFig12() *Fig12Result {
	const parts = 8
	rate1, rate2 := 4.0, 2.0
	res := &Fig12Result{
		EqualSeconds:   max(4/rate1, 4/rate2),
		OptimalSeconds: max(5/rate1, 3/rate2),
	}
	// Pool simulation: each replicator claims the next part when free.
	var t1, t2 float64
	claimed := 0
	for claimed < parts {
		if t1 <= t2 {
			t1 += 1 / rate1
		} else {
			t2 += 1 / rate2
		}
		claimed++
	}
	res.PoolSeconds = max(t1, t2)
	return res
}

// Tables returns the three execution times (printed only).
func (r *Fig12Result) Tables() []Table {
	t := Table{
		Title: "Distribution of 8 parts over replicators at 4 and 2 parts/s (Figure 12)",
		Cols:  []Col{{"split", "%s"}, {"seconds", "%.2f"}},
	}
	t.Add("equal (4/4)", r.EqualSeconds)
	t.Add("optimal (5/3)", r.OptimalSeconds)
	t.Add("decentralized pool", r.PoolSeconds)
	return []Table{t}
}

// Fig17Instance is one replicator's contribution in the scheduling
// ablation.
type Fig17Instance struct {
	BusySeconds float64
	Chunks      int
}

// Fig17Result reproduces Figure 17: per-instance execution time and chunk
// counts under fair dispatch versus the decentralized part pool.
type Fig17Result struct {
	Fair []Fig17Instance
	Pool []Fig17Instance

	FairTaskSeconds float64
	PoolTaskSeconds float64
}

// RunFig17 replicates a 1 GB object from Azure eastus to GCP
// asia-northeast1 with 32 instances under both scheduling modes.
func RunFig17(quick bool) *Fig17Result {
	rounds := 3
	if quick {
		rounds = 1
	}
	run := func(mode engine.SchedulingMode) ([]Fig17Instance, float64) {
		w := newWorld("fig17")
		src, dst := cloud.RegionID("azure:eastus"), cloud.RegionID("gcp:asia-northeast1")
		mustCreate(w, src, "src", false)
		mustCreate(w, dst, "dst", false)
		var mu sync.Mutex
		var insts []Fig17Instance
		var taskSecs []float64
		deployService(w, model.New(), engine.Rule{
			Src: src, Dst: dst, SrcBucket: "src", DstBucket: "dst",
			ForceN: 32, ForceLoc: src, Scheduling: mode,
		}, core.Options{OnTaskDone: func(r engine.TaskResult) {
			mu.Lock()
			for _, st := range r.Instances {
				insts = append(insts, Fig17Instance{BusySeconds: st.Busy.Seconds(), Chunks: st.Chunks})
			}
			taskSecs = append(taskSecs, r.ExecSeconds())
			mu.Unlock()
		}})
		for r := 0; r < rounds; r++ {
			putObject(w, src, "src", "obj", 1*GB, r)
			w.Clock.Quiesce()
		}
		return insts, stats.Mean(taskSecs)
	}
	res := &Fig17Result{}
	res.Fair, res.FairTaskSeconds = run(engine.FairDispatch)
	res.Pool, res.PoolTaskSeconds = run(engine.PartPool)
	return res
}

// Tables returns every instance's busy time and chunk count (exported
// only), then the distributions' summary statistics (printed only).
func (r *Fig17Result) Tables() []Table {
	mode := Col{"mode", "%s"}
	raw := Table{Name: "fig17_scheduling", Cols: []Col{mode, {"busy_s", "%.1f"}, {"chunks", "%d"}}}
	summary := Table{
		Title: "Scheduling ablation: 1GB azure:eastus -> gcp:asia-northeast1, 32 fns (Figure 17)",
		Cols: []Col{mode, {"busy_p0_s", "%.1f"}, {"busy_p50_s", "%.1f"}, {"busy_p100_s", "%.1f"},
			{"chunks_min", "%d"}, {"chunks_max", "%d"}, {"task_s", "%.1f"}},
	}
	add := func(name string, insts []Fig17Instance, task float64) {
		var busy []float64
		minC, maxC := 1<<30, 0
		for _, in := range insts {
			raw.Add(name, in.BusySeconds, in.Chunks)
			busy = append(busy, in.BusySeconds)
			minC, maxC = min(minC, in.Chunks), max(maxC, in.Chunks)
		}
		summary.Add(name, stats.Percentile(busy, 0), stats.Percentile(busy, 50), stats.Percentile(busy, 100),
			minC, maxC, task)
	}
	add("fair", r.Fair, r.FairTaskSeconds)
	add("pool", r.Pool, r.PoolTaskSeconds)
	return []Table{raw, summary}
}

// ModelAccuracyResult reproduces Figures 18-19: measured replication times
// against the model's predicted distribution for one path at n=1 and n=32.
type ModelAccuracyResult struct {
	Src, Dst cloud.RegionID

	ActualN1  []float64
	ActualN32 []float64

	PredictedN1Mean, PredictedN1Std   float64
	PredictedN32Mean, PredictedN32Std float64

	PredictedN1P90, PredictedN32P90 float64
}

// RunModelAccuracy profiles a path, then replicates a 1 GB object
// repeatedly with 1 and 32 source-side functions, comparing against the
// model (100 runs; fewer in quick mode).
func RunModelAccuracy(src, dst cloud.RegionID, quick bool) *ModelAccuracyResult {
	runs := 100
	if quick {
		runs = 30
	}
	res := &ModelAccuracyResult{Src: src, Dst: dst}

	w := newWorld("modelacc")
	m := model.New()
	mustCreate(w, src, "src", false)
	mustCreate(w, dst, "dst", false)
	// Profile via a throwaway deployment on separate buckets so the
	// measured runs use forced plans against the same world.
	mustCreate(w, src, "profile-src", false)
	mustCreate(w, dst, "profile-dst", false)
	// Model accuracy is sensitive to profiling noise; use full effort even
	// in quick mode.
	deployService(w, m, engine.Rule{
		Src: src, Dst: dst, SrcBucket: "profile-src", DstBucket: "profile-dst",
	}, core.Options{ProfileRounds: 16})

	for _, n := range []int{1, 32} {
		var mu sync.Mutex
		var actual []float64
		bucketSrc := fmt.Sprintf("acc-src-%d", n)
		bucketDst := fmt.Sprintf("acc-dst-%d", n)
		mustCreate(w, src, bucketSrc, false)
		mustCreate(w, dst, bucketDst, false)
		deployService(w, m, engine.Rule{
			Src: src, Dst: dst, SrcBucket: bucketSrc, DstBucket: bucketDst,
			ForceN: n, ForceLoc: src,
		}, core.Options{OnTaskDone: func(r engine.TaskResult) {
			mu.Lock()
			actual = append(actual, r.ExecSeconds())
			mu.Unlock()
		}})
		for r := 0; r < runs; r++ {
			w.Region(src).Fn.FlushWarm() // sample a fresh instance set per run
			putObject(w, src, bucketSrc, "obj", 1*GB, r)
			w.Clock.Quiesce()
		}
		d, err := m.ReplTime(src, dst, src, 1*GB, n, false)
		if err != nil {
			panic(err)
		}
		if n == 1 {
			res.ActualN1 = actual
			res.PredictedN1Mean, res.PredictedN1Std, res.PredictedN1P90 = d.Mean(), d.Std(), d.Quantile(0.9)
		} else {
			res.ActualN32 = actual
			res.PredictedN32Mean, res.PredictedN32Std, res.PredictedN32P90 = d.Mean(), d.Std(), d.Quantile(0.9)
		}
	}
	return res
}

// Tables returns the measured samples (exported only), then measured
// against predicted moments (printed only).
func (r *ModelAccuracyResult) Tables() []Table {
	n := Col{"n", "%d"}
	raw := Table{Name: fmt.Sprintf("fig18_19_%s_to_%s", stem(r.Src), stem(r.Dst)), Cols: []Col{n, {"actual_s", "%.2f"}}}
	summary := Table{
		Title: fmt.Sprintf("Model accuracy for 1GB %s -> %s (Figures 18-19)", r.Src, r.Dst),
		Cols: []Col{n, {"measured_mean_s", "%.2f"}, {"measured_std_s", "%.2f"},
			{"predicted_mean_s", "%.2f"}, {"predicted_std_s", "%.2f"}, {"predicted_p90_s", "%.2f"}},
	}
	for _, v := range r.ActualN1 {
		raw.Add(1, v)
	}
	for _, v := range r.ActualN32 {
		raw.Add(32, v)
	}
	summary.Add(1, stats.Mean(r.ActualN1), stats.StdDev(r.ActualN1), r.PredictedN1Mean, r.PredictedN1Std, r.PredictedN1P90)
	summary.Add(32, stats.Mean(r.ActualN32), stats.StdDev(r.ActualN32), r.PredictedN32Mean, r.PredictedN32Std, r.PredictedN32P90)
	return []Table{raw, summary}
}

// Table4Entry is one cell of Table 4.
type Table4Entry struct {
	Src, Dst                  cloud.RegionID
	PredMean, PredStd         float64
	MeasuredMean, MeasuredStd float64
}

// Table4Result reproduces Table 4: predicted vs measured replication time
// (mean +- std) for six region pairs with 32 function instances.
type Table4Result struct {
	Entries []Table4Entry
}

// RunTable4 evaluates the model across the paper's three-region matrix.
func RunTable4(quick bool) *Table4Result {
	runs := 20
	if quick {
		runs = 8
	}
	regions := []cloud.RegionID{"aws:us-east-1", "azure:westus2", "gcp:europe-west6"}
	res := &Table4Result{}
	for _, src := range regions {
		for _, dst := range regions {
			if src == dst {
				continue
			}
			w := newWorld("table4")
			m := model.New()
			mustCreate(w, src, "p-src", false)
			mustCreate(w, dst, "p-dst", false)
			// Like Figures 18-19, the predicted spread is sensitive to the
			// number of instances the profiler sampled; use full effort.
			deployService(w, m, engine.Rule{
				Src: src, Dst: dst, SrcBucket: "p-src", DstBucket: "p-dst",
			}, core.Options{ProfileRounds: 16})

			var mu sync.Mutex
			var actual []float64
			mustCreate(w, src, "src", false)
			mustCreate(w, dst, "dst", false)
			deployService(w, m, engine.Rule{
				Src: src, Dst: dst, SrcBucket: "src", DstBucket: "dst",
				ForceN: 32, ForceLoc: src,
			}, core.Options{OnTaskDone: func(r engine.TaskResult) {
				mu.Lock()
				actual = append(actual, r.ExecSeconds())
				mu.Unlock()
			}})
			for r := 0; r < runs; r++ {
				w.Region(src).Fn.FlushWarm() // fresh instance set per run
				putObject(w, src, "src", "obj", 1*GB, r)
				w.Clock.Quiesce()
			}
			d, err := m.ReplTime(src, dst, src, 1*GB, 32, false)
			if err != nil {
				panic(err)
			}
			res.Entries = append(res.Entries, Table4Entry{
				Src: src, Dst: dst,
				PredMean: d.Mean(), PredStd: d.Std(),
				MeasuredMean: stats.Mean(actual), MeasuredStd: stats.StdDev(actual),
			})
		}
	}
	return res
}

// Tables returns the predicted-vs-measured matrix (printed only).
func (t *Table4Result) Tables() []Table {
	tb := Table{
		Title: "Predicted vs measured replication time, 1GB x 32 fns (Table 4, seconds)",
		Cols: []Col{{"src", "%s"}, {"dst", "%s"}, {"predicted_mean_s", "%.2f"}, {"predicted_std_s", "%.2f"},
			{"measured_mean_s", "%.2f"}, {"measured_std_s", "%.2f"}},
	}
	for _, e := range t.Entries {
		tb.Add(e.Src, e.Dst, e.PredMean, e.PredStd, e.MeasuredMean, e.MeasuredStd)
	}
	return []Table{tb}
}

// Fig20Row is one destination's replication time under the three
// execution-side policies.
type Fig20Row struct {
	Dst                    cloud.RegionID
	SrcSideS, DstSideS     float64
	DynamicS               float64
	DynamicChoseSourceSide bool
}

// Fig20Result reproduces Figure 20: static source side vs static
// destination side vs AReplica's dynamic selection, 128 MB single
// function.
type Fig20Result struct {
	Src  cloud.RegionID
	Rows []Fig20Row
}

// RunFig20 measures the three policies from one source region.
func RunFig20(src cloud.RegionID, dests []cloud.RegionID, quick bool) *Fig20Result {
	rounds := 5
	if quick {
		rounds = 2
	}
	res := &Fig20Result{Src: src}
	for _, dst := range dests {
		row := Fig20Row{Dst: dst}
		// Static sides: forced single function.
		row.SrcSideS = stats.Mean(replicationTimes(src, dst, 128*MB, 1, src, rounds))
		row.DstSideS = stats.Mean(replicationTimes(src, dst, 128*MB, 1, dst, rounds))

		// Dynamic: a relaxed SLO that still keeps the planner at a single
		// function, profiled per pair.
		w := newWorld("fig20")
		m := model.New()
		mustCreate(w, src, "src", false)
		mustCreate(w, dst, "dst", false)
		var mu sync.Mutex
		var times []float64
		var choseSrc bool
		deployService(w, m, engine.Rule{
			Src: src, Dst: dst, SrcBucket: "src", DstBucket: "dst",
			SLO: 2 * time.Minute,
		}, core.Options{
			ProfileRounds: profileRounds(quick),
			OnTaskDone: func(r engine.TaskResult) {
				mu.Lock()
				times = append(times, r.ExecSeconds())
				choseSrc = r.Plan.Loc == src
				mu.Unlock()
			},
		})
		for r := 0; r < rounds; r++ {
			putObject(w, src, "src", "obj", 128*MB, r)
			w.Clock.Quiesce()
		}
		row.DynamicS = stats.Mean(times)
		row.DynamicChoseSourceSide = choseSrc
		res.Rows = append(res.Rows, row)
	}
	return res
}

// replicationTimes measures forced-plan replication times.
func replicationTimes(src, dst cloud.RegionID, size int64, n int, loc cloud.RegionID, rounds int) []float64 {
	w := newWorld("repltime")
	mustCreate(w, src, "src", false)
	mustCreate(w, dst, "dst", false)
	var mu sync.Mutex
	var times []float64
	deployService(w, model.New(), engine.Rule{
		Src: src, Dst: dst, SrcBucket: "src", DstBucket: "dst",
		ForceN: n, ForceLoc: loc,
	}, core.Options{OnTaskDone: func(r engine.TaskResult) {
		mu.Lock()
		times = append(times, r.ExecSeconds())
		mu.Unlock()
	}})
	for r := 0; r < rounds; r++ {
		w.Region(loc).Fn.FlushWarm() // fresh instance per round
		putObject(w, src, "src", "obj", size, r)
		w.Clock.Quiesce()
	}
	return times
}

// Tables returns the per-destination comparison.
func (r *Fig20Result) Tables() []Table {
	t := Table{
		Name:  "fig20_from_" + stem(r.Src),
		Title: fmt.Sprintf("Dynamic region selection from %s, 128MB single function (Figure 20, seconds)", r.Src),
		Cols: []Col{{"dst", "%s"}, {"src_side_s", "%.1f"}, {"dst_side_s", "%.1f"}, {"dynamic_s", "%.1f"},
			{"dynamic_chose", "%s"}},
	}
	for _, row := range r.Rows {
		chose := "dst"
		if row.DynamicChoseSourceSide {
			chose = "src"
		}
		t.Add(row.Dst, row.SrcSideS, row.DstSideS, row.DynamicS, chose)
	}
	return []Table{t}
}
