package experiments

import (
	"fmt"
	"sync"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/stats"
)

// PipelineRow is one configuration of the pipelined-data-plane ablation:
// a knob set applied to the distributed path, with the replication-time
// distribution and per-object KV/cost footprint it produces.
type PipelineRow struct {
	Label string

	P50S          float64
	P99S          float64
	KVOpsPerObj   float64
	HedgedParts   int64
	PartSizeBytes int64 // part size the first task ran with (0 = rule default)
	CostPerObjUSD float64
}

// PipelineResult is the ablation of the pipelined data plane: the PR-4
// baseline (serial transfer, per-part claims, no hedging, fixed 8 MB
// parts), each optimisation enabled alone, and the full pipeline.
type PipelineResult struct {
	Src, Dst  cloud.RegionID
	SizeBytes int64
	Objects   int
	N         int
	Rows      []PipelineRow
}

// RunPipeline ablates the distributed data plane's four optimisations —
// double-buffered transfer, batched pool claims, hedged tail parts, and
// adaptive part sizing — on a large-object trans-Pacific path where
// per-instance bandwidth variability makes stragglers and per-part KV
// round-trips expensive. Each configuration replays the same workload on
// a fresh world so rows are directly comparable and deterministic.
func RunPipeline(quick bool) *PipelineResult {
	// 768 MB over 16 instances is ~6 fixed-size parts per instance: deep
	// enough for double-buffering's steady state and for batched claims
	// to stay load-balanced, with a real straggler tail to hedge.
	const n = 16
	size := int64(768 * MB)
	// Even the quick variant keeps 8 samples: p99 of fewer is the max of a
	// handful of draws, and the full-vs-baseline comparison becomes a coin
	// flip on one straggler draw.
	objects := 12
	if quick {
		objects = 8
	}
	src, dst := AWSEast, cloud.RegionID("gcp:asia-northeast1")
	res := &PipelineResult{Src: src, Dst: dst, SizeBytes: size, Objects: objects, N: n}

	// The baseline pins PR-4 behavior: serial download-then-upload, one KV
	// claim per part, hedging off, fixed Rule.PartSize parts.
	baseline := engine.Rule{
		DisableDoubleBuffer: true, ClaimBatch: 1, HedgeBudget: -1, DisableAdaptiveParts: true,
	}
	configs := []struct {
		label string
		mod   func(*engine.Rule)
	}{
		{"baseline", func(r *engine.Rule) {}},
		{"+doublebuf", func(r *engine.Rule) { r.DisableDoubleBuffer = false }},
		{"+claimbatch4", func(r *engine.Rule) { r.ClaimBatch = 4 }},
		{"+hedge", func(r *engine.Rule) { r.HedgeBudget = 4 }},
		{"+adaptive", func(r *engine.Rule) { r.DisableAdaptiveParts = false }},
		{"full", func(r *engine.Rule) {
			*r = engine.Rule{} // all four knobs at their defaults
		}},
	}
	for _, cfg := range configs {
		rule := baseline
		cfg.mod(&rule)
		res.Rows = append(res.Rows, runPipelineConfig(cfg.label, src, dst, size, objects, n, rule))
	}
	return res
}

// runPipelineConfig replays the workload under one knob set on a fresh
// world. ForceN skips deploy-time profiling, but adaptive part sizing
// needs a fitted model, so the path is profiled via a throwaway
// deployment on separate buckets first (the RunModelAccuracy pattern).
func runPipelineConfig(label string, src, dst cloud.RegionID, size int64, objects, n int, knobs engine.Rule) PipelineRow {
	// Every config runs on an identically-seeded world: same chaos, netsim
	// and instance-bandwidth draws, so rows form a paired comparison and
	// differences are attributable to the knobs rather than draw luck.
	w := newWorld("pipeline")
	_ = label
	m := model.New()
	mustCreate(w, src, "src", false)
	mustCreate(w, dst, "dst", false)
	mustCreate(w, src, "profile-src", false)
	mustCreate(w, dst, "profile-dst", false)
	deployService(w, m, engine.Rule{
		Src: src, Dst: dst, SrcBucket: "profile-src", DstBucket: "profile-dst",
	}, core.Options{ProfileRounds: 16})

	var mu sync.Mutex
	var execs []float64
	var partSize int64
	rule := knobs
	rule.Src, rule.Dst = src, dst
	rule.SrcBucket, rule.DstBucket = "src", "dst"
	rule.ForceN, rule.ForceLoc = n, src
	deployService(w, m, rule, core.Options{OnTaskDone: func(r engine.TaskResult) {
		mu.Lock()
		execs = append(execs, r.ExecSeconds())
		if partSize == 0 {
			partSize = r.Plan.PartSize
		}
		mu.Unlock()
	}})

	reads := w.Metrics.Counter("kvstore.reads")
	writes := w.Metrics.Counter("kvstore.writes")
	hedged := w.Metrics.Counter("engine.parts.hedged")
	kvBase := reads.Value() + writes.Value()
	hedgeBase := hedged.Value()
	cost := costDelta(w, func() {
		for i := 0; i < objects; i++ {
			w.Region(src).Fn.FlushWarm() // sample a fresh instance set per object
			putObject(w, src, "src", "obj", size, i)
			w.Clock.Quiesce()
		}
	})
	if len(execs) != objects {
		panic(fmt.Sprintf("pipeline %s: resolved %d of %d objects", label, len(execs), objects))
	}
	return PipelineRow{
		Label:         label,
		P50S:          stats.Percentile(execs, 50),
		P99S:          stats.Percentile(execs, 99),
		KVOpsPerObj:   float64(reads.Value()+writes.Value()-kvBase) / float64(objects),
		HedgedParts:   hedged.Value() - hedgeBase,
		PartSizeBytes: partSize,
		CostPerObjUSD: cost / float64(objects),
	}
}

// Tables returns the ablation rows.
func (r *PipelineResult) Tables() []Table {
	t := Table{
		Name: "pipeline_ablation",
		Title: fmt.Sprintf("Pipelined data plane ablation: %s %s -> %s, %d fns, %d objects",
			fmtSize(r.SizeBytes), r.Src, r.Dst, r.N, r.Objects),
		Cols: []Col{{"config", "%s"}, {"p50_s", "%.2f"}, {"p99_s", "%.2f"}, {"kv_ops_per_obj", "%.1f"},
			{"hedged_parts", "%d"}, {"part_bytes", "%d"}, {"cost_per_obj_usd", "%.6f"}},
	}
	for _, row := range r.Rows {
		t.Add(row.Label, row.P50S, row.P99S, row.KVOpsPerObj, row.HedgedParts, row.PartSizeBytes, row.CostPerObjUSD)
	}
	return []Table{t}
}
