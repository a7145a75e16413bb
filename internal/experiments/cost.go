package experiments

import (
	"fmt"
	"time"

	"repro/internal/baselines"
	"repro/internal/changelog"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
)

// Fig21Row is one object size's COPY replication measurements.
type Fig21Row struct {
	SizeBytes int64

	SkyplaneS, SkyplaneCost         float64
	S3RTCS, S3RTCCost               float64
	AReplicaFullS, AReplicaFullCost float64
	AReplicaLogS, AReplicaLogCost   float64
}

// Fig21Result reproduces Figure 21: time and cost of replicating an
// object that was created by a COPY of an already-replicated object,
// aws:us-east-1 -> aws:us-east-2. AReplica-log propagates only the
// changelog, eliminating the cross-region transfer entirely.
type Fig21Result struct {
	Rows []Fig21Row
}

// RunFig21 measures the four systems at 100 MB - 100 GB (quick: two sizes).
func RunFig21(quick bool) *Fig21Result {
	sizes := []int64{100 * MB, 1 * GB, 10 * GB, 100 * GB}
	if quick {
		sizes = []int64{100 * MB, 1 * GB}
	}
	src, dst := cloud.RegionID("aws:us-east-1"), cloud.RegionID("aws:us-east-2")
	res := &Fig21Result{}
	for si, size := range sizes {
		row := Fig21Row{SizeBytes: size}

		// --- Skyplane: full copy every time. ---
		{
			w := newWorld("fig21")
			mustCreate(w, src, "src", false)
			mustCreate(w, dst, "dst", false)
			sky := baselines.NewSkyplane(w, src, dst, "src", "dst", 1, 0)
			putObject(w, src, "src", "copy.bin", size, si)
			start := w.Clock.Now()
			row.SkyplaneCost = costDelta(w, func() {
				if _, err := sky.ReplicateMeasured("copy.bin", size); err != nil {
					panic(err)
				}
			})
			row.SkyplaneS = w.Clock.Since(start).Seconds()
		}

		// --- S3 RTC: full copy through the managed service. ---
		{
			w := newWorld("fig21")
			mustCreate(w, src, "src", true)
			mustCreate(w, dst, "dst", true)
			rtc, err := baselines.NewS3RTC(w, src, dst, "src", "dst")
			if err != nil {
				panic(err)
			}
			if err := w.Region(src).Obj.Subscribe("src", rtc.HandleEvent); err != nil {
				panic(err)
			}
			row.S3RTCCost = costDelta(w, func() {
				putObject(w, src, "src", "copy.bin", size, si)
			})
			row.S3RTCS = lastDelaySeconds(rtc.Tracker)
		}

		// --- AReplica, full vs changelog. ---
		for _, withLog := range []bool{false, true} {
			w := newWorld("fig21")
			m := model.New()
			mustCreate(w, src, "src", false)
			mustCreate(w, dst, "dst", false)
			svc := deployService(w, m, engine.Rule{
				Src: src, Dst: dst, SrcBucket: "src", DstBucket: "dst", SLO: 0,
			}, core.Options{
				ProfileRounds:   profileRounds(quick),
				EnableChangelog: withLog,
			})
			// Seed the base object and let it replicate normally.
			base := putObject(w, src, "src", "base.bin", size, si)
			w.Clock.Quiesce()

			// The COPY at the source, optionally hinted.
			srcObj := w.Region(src).Obj
			cost := costDelta(w, func() {
				copied, err := srcObj.Copy("src", "base.bin", "src", "copy.bin", "")
				if err != nil {
					panic(err)
				}
				if withLog {
					err := svc.RegisterChangelog(changelog.Log{
						Key: "copy.bin", ETag: copied.ETag, Op: changelog.OpCopy,
						Sources: []changelog.Source{{Key: "base.bin", ETag: base.ETag}},
					})
					if err != nil {
						panic(err)
					}
				}
			})
			delay := lastDelaySeconds(svc.Engine.Tracker)
			if withLog {
				row.AReplicaLogS, row.AReplicaLogCost = delay, cost
			} else {
				row.AReplicaFullS, row.AReplicaFullCost = delay, cost
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Tables returns the two panels as rows.
func (r *Fig21Result) Tables() []Table {
	t := Table{
		Name:  "fig21_copy",
		Title: "COPY operation replication aws:us-east-1 -> aws:us-east-2 (Figure 21)",
		Cols: []Col{{"size_bytes", "%d"}, {"skyplane_s", "%.1f"}, {"skyplane_cost", "%.4f"},
			{"s3rtc_s", "%.1f"}, {"s3rtc_cost", "%.4f"}, {"areplica_full_s", "%.1f"}, {"areplica_full_cost", "%.4f"},
			{"areplica_log_s", "%.1f"}, {"areplica_log_cost", "%.4f"}},
	}
	for _, row := range r.Rows {
		t.Add(row.SizeBytes, row.SkyplaneS, row.SkyplaneCost, row.S3RTCS, row.S3RTCCost,
			row.AReplicaFullS, row.AReplicaFullCost, row.AReplicaLogS, row.AReplicaLogCost)
	}
	return []Table{t}
}

// Fig22Point is one update-frequency measurement.
type Fig22Point struct {
	UpdatesPerMin int

	// SLO attainment as a fraction of versions replicated within the SLO,
	// and replication cost per minute of workload.
	AttainmentBatched   float64
	AttainmentUnbatched float64
	CostPerMinBatched   float64
	CostPerMinUnbatched float64
	TransfersBatched    int
	TransfersUnbatched  int
}

// Fig22Result reproduces Figure 22: SLO-bounded batching under rapid
// updates of a 100 MB object with a 30-second SLO.
type Fig22Result struct {
	SLO    time.Duration
	Points []Fig22Point
}

// RunFig22 updates one object at 5-100 updates/minute for several minutes
// with and without batching.
func RunFig22(quick bool) *Fig22Result {
	freqs := []int{5, 10, 50, 100}
	minutes := 10
	if quick {
		freqs = []int{5, 50}
		minutes = 3
	}
	const slo = 30 * time.Second
	src, dst := cloud.RegionID("aws:us-east-1"), cloud.RegionID("aws:us-east-2")
	res := &Fig22Result{SLO: slo}

	for _, freq := range freqs {
		pt := Fig22Point{UpdatesPerMin: freq}
		for _, batched := range []bool{true, false} {
			w := newWorld("fig22")
			m := model.New()
			mustCreate(w, src, "src", false)
			mustCreate(w, dst, "dst", false)
			transfers := 0
			svc := deployService(w, m, engine.Rule{
				Src: src, Dst: dst, SrcBucket: "src", DstBucket: "dst",
				SLO: slo,
			}, core.Options{
				ProfileRounds:  profileRounds(quick),
				EnableBatching: batched,
				OnTaskDone: func(r engine.TaskResult) {
					if r.OK {
						transfers++
					}
				},
			})
			interval := time.Minute / time.Duration(freq)
			total := freq * minutes
			cost := costDelta(w, func() {
				for i := 0; i < total; i++ {
					putObject(w, src, "src", "hot.bin", 100*MB, i)
					w.Clock.Sleep(interval)
				}
			})
			recs := svc.Engine.Tracker.Records()
			within := 0
			for _, rec := range recs {
				if rec.Delay <= slo {
					within++
				}
			}
			attain := float64(within) / float64(total)
			if batched {
				pt.AttainmentBatched = attain
				pt.CostPerMinBatched = cost / float64(minutes)
				pt.TransfersBatched = transfers
			} else {
				pt.AttainmentUnbatched = attain
				pt.CostPerMinUnbatched = cost / float64(minutes)
				pt.TransfersUnbatched = transfers
			}
		}
		res.Points = append(res.Points, pt)
	}
	return res
}

// Tables returns attainment and cost per frequency, then (printed only)
// the transfers each run made.
func (r *Fig22Result) Tables() []Table {
	freq := Col{"updates_per_min", "%d"}
	t := Table{
		Name:  "fig22_batching",
		Title: fmt.Sprintf("SLO-bounded batching, 100MB object, %s SLO (Figure 22)", r.SLO),
		Cols: []Col{freq, {"attain_batched", "%.3f"}, {"attain_unbatched", "%.3f"},
			{"cost_min_batched", "%.4f"}, {"cost_min_unbatched", "%.4f"}},
	}
	transfers := Table{
		Title: "Transfers per run (Figure 22)",
		Cols:  []Col{freq, {"transfers_batched", "%d"}, {"transfers_unbatched", "%d"}},
	}
	for _, p := range r.Points {
		t.Add(p.UpdatesPerMin, p.AttainmentBatched, p.AttainmentUnbatched, p.CostPerMinBatched, p.CostPerMinUnbatched)
		transfers.Add(p.UpdatesPerMin, p.TransfersBatched, p.TransfersUnbatched)
	}
	return []Table{t, transfers}
}

// PartSizeRow is one part-size measurement of the ablation bench behind
// the paper's 8 MB choice (§5.1).
type PartSizeRow struct {
	PartSize int64
	MeanS    float64
	CostUSD  float64
}

// PartSizeResult sweeps the part size for a fixed distributed replication,
// exposing the trade-off the paper describes: small parts balance better
// but pay more per-part overhead; large parts are efficient but let a slow
// instance hold the task hostage.
type PartSizeResult struct {
	Rows []PartSizeRow
}

// RunPartSizeAblation replicates a 1 GB object over the high-variance
// Azure->GCP path with 32 instances at several part sizes.
func RunPartSizeAblation(quick bool) *PartSizeResult {
	sizes := []int64{1 * MB, 4 * MB, 8 * MB, 32 * MB, 128 * MB}
	rounds := 4
	if quick {
		sizes = []int64{4 * MB, 8 * MB, 64 * MB}
		rounds = 2
	}
	src, dst := cloud.RegionID("azure:eastus"), cloud.RegionID("gcp:asia-northeast1")
	res := &PartSizeResult{}
	for _, ps := range sizes {
		w := newWorld("partsize")
		mustCreate(w, src, "src", false)
		mustCreate(w, dst, "dst", false)
		var sumS float64
		tasks := 0
		deployService(w, model.New(), engine.Rule{
			Src: src, Dst: dst, SrcBucket: "src", DstBucket: "dst",
			ForceN: 32, ForceLoc: src, PartSize: ps,
		}, core.Options{OnTaskDone: func(r engine.TaskResult) {
			sumS += r.ExecSeconds()
			tasks++
		}})
		var cost float64
		for r := 0; r < rounds; r++ {
			cost += costDelta(w, func() {
				putObject(w, src, "src", "obj", 1*GB, r)
			})
		}
		res.Rows = append(res.Rows, PartSizeRow{
			PartSize: ps,
			MeanS:    sumS / float64(tasks),
			CostUSD:  cost / float64(rounds),
		})
	}
	return res
}

// Tables returns the sweep (printed only).
func (r *PartSizeResult) Tables() []Table {
	t := Table{
		Title: "Part-size ablation, 1GB azure:eastus -> gcp:asia-northeast1, 32 fns",
		Cols:  []Col{{"part", "%s"}, {"mean_s", "%.2f"}, {"cost_usd", "%.4f"}},
	}
	for _, row := range r.Rows {
		t.Add(fmtSize(row.PartSize), row.MeanS, row.CostUSD)
	}
	return []Table{t}
}
