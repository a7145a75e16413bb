package experiments

import (
	"fmt"
	"time"

	"repro/internal/baselines"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/simrand"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/world"
)

// Fig2Result reproduces Figure 2: the PUT request size distribution of
// an IBM-COS-like trace, by request count and by capacity.
type Fig2Result struct {
	Labels      []string
	CountPct    []float64
	CapacityPct []float64
	TotalPuts   int64
}

// RunFig2 generates a day-long trace and buckets its PUT sizes.
func RunFig2(quick bool) *Fig2Result {
	dur := 24 * time.Hour
	if quick {
		dur = 2 * time.Hour
	}
	ops := trace.Generate(trace.DefaultConfig(dur, 600))
	labels, counts, capacity := trace.SizeHistogram(ops)
	var totalC, totalB int64
	for i := range labels {
		totalC += counts[i]
		totalB += capacity[i]
	}
	res := &Fig2Result{Labels: labels, TotalPuts: totalC}
	for i := range labels {
		res.CountPct = append(res.CountPct, 100*float64(counts[i])/float64(totalC))
		res.CapacityPct = append(res.CapacityPct, 100*float64(capacity[i])/float64(totalB))
	}
	return res
}

// Tables returns the histogram.
func (r *Fig2Result) Tables() []Table {
	t := Table{
		Name:  "fig2_put_sizes",
		Title: fmt.Sprintf("PUT request size distribution, %d PUTs (Figure 2)", r.TotalPuts),
		Cols:  []Col{{"bucket", "%s"}, {"count_pct", "%.2f"}, {"capacity_pct", "%.2f"}},
	}
	for i, l := range r.Labels {
		t.Add(l, r.CountPct[i], r.CapacityPct[i])
	}
	return []Table{t}
}

// Fig3Result reproduces Figure 3: per-minute write throughput over a
// multi-day trace.
type Fig3Result struct {
	MBps []float64
}

// RunFig3 generates a week-long (quick: day-long) trace and derives its
// throughput series.
func RunFig3(quick bool) *Fig3Result {
	days := 7
	if quick {
		days = 1
	}
	ops := trace.Generate(trace.DefaultConfig(time.Duration(days)*24*time.Hour, 400))
	return &Fig3Result{MBps: trace.ThroughputSeries(ops)}
}

// Tables returns the per-minute series (exported only), then its min,
// mean, max and swing (printed only).
func (r *Fig3Result) Tables() []Table {
	series := Table{Name: "fig3_throughput", Cols: []Col{{"minute", "%d"}, {"mb_per_s", "%.1f"}}}
	lo, hi := r.MBps[0], r.MBps[0]
	var sum float64
	for i, v := range r.MBps {
		series.Add(i, v)
		lo, hi = min(lo, v), max(hi, v)
		sum += v
	}
	summary := Table{
		Title: fmt.Sprintf("Write throughput over %d minutes (Figure 3)", len(r.MBps)),
		Cols:  []Col{{"min_mb_per_s", "%.1f"}, {"mean_mb_per_s", "%.1f"}, {"max_mb_per_s", "%.1f"}, {"swing", "%.1f"}},
	}
	summary.Add(lo, sum/float64(len(r.MBps)), hi, hi/(lo+0.01))
	return []Table{series, summary}
}

// Fig5Policy is one VM shutdown policy's trace-replay outcome.
type Fig5Policy struct {
	IdleTimeout time.Duration
	P50S        float64
	P99S        float64
	MaxS        float64
	VMCost      float64
}

// Fig5Result reproduces Figure 5: Skyplane under a dynamic workload with
// different keep-alive policies.
type Fig5Result struct {
	Ops      int
	Policies []Fig5Policy
}

// RunFig5 replays a moderate-tenant trace against Skyplane with 5 min,
// 1 min and 20 s idle shutdown.
func RunFig5(quick bool) *Fig5Result {
	dur := 60 * time.Minute
	rate := 3.0 // a moderate tenant: a few requests per minute
	if quick {
		dur = 20 * time.Minute
	}
	cfg := trace.DefaultConfig(dur, rate)
	cfg.DeleteFraction = 0
	ops := trace.Generate(cfg)
	// Clip giant objects: the moderate tenant of Figure 5 moves small data.
	for i := range ops {
		if ops[i].Size > 256*MB {
			ops[i].Size = 256 * MB
		}
	}

	res := &Fig5Result{Ops: len(ops)}
	for _, idle := range []time.Duration{5 * time.Minute, time.Minute, 20 * time.Second} {
		w := newWorld("fig5")
		src, dst := cloud.RegionID("aws:us-east-1"), cloud.RegionID("aws:us-east-2")
		mustCreate(w, src, "src", false)
		mustCreate(w, dst, "dst", false)
		sky := baselines.NewSkyplane(w, src, dst, "src", "dst", 1, idle)
		if err := w.Region(src).Obj.Subscribe("src", sky.HandleEvent); err != nil {
			panic(err)
		}
		vmBefore := w.Meter.Item("vm:compute")
		trace.Replay(w.Clock, ops, func(op trace.Op) {
			applyTraceOp(w, src, "src", op)
		})
		w.Clock.Quiesce()
		sky.Shutdown()
		w.Clock.Quiesce()
		delays := sky.Tracker.DelaysSeconds()
		res.Policies = append(res.Policies, Fig5Policy{
			IdleTimeout: idle,
			P50S:        stats.Percentile(delays, 50),
			P99S:        stats.Percentile(delays, 99),
			MaxS:        stats.Percentile(delays, 100),
			VMCost:      w.Meter.Item("vm:compute") - vmBefore,
		})
	}
	return res
}

// applyTraceOp issues one trace operation against a bucket.
func applyTraceOp(w *world.World, region cloud.RegionID, bucket string, op trace.Op) {
	if op.Type == trace.OpDelete {
		// Deleting a never-written key is a no-op, as in the real service.
		_ = w.Region(region).Obj.Delete(bucket, op.Key)
		return
	}
	seed := uint64(simrand.Seed("trace-op", op.Key, op.At.String()))
	if _, err := w.Region(region).Obj.Put(bucket, op.Key, objstore.BlobOfSize(op.Size, seed)); err != nil {
		panic(err)
	}
}

// Tables returns the per-policy outcome (printed only).
func (r *Fig5Result) Tables() []Table {
	t := Table{
		Title: fmt.Sprintf("Skyplane on a dynamic workload, %d ops (Figure 5)", r.Ops),
		Cols: []Col{{"idle", "%s"}, {"p50_s", "%.1f"}, {"p99_s", "%.1f"}, {"max_s", "%.1f"},
			{"vm_cost_usd", "%.3f"}},
	}
	for _, p := range r.Policies {
		t.Add(p.IdleTimeout, p.P50S, p.P99S, p.MaxS, p.VMCost)
	}
	return []Table{t}
}

// Fig23Result reproduces Figure 23: per-minute p99.99 replication delay on
// a busy production-like trace, AReplica vs S3 RTC.
type Fig23Result struct {
	Ops              int
	AReplicaP9999    []float64
	S3RTCP9999       []float64
	AReplicaOverall  float64
	S3RTCOverall     float64
	AReplicaResolved int
	S3RTCResolved    int
}

// RunFig23 replays a busy one-hour trace from aws:us-east-1 to us-east-2
// against both systems. The request rate is scaled down from the paper's
// replay (which used 512 driver clients) but keeps its burstiness.
func RunFig23(quick bool) *Fig23Result {
	dur := 60 * time.Minute
	rate := 600.0
	if quick {
		dur = 10 * time.Minute
		rate = 200
	}
	cfg := trace.DefaultConfig(dur, rate)
	ops := trace.Generate(cfg)
	src, dst := cloud.RegionID("aws:us-east-1"), cloud.RegionID("aws:us-east-2")
	res := &Fig23Result{Ops: len(ops)}

	// --- AReplica ---
	{
		w := newWorld("fig23")
		m := model.New()
		mustCreate(w, src, "src", false)
		mustCreate(w, dst, "dst", false)
		svc := deployService(w, m, engine.Rule{
			Src: src, Dst: dst, SrcBucket: "src", DstBucket: "dst",
			SLO: 10 * time.Second, Percentile: 0.99,
		}, core.Options{ProfileRounds: profileRounds(quick)})
		start := w.Clock.Now()
		trace.Replay(w.Clock, ops, func(op trace.Op) { applyTraceOp(w, src, "src", op) })
		w.Clock.Quiesce()
		times, delays := recordSeries(svc.Engine.Tracker)
		res.AReplicaP9999 = trace.WindowedPercentile(times, delays, start, time.Minute, 99.99)
		res.AReplicaOverall = stats.Percentile(delays, 99.99)
		res.AReplicaResolved = len(delays)
	}

	// --- S3 RTC ---
	{
		w := newWorld("fig23")
		mustCreate(w, src, "src", true)
		mustCreate(w, dst, "dst", true)
		rtc, err := baselines.NewS3RTC(w, src, dst, "src", "dst")
		if err != nil {
			panic(err)
		}
		// The managed service's capacity sits just under the trace's burst
		// peak, so sustained bursts queue briefly — the >30 s p99.99 spikes
		// of the paper's Figure 23 — without collapsing.
		if quick {
			rtc.SetCapacity(15, 120)
		} else {
			rtc.SetCapacity(50, 300)
		}
		if err := w.Region(src).Obj.Subscribe("src", rtc.HandleEvent); err != nil {
			panic(err)
		}
		start := w.Clock.Now()
		trace.Replay(w.Clock, ops, func(op trace.Op) { applyTraceOp(w, src, "src", op) })
		w.Clock.Quiesce()
		times, delays := recordSeries(rtc.Tracker)
		res.S3RTCP9999 = trace.WindowedPercentile(times, delays, start, time.Minute, 99.99)
		res.S3RTCOverall = stats.Percentile(delays, 99.99)
		res.S3RTCResolved = len(delays)
	}
	return res
}

// recordSeries extracts (event time, delay seconds) pairs from a tracker.
func recordSeries(tr *engine.Tracker) ([]time.Time, []float64) {
	recs := tr.Records()
	times := make([]time.Time, len(recs))
	delays := make([]float64, len(recs))
	for i, r := range recs {
		times[i] = r.EventTime
		delays[i] = r.Delay.Seconds()
	}
	return times, delays
}

// Tables returns the overall tail (printed only), then the per-minute
// series.
func (r *Fig23Result) Tables() []Table {
	overall := Table{
		Title: fmt.Sprintf("Production trace p99.99 replication delay (Figure 23), %d ops", r.Ops),
		Cols:  []Col{{"system", "%s"}, {"p9999_s", "%.1f"}, {"resolved", "%d"}},
	}
	overall.Add("areplica", r.AReplicaOverall, r.AReplicaResolved)
	overall.Add("s3rtc", r.S3RTCOverall, r.S3RTCResolved)
	series := Table{
		Name:  "fig23_p9999",
		Title: "Per-minute p99.99 replication delay (Figure 23)",
		Cols:  []Col{{"minute", "%d"}, {"areplica_s", "%.1f"}, {"s3rtc_s", "%.1f"}},
	}
	for i := range min(len(r.AReplicaP9999), len(r.S3RTCP9999)) {
		series.Add(i, r.AReplicaP9999[i], r.S3RTCP9999[i])
	}
	return []Table{overall, series}
}
