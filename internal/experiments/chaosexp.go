package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fleetobs"
	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/oracle"
	"repro/internal/simrand"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/world"
)

// faultLagTarget is the per-event replication-lag objective the fault
// matrix monitors against. Calibrated between the clean baseline (every
// "none" delay stays under ~1.3s, so the baseline row never alerts) and
// the degraded-transfer profiles, whose 24-64MB objects blow past it.
const faultLagTarget = 2 * time.Second

// FaultMatrixConfig configures the chaos fault-matrix experiment.
type FaultMatrixConfig struct {
	// Profiles are chaos profile specs ("mixed", "storage-flaky@7"); empty
	// runs every built-in profile. "none" is always included (and run
	// first) as the cost baseline.
	Profiles []string
	// Objects is the number of source writes per scenario (default 40;
	// quick mode 16).
	Objects int
	Quick   bool
	// Events, when non-nil, collects every scenario's SLO alert events;
	// each scenario's events are scoped by its profile spec.
	Events *fleetobs.EventLog
	// LagTarget overrides the monitored per-event lag objective
	// (default faultLagTarget).
	LagTarget time.Duration
}

// FaultScenario is one row of the fault matrix: a chaos profile's impact
// on convergence, delay, and cost. Every field is deterministic per
// profile seed.
type FaultScenario struct {
	Profile        string
	ConvergencePct float64
	P50S           float64
	P99S           float64
	DLQ            int // depth after recovery
	// CostOverheadPct is relative to the "none" baseline row.
	CostOverheadPct float64
	// LagP99S is the streaming watermark-histogram p99 (the labelled
	// engine.lag.seconds family the SLO monitor reads), BacklogMax the
	// pending-event high-water mark, and SLOAlerts the number of burn-rate/
	// DLQ/divergence alert transitions the fleetobs monitor emitted.
	LagP99S    float64
	BacklogMax int64
	SLOAlerts  int

	Objects        int // source objects written
	Converged      int // destination holds the final source version
	DupFinalWrites int // duplicate destination writes of an already-current version
	// ResidualDivergence counts keys still divergent after recovery: source
	// versions missing or stale at the destination plus destination orphans
	// — what an anti-entropy pass (experiments.RunScrub) would repair.
	ResidualDivergence int
	// OldestAgeMaxS is the peak oldest-unreplicated-object age the monitor
	// sampled — nonzero whenever a fault window stalls replication.
	OldestAgeMaxS float64
	Injected      int64 // chaos decisions that injected a fault
	Retries       int64 // engine task-level retries
	BreakerOpens  int64 // circuit-breaker open transitions
	Redrives      int64 // automatic + manual DLQ redrives
	CostUSD       float64
}

// FaultMatrixResult is the full fault matrix (ISSUE: scenario ×
// convergence %, p99, cost overhead).
type FaultMatrixResult struct {
	Scenarios []FaultScenario
}

// RunFaultMatrix replays an identical write workload under each chaos
// profile and measures how far the hardened engine converges, how much
// the injected faults delay replication, and what the retries cost.
// Everything is deterministic per profile seed: the same spec list yields
// byte-identical tables.
func RunFaultMatrix(cfg FaultMatrixConfig) (*FaultMatrixResult, error) {
	specs := cfg.Profiles
	if len(specs) == 0 {
		specs = chaos.Names()
	}
	// The "none" baseline always runs first so overheads have a reference.
	ordered := []string{"none"}
	for _, s := range specs {
		if s != "none" {
			ordered = append(ordered, s)
		}
	}
	objects := cfg.Objects
	if objects <= 0 {
		objects = 40
		if cfg.Quick {
			objects = 16
		}
	}
	target := cfg.LagTarget
	if target <= 0 {
		target = faultLagTarget
	}

	res := &FaultMatrixResult{}
	var baseCost float64
	for i, spec := range ordered {
		prof, err := chaos.Parse(spec)
		if err != nil {
			return nil, err
		}
		cfg.Events.SetScope(spec)
		sc, err := runFaultScenario(prof, spec, objects, cfg.Quick, cfg.Events, target)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			baseCost = sc.CostUSD
		}
		if baseCost > 0 {
			sc.CostOverheadPct = (sc.CostUSD/baseCost - 1) * 100
		}
		res.Scenarios = append(res.Scenarios, sc)
	}
	return res, nil
}

// runFaultScenario runs one profile's scenario on a fresh world.
func runFaultScenario(prof chaos.Profile, spec string, objects int, quick bool, log *fleetobs.EventLog, lagTarget time.Duration) (FaultScenario, error) {
	w := newWorld("chaos-" + strings.ReplaceAll(spec, "@", "-"))
	src, dst := AWSEast, AzureEast
	srcBucket, dstBucket := "chaos-src", "chaos-dst"
	mustCreate(w, src, srcBucket, true)
	mustCreate(w, dst, dstBucket, true)

	svc := deployService(w, model.New(), engine.Rule{
		Src: src, Dst: dst, SrcBucket: srcBucket, DstBucket: dstBucket,
	}, core.Options{
		ProfileRounds: profileRounds(quick),
		EnableMonitor: true,
		LagTarget:     lagTarget,
		Events:        log,
	})

	// Count duplicate final writes at the destination — exactly what the
	// dedupe layers must prevent. Notification chaos also duplicates
	// deliveries to the watcher; it ignores those (the same write seen
	// twice is not a duplicate write).
	dupWatch, err := oracle.Watch(w.Region(dst).Obj, dstBucket)
	if err != nil {
		return FaultScenario{}, err
	}

	// Arm chaos only after deployment so profiling fits a clean model;
	// partition windows are anchored here.
	w.SetChaos(prof)

	// Identical workload per scenario: writes spread over ~80s of virtual
	// time (2s apart) so the built-in partition window (20s..50s after
	// arming) lands mid-workload, with sizes spanning the single-function
	// and distributed paths.
	sizes := []int64{512 * 1024, 4 * MB, 24 * MB, 64 * MB}
	cost := costDelta(w, func() {
		for i := 0; i < objects; i++ {
			key := fmt.Sprintf("obj-%03d", i)
			putObjectRetrying(w, src, srcBucket, key, sizes[i%len(sizes)], i)
			// Poll at a 1s scrape cadence between writes: burn rates must
			// re-evaluate even in fault windows where nothing completes, and
			// the oldest-age watermark only samples at poll instants — a 2s
			// stride would always land after the in-flight event resolved.
			for tick := 0; tick < 2; tick++ {
				w.Clock.Sleep(time.Second)
				svc.Monitor.Poll()
			}
		}
		w.Clock.Quiesce()
		svc.Monitor.Poll()

		// Recovery: reconciliation backfill sweeps (the periodic job that
		// catches dropped notifications) and one operator DLQ redrive, all
		// still under chaos.
		for pass := 0; pass < 3; pass++ {
			n, err := svc.Engine.Backfill()
			w.Clock.Quiesce()
			if err == nil && n == 0 {
				break
			}
		}
		if svc.Engine.RedriveDLQ() > 0 {
			w.Clock.Quiesce()
		}
	})

	// Disarm for verification so the convergence audit itself cannot fail.
	w.SetChaos(chaos.Profile{})

	diff, err := oracle.Compare(w.Region(src).Obj, srcBucket, w.Region(dst).Obj, dstBucket, "")
	if err != nil {
		return FaultScenario{}, err
	}
	pct := 100.0
	if diff.Keys > 0 {
		pct = 100 * float64(diff.Converged) / float64(diff.Keys)
	}

	delays := svc.Engine.Tracker.DelaysSeconds()
	// Watermarks: the backlog high-water comes from the gauge family's
	// aggregate (raised on every pending add, not just at poll points);
	// the oldest-age peak from the monitor's labelled child gauge, which
	// SampleWatermarks refreshes each poll.
	oldestMS := w.Metrics.GaugeVec("engine.lag.oldest_age_ms").With(
		telemetry.L("rule", svc.Engine.RuleID()), telemetry.L("dest", string(dst)))
	return FaultScenario{
		Profile:            spec,
		ConvergencePct:     pct,
		P50S:               stats.Percentile(delays, 50),
		P99S:               stats.Percentile(delays, 99),
		DLQ:                len(svc.Engine.DLQ()),
		LagP99S:            svc.Engine.LagHistogram().Quantile(0.99),
		BacklogMax:         w.Metrics.Gauge("engine.lag.backlog").Max(),
		SLOAlerts:          svc.Monitor.AlertCount(),
		Objects:            diff.Keys,
		Converged:          diff.Converged,
		DupFinalWrites:     dupWatch.Duplicates(),
		ResidualDivergence: diff.Residual(),
		OldestAgeMaxS:      float64(oldestMS.Max()) / 1000,
		Injected:           w.Metrics.Counter("chaos.injected").Value(),
		Retries:            w.Metrics.Counter("engine.retries").Value(),
		BreakerOpens:       w.Metrics.Counter("engine.breaker_open").Value(),
		Redrives:           w.Metrics.Counter("engine.dlq.redriven").Value(),
		CostUSD:            cost,
	}, nil
}

// putObjectRetrying is putObject with an application-side retry loop:
// under chaos the source PUT itself can be refused, and a real client
// retries. Returns whether the write eventually succeeded.
func putObjectRetrying(w *world.World, region cloud.RegionID, bucket, key string, size int64, salt int) bool {
	seed := uint64(simrand.Seed("exp-obj", string(region), bucket, key, fmt.Sprint(salt)))
	blob := objstore.BlobOfSize(size, seed)
	for attempt := 0; attempt < 8; attempt++ {
		if attempt > 0 {
			w.Clock.Sleep(250 * time.Millisecond << uint(attempt-1))
		}
		if _, err := w.Region(region).Obj.Put(bucket, key, blob); err == nil {
			return true
		}
	}
	return false
}

// Tables returns the fault matrix, one row per profile.
func (r *FaultMatrixResult) Tables() []Table {
	t := Table{
		Name:  "fault_matrix",
		Title: "Fault matrix: chaos profile x convergence/delay/cost (hardened engine)",
		Cols: []Col{{"profile", "%s"}, {"objects", "%d"}, {"converged", "%d"}, {"convergence_pct", "%.1f"},
			{"p50_s", "%.2f"}, {"p99_s", "%.2f"}, {"dup_final_writes", "%d"}, {"residual_divergence", "%d"},
			{"dlq", "%d"}, {"injected", "%d"}, {"retries", "%d"}, {"breaker_opens", "%d"}, {"redrives", "%d"},
			{"cost_usd", "%.4f"}, {"cost_overhead_pct", "%.1f"}, {"lag_p99_s", "%.2f"}, {"backlog_max", "%d"},
			{"oldest_age_max_s", "%.2f"}, {"slo_alerts", "%d"}},
	}
	for _, s := range r.Scenarios {
		t.Add(s.Profile, s.Objects, s.Converged, s.ConvergencePct, s.P50S, s.P99S, s.DupFinalWrites,
			s.ResidualDivergence, s.DLQ, s.Injected, s.Retries, s.BreakerOpens, s.Redrives, s.CostUSD,
			s.CostOverheadPct, s.LagP99S, s.BacklogMax, s.OldestAgeMaxS, s.SLOAlerts)
	}
	return []Table{t}
}
