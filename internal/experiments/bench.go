package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fleetobs"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// BenchSchema identifies the BENCH_*.json format; Compare refuses to
// diff reports of different schemas.
const BenchSchema = "areplica-bench/v2"

// BenchConfig configures the canonical regression suite.
type BenchConfig struct {
	// Quick trims the workloads (fewer objects, a two-profile fault
	// matrix) to CI size; the full suite runs the same scenarios longer
	// plus every chaos profile.
	Quick bool
	// SampleInterval is the virtual-time series sampling interval
	// (default 5 s).
	SampleInterval time.Duration
	// Scrub adds the anti-entropy cadence sweep (experiments.RunScrub) to
	// the report, guarding the scrubber's convergence and digest-traffic
	// characteristics against regressions.
	Scrub bool
	// Events, when non-nil, collects the fault matrix's SLO alert events
	// (scoped by profile) for export alongside the report.
	Events *fleetobs.EventLog
	// Fleet adds the two fleet presets (experiments.RunFleet) to the
	// report, gating multi-rule fairness, shared-quota utilization and
	// exactly-once convergence.
	Fleet bool
}

// BenchCategory is one critical-path category's aggregate share of a
// scenario's end-to-end replication time.
type BenchCategory struct {
	Category string  `json:"category"`
	Seconds  float64 `json:"seconds"`
	Fraction float64 `json:"fraction"`
}

// BenchExperiment is one replication scenario's measurements.
type BenchExperiment struct {
	Name       string `json:"name"`
	Src        string `json:"src"`
	Dst        string `json:"dst"`
	Objects    int    `json:"objects"`
	BytesTotal int64  `json:"bytes_total"`

	P50S    float64 `json:"p50_s"`
	P99S    float64 `json:"p99_s"`
	CostUSD float64 `json:"cost_usd"`
	// KVOps is the coordination footprint: KV reads plus writes issued
	// while replicating the scenario's objects (claim batching keeps it
	// sublinear in part count).
	KVOps int64 `json:"kv_ops"`

	// Dominant is the critical-path category holding the largest share
	// of the summed task durations; Categories is the full ranked
	// attribution (fractions sum to 1) and DegradedS the critical-path
	// seconds spent on breaker-degraded attempts.
	Dominant   string             `json:"dominant"`
	Categories []BenchCategory    `json:"categories"`
	DegradedS  float64            `json:"degraded_s"`
	Series     []telemetry.Digest `json:"series"`

	// SpansRetained is the telemetry layer's self-overhead gate: how many
	// spans the tracer held after the scenario's workload (deterministic —
	// instrumentation growing chattier shows up here before it shows up as
	// memory).
	SpansRetained int64 `json:"spans_retained"`
}

// BenchFault is one chaos fault-matrix row's regression-relevant subset.
// LagP99S is the streaming watermark-histogram p99 (the labelled
// engine.lag.seconds family the SLO monitor reads), BacklogMax the
// pending-event high-water mark, and SLOAlerts the number of burn-rate/
// DLQ/divergence alert transitions the fleetobs monitor emitted — all
// deterministic per profile seed, so alerts appearing on a previously
// quiet profile is a regression, not noise.
type BenchFault struct {
	Profile         string  `json:"profile"`
	ConvergencePct  float64 `json:"convergence_pct"`
	P50S            float64 `json:"p50_s"`
	P99S            float64 `json:"p99_s"`
	DLQ             int     `json:"dlq"`
	CostOverheadPct float64 `json:"cost_overhead_pct"`
	LagP99S         float64 `json:"lag_p99_s"`
	BacklogMax      int64   `json:"backlog_max"`
	SLOAlerts       int     `json:"slo_alerts"`
}

// BenchCrash is one crash-point sweep row's regression-relevant subset.
// Converged, DupFinalWrites and MPUsLeft are hard bars (recovery must stay
// total, duplicate-free, and leak-free); RedoneBytes and ExtraKVOps pin the
// cost of recovery — checkpointed resume redoing only the in-flight part,
// not the whole object.
type BenchCrash struct {
	Point     string `json:"point"`
	Converged bool   `json:"converged"` // destination holds the source version afterwards
	// DupFinalWrites counts distinct destination PUTs of an already-current
	// version — the at-least-once hazard the dedupe layers must keep at 0.
	DupFinalWrites int   `json:"dup_final_writes"`
	Resumed        int64 `json:"resumed"`       // tasks that re-attached to a checkpointed MPU
	PartsResumed   int64 `json:"parts_resumed"` // parts inherited as already delivered
	// RedoneBytes is the extra wide-area traffic versus the crash-free
	// baseline — the work the crash forced the system to repeat. Checkpoint
	// resume bounds it to about one part; a from-scratch restart would redo
	// the whole object. RedoneParts is RedoneBytes / part size.
	RedoneBytes int64   `json:"redone_bytes"`
	RedoneParts float64 `json:"redone_parts"`
	// ExtraKVOps is the coordination overhead versus baseline: the
	// checkpoint write/read, the re-attach, and the retry's lock traffic.
	ExtraKVOps int64 `json:"extra_kv_ops"`
	GCAborted  int   `json:"gc_aborted"` // orphaned MPUs the garbage collector reclaimed
	MPUsLeft   int   `json:"mpus_left"`  // in-progress MPUs still open after GC (want 0)
}

// BenchScrub is one anti-entropy sweep row's regression-relevant subset
// (BenchConfig.Scrub). The "off" row pins the baseline divergence the
// lossy workload produces; cadence rows pin full convergence and the
// digest traffic paid for it.
type BenchScrub struct {
	Cadence            string  `json:"cadence"` // "off" for the no-scrub baseline
	ConvergencePct     float64 `json:"convergence_pct"`
	ResidualDivergence int     `json:"residual_divergence"` // missing + stale + orphaned keys at the final audit
	Rounds             int64   `json:"rounds"`
	DigestBytes        int64   `json:"digest_bytes"`
	DupFinalWrites     int     `json:"dup_final_writes"`
	ScrubCostUSD       float64 `json:"scrub_cost_usd"` // marginal cost vs the no-scrub baseline
}

// BenchFleet is one fleet preset's regression row (BenchConfig.Fleet).
// Convergence, duplicate final writes, DLQ depth, pending events and
// starvation marks are hard bars (the runs are deterministic); replicated
// objects must not shrink (the fan-out fabric is part of the scenario);
// the lag-p99 spread and max gate fairness, quota utilization guards
// against the scheduler under-using paid-for capacity, and cost pins the
// control plane's dollar overhead. Host-side numbers (wall seconds, CPU,
// allocations) are not here: `go run ./bench` measures those.
type BenchFleet struct {
	Name              string  `json:"name"`
	Rules             int     `json:"rules"`
	Entries           int     `json:"entries"`
	Ops               int     `json:"ops"`
	ReplicatedObjects int64   `json:"replicated_objects"`
	ConvergencePct    float64 `json:"convergence_pct"`
	DupFinalWrites    int     `json:"dup_final_writes"`
	DLQ               int     `json:"dlq"`
	Pending           int     `json:"pending"`
	Starved           int64   `json:"starved"`
	Admits            int64   `json:"admits"`
	Defers            int64   `json:"defers"`
	QuotaWaits        int64   `json:"quota_waits"`
	Batches           int64   `json:"batches"`
	BatchMeanSize     float64 `json:"batch_mean_size"`
	QuotaUtilPct      float64 `json:"quota_util_pct"`
	LagP99MaxS        float64 `json:"lag_p99_max_s"`
	LagP99SpreadS     float64 `json:"lag_p99_spread_s"`
	VirtualHours      float64 `json:"virtual_hours"`
	CostUSD           float64 `json:"cost_usd"`
}

// BenchReport is the BENCH_*.json document: the canonical quick suite's
// delay/cost/attribution measurements, deterministic for a given
// configuration (two identically-configured runs are byte-identical).
type BenchReport struct {
	Schema      string            `json:"schema"`
	Suite       string            `json:"suite"` // "quick" or "full"
	Experiments []BenchExperiment `json:"experiments"`
	FaultMatrix []BenchFault      `json:"fault_matrix"`
	CrashSweep  []BenchCrash      `json:"crash_sweep,omitempty"`
	Scrub       []BenchScrub      `json:"scrub,omitempty"`
	Fleet       []BenchFleet      `json:"fleet,omitempty"`
}

// benchScenario is one canonical replication workload.
type benchScenario struct {
	name     string
	src, dst cloud.RegionID
	sizes    []int64
	objects  int // full-suite object count; quick halves it
}

// benchScenarios are the representative slices of the paper's evaluation
// the regression suite replays: a same-continent multi-cloud mix of
// Table-1 sizes, a distributed-path transcontinental transfer (Figure
// 12's regime), and a trans-Pacific pair stressing the slowest links.
func benchScenarios() []benchScenario {
	return []benchScenario{
		{
			name: "mixed-small-aws-azure",
			src:  AWSEast, dst: AzureEast,
			sizes:   []int64{512 * 1024, 4 * MB, 16 * MB},
			objects: 12,
		},
		{
			name: "dist-large-aws-gcpeu",
			src:  AWSEast, dst: cloud.RegionID("gcp:europe-west6"),
			sizes:   []int64{96 * MB},
			objects: 6,
		},
		{
			name: "transpacific-azure-gcpjp",
			src:  AzureEast, dst: cloud.RegionID("gcp:asia-northeast1"),
			sizes:   []int64{32 * MB},
			objects: 8,
		},
		// Large-object trans-Pacific transfer exercising the pipelined
		// distributed data plane end to end: double-buffered parts,
		// batched pool claims, hedged tail parts, adaptive part sizing.
		{
			name: "pipeline-large-aws-gcpjp",
			src:  AWSEast, dst: cloud.RegionID("gcp:asia-northeast1"),
			sizes:   []int64{192 * MB},
			objects: 4,
		},
	}
}

// RunBench runs the canonical suite and assembles the report.
func RunBench(cfg BenchConfig) (*BenchReport, error) {
	interval := cfg.SampleInterval
	if interval <= 0 {
		interval = 5 * time.Second
	}
	suite := "full"
	if cfg.Quick {
		suite = "quick"
	}
	rep := &BenchReport{Schema: BenchSchema, Suite: suite}

	for _, sc := range benchScenarios() {
		exp, err := runBenchScenario(sc, cfg.Quick, interval)
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", sc.name, err)
		}
		rep.Experiments = append(rep.Experiments, exp)
	}

	// Chaos slice: quick mode replays the three most diagnostic profiles
	// (net-degraded stresses the lag watermarks without dropping events),
	// the full suite the whole matrix.
	profiles := []string{"storage-flaky", "mixed", "net-degraded"}
	if !cfg.Quick {
		profiles = nil // all built-in profiles
	}
	fm, err := RunFaultMatrix(FaultMatrixConfig{Profiles: profiles, Quick: cfg.Quick, Events: cfg.Events})
	if err != nil {
		return nil, fmt.Errorf("bench fault matrix: %w", err)
	}
	for _, s := range fm.Scenarios {
		rep.FaultMatrix = append(rep.FaultMatrix, s.BenchFault)
	}

	// Crash-point sweep: cheap (one object per point) and always on, so
	// the recovery guarantees are gated on every report.
	cs, err := RunCrashSweep(CrashSweepConfig{Quick: cfg.Quick})
	if err != nil {
		return nil, fmt.Errorf("bench crash sweep: %w", err)
	}
	for _, p := range cs.Points {
		rep.CrashSweep = append(rep.CrashSweep, p.BenchCrash)
	}

	if cfg.Scrub {
		sw, err := RunScrub(ScrubConfig{Quick: cfg.Quick})
		if err != nil {
			return nil, fmt.Errorf("bench scrub sweep: %w", err)
		}
		for _, p := range sw.Points {
			rep.Scrub = append(rep.Scrub, p.BenchScrub)
		}
	}

	if cfg.Fleet {
		for _, preset := range []string{FleetHundred, FleetDay} {
			fr, err := RunFleet(FleetConfig{Preset: preset, Quick: cfg.Quick})
			if err != nil {
				return nil, fmt.Errorf("bench %s: %w", preset, err)
			}
			rep.Fleet = append(rep.Fleet, fr.BenchFleet)
		}
	}
	return rep, nil
}

// runBenchScenario replays one scenario on a fresh world with tracing and
// virtual-time sampling enabled.
func runBenchScenario(sc benchScenario, quick bool, interval time.Duration) (BenchExperiment, error) {
	w := newWorld("bench-" + sc.name)
	srcBucket, dstBucket := "bench-src", "bench-dst"
	mustCreate(w, sc.src, srcBucket, true)
	mustCreate(w, sc.dst, dstBucket, true)

	svc := deployService(w, model.New(), engine.Rule{
		Src: sc.src, Dst: sc.dst, SrcBucket: srcBucket, DstBucket: dstBucket,
	}, core.Options{ProfileRounds: profileRounds(quick)})

	// Trace only the replication tasks: enable (and clear any profiling
	// spans) after deployment.
	w.Tracer.Enable()
	w.Tracer.Reset()

	sampler := telemetry.NewSampler(w.Clock.Now, interval)
	sampler.TrackGauge("faas.running", w.Metrics.Gauge("faas.running"))
	// Bytes relative to the scenario start: path profiling during Deploy
	// already moved data over the same counter.
	legBytes := w.Metrics.Counter("net.leg.bytes")
	base := legBytes.Value()
	sampler.Track("net.leg.bytes", func() float64 { return float64(legBytes.Value() - base) })
	sampler.TrackGauge("engine.dlq.depth", w.Metrics.Gauge("engine.dlq.depth"))
	sampler.TrackGauge("engine.breaker.is_open", w.Metrics.Gauge("engine.breaker.is_open"))
	sampler.TrackGauge("engine.lag.backlog", w.Metrics.Gauge("engine.lag.backlog"))
	sampler.Poll()

	objects := sc.objects
	if quick {
		objects = (objects + 1) / 2
	}
	kvReads := w.Metrics.Counter("kvstore.reads")
	kvWrites := w.Metrics.Counter("kvstore.writes")
	kvBase := kvReads.Value() + kvWrites.Value()
	var total int64
	cost := costDelta(w, func() {
		for i := 0; i < objects; i++ {
			size := sc.sizes[i%len(sc.sizes)]
			total += size
			putObject(w, sc.src, srcBucket, fmt.Sprintf("obj-%03d", i), size, i)
			w.Clock.Sleep(2 * time.Second)
			sampler.Poll()
		}
	})
	sampler.Poll()

	delays := svc.Engine.Tracker.DelaysSeconds()
	if len(delays) != objects {
		return BenchExperiment{}, fmt.Errorf("resolved %d of %d writes", len(delays), objects)
	}

	agg := telemetry.Aggregate(w.Tracer.CriticalPaths())
	exp := BenchExperiment{
		Name:       sc.name,
		Src:        string(sc.src),
		Dst:        string(sc.dst),
		Objects:    objects,
		BytesTotal: total,
		P50S:       stats.Percentile(delays, 50),
		P99S:       stats.Percentile(delays, 99),
		CostUSD:    cost,
		KVOps:      kvReads.Value() + kvWrites.Value() - kvBase,
		Dominant:   string(agg.Dominant()),
		DegradedS:  agg.Degraded.Seconds(),

		SpansRetained: w.Tracer.Stats().SpansRetained,
	}
	for _, s := range agg.Shares {
		exp.Categories = append(exp.Categories, BenchCategory{
			Category: string(s.Category), Seconds: s.Seconds, Fraction: s.Fraction,
		})
	}
	for _, ser := range sampler.Series() {
		exp.Series = append(exp.Series, ser.Digest())
	}
	return exp, nil
}

// WriteJSON writes the report as deterministic indented JSON (struct
// field order, ranked slices, no timestamps).
func (r *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadBenchReport parses a BENCH_*.json document.
func ReadBenchReport(rd io.Reader) (*BenchReport, error) {
	var r BenchReport
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, err
	}
	return &r, nil
}

// BenchTolerance bounds how much worse a metric may get before Compare
// flags a regression: relative slack plus a metric-specific absolute
// floor, so near-zero baselines don't trip on noise-scale drift.
type BenchTolerance struct {
	// Relative slack (0.25 = 25% worse allowed). Non-positive defaults
	// to 0.25.
	Relative float64
}

func (t BenchTolerance) rel() float64 {
	if t.Relative <= 0 {
		return 0.25
	}
	return t.Relative
}

// gateKind is how a gate judges a new value against the baseline's.
type gateKind int

const (
	// relFloor: may grow by the relative slack plus param (an absolute
	// floor), no further.
	relFloor gateKind = iota
	noGrow            // must not exceed the baseline
	maxDrop           // may fall at most param below the baseline (0: must not shrink)
	notZero           // must stay non-zero where the baseline was
	equalBar          // must equal param, whatever the baseline says
)

// gate is one regression rule over one field of a report row. format is
// the message after "<section> <key>: "; its verbs see (baseline, new), or
// only the new value for an equalBar.
type gate[R any] struct {
	kind   gateKind
	param  float64
	get    func(R) float64
	format string
}

func (g gate[R]) broken(old, got float64, tol BenchTolerance) bool {
	switch g.kind {
	case relFloor:
		return got > old*(1+tol.rel())+g.param
	case noGrow:
		return got > old
	case maxDrop:
		return got < old-g.param
	case notZero:
		return old > 0 && got == 0
	default: // equalBar
		return got != g.param
	}
}

// section is the gate table of one BenchReport array: rows pair up by key,
// a baseline row without a partner is itself a regression, and rows new to
// the report pass (they have nothing to regress against).
type section[R any] struct {
	prefix  string // message prefix, e.g. "fault "
	missing string // what a row is called when it has gone
	key     func(R) string
	gates   []gate[R]
}

func (s section[R]) compare(baseline, got []R, tol BenchTolerance) []string {
	byKey := make(map[string]R, len(got))
	for _, r := range got {
		byKey[s.key(r)] = r
	}
	var regs []string
	for _, old := range baseline {
		head := s.prefix + s.key(old) + ": "
		r, ok := byKey[s.key(old)]
		if !ok {
			regs = append(regs, head+s.missing+" missing from new report")
			continue
		}
		for _, g := range s.gates {
			o, n := g.get(old), g.get(r)
			if !g.broken(o, n, tol) {
				continue
			}
			msg := g.format
			switch {
			case g.kind == equalBar:
				msg = fmt.Sprintf(msg, n)
			case g.kind == relFloor:
				msg = fmt.Sprintf(msg+" (tol %.0f%%)", o, n, 100*tol.rel())
			case strings.Contains(msg, "%"): // a lost boolean has no values to show
				msg = fmt.Sprintf(msg, o, n)
			}
			regs = append(regs, head+msg)
		}
	}
	return regs
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Experiments: delay percentiles (floor 0.05 s) and dollar cost (floor
// 1e-5) get the relative slack. KV ops are the coordination footprint: a
// claim-batching regression shows up as ops growing back toward
// two-per-part (floor 8 = two tasks' fixed orchestration writes). Span
// volume is the telemetry layer's self-overhead and is deterministic, so
// growth past the slack (floor 16 = a few extra spans per task) means the
// instrumentation got chattier; a drop to zero means tracing died.
var experimentGates = section[BenchExperiment]{
	missing: "experiment",
	key:     func(e BenchExperiment) string { return e.Name },
	gates: []gate[BenchExperiment]{
		{relFloor, 0.05, func(e BenchExperiment) float64 { return e.P50S }, "p50 %.3fs -> %.3fs"},
		{relFloor, 0.05, func(e BenchExperiment) float64 { return e.P99S }, "p99 %.3fs -> %.3fs"},
		{relFloor, 1e-5, func(e BenchExperiment) float64 { return e.CostUSD }, "cost $%.6f -> $%.6f"},
		{relFloor, 8, func(e BenchExperiment) float64 { return float64(e.KVOps) }, "kv ops %.0f -> %.0f"},
		{notZero, 0, func(e BenchExperiment) float64 { return float64(e.SpansRetained) }, "spans retained %.0f -> %.0f (tracing broken?)"},
		{relFloor, 16, func(e BenchExperiment) float64 { return float64(e.SpansRetained) }, "spans retained %.0f -> %.0f"},
	},
}

// Fault matrix: convergence may drop at most one point, the DLQ must not
// grow. Observability watermarks: the streaming lag p99 may drift by the
// relative slack (floor 0.05 s), the backlog high-water by the slack plus
// two events; new SLO alerts on a profile that used to stay quiet (or
// alert less) are a hard regression — the runs are deterministic, so any
// growth is a real behavior change.
var faultGates = section[BenchFault]{
	prefix:  "fault ",
	missing: "profile",
	key:     func(f BenchFault) string { return f.Profile },
	gates: []gate[BenchFault]{
		{maxDrop, 1, func(f BenchFault) float64 { return f.ConvergencePct }, "convergence %.1f%% -> %.1f%%"},
		{relFloor, 0.25, func(f BenchFault) float64 { return f.P99S }, "p99 %.3fs -> %.3fs"},
		{noGrow, 0, func(f BenchFault) float64 { return float64(f.DLQ) }, "DLQ depth %.0f -> %.0f"},
		{relFloor, 0.05, func(f BenchFault) float64 { return f.LagP99S }, "lag p99 %.3fs -> %.3fs"},
		{relFloor, 2, func(f BenchFault) float64 { return float64(f.BacklogMax) }, "backlog max %.0f -> %.0f"},
		{noGrow, 0, func(f BenchFault) float64 { return float64(f.SLOAlerts) }, "SLO alerts %.0f -> %.0f"},
	},
}

// Crash sweep: recovery is gated hard — a crash point that converged in
// the baseline must still converge, duplicate final writes and leaked
// MPUs must not grow above the baseline's (zero) counts, and the cost
// of recovery (redone bytes, extra KV ops) may drift only by the
// relative slack plus small floors (half a part of wide-area rework,
// four KV operations).
var crashGates = section[BenchCrash]{
	prefix:  "crash ",
	missing: "point",
	key:     func(c BenchCrash) string { return c.Point },
	gates: []gate[BenchCrash]{
		{maxDrop, 0, func(c BenchCrash) float64 { return b2f(c.Converged) }, "no longer converges after the crash"},
		{noGrow, 0, func(c BenchCrash) float64 { return float64(c.DupFinalWrites) }, "duplicate final writes %.0f -> %.0f"},
		{noGrow, 0, func(c BenchCrash) float64 { return float64(c.MPUsLeft) }, "leaked in-progress MPUs %.0f -> %.0f"},
		{relFloor, 4 << 20, func(c BenchCrash) float64 { return float64(c.RedoneBytes) }, "redone bytes %.0f -> %.0f"},
		{relFloor, 4, func(c BenchCrash) float64 { return float64(c.ExtraKVOps) }, "extra kv ops %.0f -> %.0f"},
	},
}

// Scrub sweep: scrubbed cadences must not converge less or leave more
// divergence behind than the baseline run did; duplicate final writes
// are a hard zero-tolerance bar; digest traffic may drift by the
// relative slack plus one root exchange's floor.
var scrubGates = section[BenchScrub]{
	prefix:  "scrub ",
	missing: "cadence",
	key:     func(s BenchScrub) string { return s.Cadence },
	gates: []gate[BenchScrub]{
		{maxDrop, 1, func(s BenchScrub) float64 { return s.ConvergencePct }, "convergence %.1f%% -> %.1f%%"},
		{noGrow, 0, func(s BenchScrub) float64 { return float64(s.ResidualDivergence) }, "residual divergence %.0f -> %.0f"},
		{noGrow, 0, func(s BenchScrub) float64 { return float64(s.DupFinalWrites) }, "duplicate final writes %.0f -> %.0f"},
		{relFloor, 64, func(s BenchScrub) float64 { return float64(s.DigestBytes) }, "digest bytes %.0f -> %.0f"},
		{relFloor, 1e-5, func(s BenchScrub) float64 { return s.ScrubCostUSD }, "marginal cost $%.6f -> $%.6f"},
	},
}

// Fleet presets: full convergence, zero duplicate final writes and an
// empty DLQ with nothing pending are absolute bars (which leaves a
// baseline nothing to add for those fields); against the baseline,
// starvation marks must not grow (deterministic runs — any growth is a
// real behavior change) and the replicated-object count must not shrink
// (the fan-out fabric is part of the scenario); the fairness spread and lag ceiling may
// drift by the relative slack plus a 0.25 s floor; quota utilization
// collapsing by more than 20 points means the scheduler stopped using
// capacity the quotas pay for; cost gets the usual dollar tolerance.
var fleetGates = section[BenchFleet]{
	prefix:  "fleet ",
	missing: "scenario",
	key:     func(f BenchFleet) string { return f.Name },
	gates: []gate[BenchFleet]{
		{equalBar, 100, func(f BenchFleet) float64 { return f.ConvergencePct }, "convergence %.2f%% (must be 100%%)"},
		{equalBar, 0, func(f BenchFleet) float64 { return float64(f.DupFinalWrites) }, "%.0f duplicate final writes (must be 0)"},
		{equalBar, 0, func(f BenchFleet) float64 { return float64(f.DLQ) }, "%.0f DLQ after drain (must be 0)"},
		{equalBar, 0, func(f BenchFleet) float64 { return float64(f.Pending) }, "%.0f pending after drain (must be 0)"},
		{noGrow, 0, func(f BenchFleet) float64 { return float64(f.Starved) }, "starvation marks %.0f -> %.0f"},
		{maxDrop, 0, func(f BenchFleet) float64 { return float64(f.ReplicatedObjects) }, "replicated objects %.0f -> %.0f"},
		{relFloor, 0.25, func(f BenchFleet) float64 { return f.LagP99SpreadS }, "lag p99 spread %.3fs -> %.3fs"},
		{relFloor, 0.25, func(f BenchFleet) float64 { return f.LagP99MaxS }, "lag p99 max %.3fs -> %.3fs"},
		{maxDrop, 20, func(f BenchFleet) float64 { return f.QuotaUtilPct }, "quota utilization %.1f%% -> %.1f%%"},
		{relFloor, 1e-5, func(f BenchFleet) float64 { return f.CostUSD }, "cost $%.6f -> $%.6f"},
	},
}

// CompareBench diffs a new report against a baseline and returns one
// human-readable line per regression (empty = pass), section by section
// from the gate tables above. A schema mismatch is itself a regression.
func CompareBench(baseline, got *BenchReport, tol BenchTolerance) []string {
	if baseline.Schema != got.Schema {
		return []string{fmt.Sprintf("schema mismatch: baseline %q vs new %q", baseline.Schema, got.Schema)}
	}
	var regs []string
	if baseline.Suite != got.Suite {
		regs = append(regs, fmt.Sprintf("suite mismatch: baseline %q vs new %q", baseline.Suite, got.Suite))
	}
	regs = append(regs, experimentGates.compare(baseline.Experiments, got.Experiments, tol)...)
	regs = append(regs, faultGates.compare(baseline.FaultMatrix, got.FaultMatrix, tol)...)
	regs = append(regs, crashGates.compare(baseline.CrashSweep, got.CrashSweep, tol)...)
	regs = append(regs, scrubGates.compare(baseline.Scrub, got.Scrub, tol)...)
	return append(regs, fleetGates.compare(baseline.Fleet, got.Fleet, tol)...)
}

// FleetBars returns the absolute bars a fleet row breaks: compared with
// itself, a row can only fail the gates that need no baseline.
func FleetBars(row BenchFleet) []string {
	return fleetGates.compare([]BenchFleet{row}, []BenchFleet{row}, BenchTolerance{})
}

// Print renders the report as a compact human-readable summary.
func (r *BenchReport) Print(out io.Writer) {
	fprintf(out, "Bench suite: %s (%s)\n", r.Suite, r.Schema)
	fprintf(out, "%-26s %4s %10s %8s %8s %10s %7s %-10s %7s\n",
		"experiment", "n", "bytes", "p50_s", "p99_s", "cost_usd", "kv_ops", "dominant", "spans")
	for _, e := range r.Experiments {
		fprintf(out, "%-26s %4d %10d %8.2f %8.2f %10.4f %7d %-10s %7d\n",
			e.Name, e.Objects, e.BytesTotal, e.P50S, e.P99S, e.CostUSD, e.KVOps, e.Dominant,
			e.SpansRetained)
	}
	if len(r.FaultMatrix) > 0 {
		fprintf(out, "%-26s %9s %8s %8s %4s %9s %8s %7s %6s\n",
			"fault profile", "converge", "p50_s", "p99_s", "dlq", "overhead",
			"lag_p99", "blg_max", "alerts")
		for _, f := range r.FaultMatrix {
			fprintf(out, "%-26s %8.1f%% %8.2f %8.2f %4d %8.1f%% %8.2f %7d %6d\n",
				f.Profile, f.ConvergencePct, f.P50S, f.P99S, f.DLQ, f.CostOverheadPct,
				f.LagP99S, f.BacklogMax, f.SLOAlerts)
		}
	}
	if len(r.CrashSweep) > 0 {
		fprintf(out, "%-26s %9s %4s %8s %8s %12s %7s %7s %5s\n",
			"crash point", "converged", "dup", "resumed", "parts_in",
			"redone_bytes", "kv_ovh", "gc", "left")
		for _, c := range r.CrashSweep {
			fprintf(out, "%-26s %9v %4d %8d %8d %12d %7d %7d %5d\n",
				c.Point, c.Converged, c.DupFinalWrites, c.Resumed, c.PartsResumed,
				c.RedoneBytes, c.ExtraKVOps, c.GCAborted, c.MPUsLeft)
		}
	}
	if len(r.Scrub) > 0 {
		fprintf(out, "%-26s %9s %9s %7s %10s %4s %10s\n",
			"scrub cadence", "converge", "residual", "rounds", "digest_b", "dup", "scrub_usd")
		for _, s := range r.Scrub {
			fprintf(out, "%-26s %8.1f%% %9d %7d %10d %4d %10.4f\n",
				s.Cadence, s.ConvergencePct, s.ResidualDivergence, s.Rounds,
				s.DigestBytes, s.DupFinalWrites, s.ScrubCostUSD)
		}
	}
	if len(r.Fleet) > 0 {
		fprintf(out, "%-26s %5s %8s %9s %4s %4s %7s %8s %8s %8s %10s\n",
			"fleet scenario", "rules", "objects", "converge", "dup", "dlq", "starved",
			"util", "spread_s", "max_s", "cost_usd")
		for _, f := range r.Fleet {
			fprintf(out, "%-26s %5d %8d %8.1f%% %4d %4d %7d %7.1f%% %8.2f %8.2f %10.4f\n",
				f.Name, f.Rules, f.ReplicatedObjects, f.ConvergencePct, f.DupFinalWrites, f.DLQ, f.Starved,
				f.QuotaUtilPct, f.LagP99SpreadS, f.LagP99MaxS, f.CostUSD)
		}
	}
}

// CheckPartition verifies every task breakdown's category shares sum to
// the root span duration within tol seconds (the suite's structural
// invariant); it returns the first violation.
func CheckPartition(bds []*telemetry.Breakdown, tol float64) error {
	for _, b := range bds {
		var sum float64
		for _, s := range b.Shares {
			sum += s.Seconds
		}
		if math.Abs(sum-b.TotalSeconds) > tol {
			return fmt.Errorf("trace %s: category shares sum to %.12fs, root span is %.12fs",
				b.TraceID, sum, b.TotalSeconds)
		}
	}
	return nil
}
