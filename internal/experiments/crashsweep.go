package experiments

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/oracle"
)

// The crash sweep's fixed workload: one 64 MB object split into eight
// 8 MB parts over four replicators, pinned so every run enumerates the
// same deterministic sequence of state-machine steps.
const (
	crashSweepSize     = 64 * MB
	crashSweepPartSize = 8 * MB
	crashSweepParts    = crashSweepSize / crashSweepPartSize
	// crashSweepLockLease shortens the replication lock's lease below the
	// 30 s redrive delay, so a crashed orchestrator's lock has expired by
	// the time the platform retry arrives — the paper's §6 recovery story
	// compressed into simulated seconds.
	crashSweepLockLease = 20 * time.Second
)

// CrashPoints enumerates the data plane's crash-injection steps in
// execution order: each names the instant *after* (or before) one durable
// transition of a distributed replication task. Two part-level points
// bracket the transfer (an early part and the final part); the remaining
// points cover task setup, claim/flush coordination, assembly, and the
// acknowledgment window.
func CrashPoints() []string {
	return []string{
		"after-create-mpu",
		"after-checkpoint",
		"after-claim",
		"after-part-2",
		fmt.Sprintf("after-part-%d", crashSweepParts-1),
		"after-flush",
		"before-complete-mpu",
		"after-complete-mpu",
		"before-ack",
	}
}

// CrashSweepConfig configures the deterministic crash-point sweep.
type CrashSweepConfig struct {
	// Quick is accepted for symmetry with the other experiments; the sweep
	// is already one object per crash point, so it changes nothing.
	Quick bool
}

// CrashPoint is one row of the sweep: the recovery outcome of crashing a
// function instance at exactly one state-machine step. Converged,
// DupFinalWrites and MPUsLeft are hard bars (recovery must stay total,
// duplicate-free and leak-free); RedoneBytes and ExtraKVOps are the cost of
// recovery — checkpointed resume redoing only the in-flight part, not the
// whole object.
type CrashPoint struct {
	Point     string
	Converged bool // destination holds the source version afterwards
	// DupFinalWrites counts distinct destination PUTs of an already-current
	// version — the at-least-once hazard the dedupe layers must keep at 0.
	DupFinalWrites int
	Resumed        int64 // tasks that re-attached to a checkpointed MPU
	PartsResumed   int64 // parts inherited as already delivered
	// RedoneBytes is the extra wide-area traffic versus the crash-free
	// baseline — the work the crash forced the system to repeat. Checkpoint
	// resume bounds it to about one part; a from-scratch restart would redo
	// the whole object. RedoneParts is RedoneBytes / part size.
	RedoneBytes int64
	RedoneParts float64
	// ExtraKVOps is the coordination overhead versus baseline: the
	// checkpoint write/read, the re-attach, and the retry's lock traffic.
	ExtraKVOps int64
	GCAborted  int // orphaned MPUs the garbage collector reclaimed
	MPUsLeft   int // in-progress MPUs still open after GC (want 0)

	Crashes        int64 // chaos crash-point injections (always 1)
	PartsReclaimed int64 // crashed claims returned to the pool
	GCBytes        int64 // part bytes the GC-reclaimed uploads were holding
	DelayS         float64
}

// CrashSweepResult is the full sweep plus its crash-free baseline.
type CrashSweepResult struct {
	BaselineBytes  int64   // wide-area bytes of the crash-free run
	BaselineKVOps  int64   // KV reads+writes of the crash-free run
	BaselineDelayS float64 // replication delay of the crash-free run
	Points         []CrashPoint
}

// RunCrashSweep replays an identical single-object workload once per
// crash point (plus a crash-free baseline), crashing a function instance
// at exactly that step, and measures what recovery costs: convergence,
// duplicate final writes, redone bytes, and KV overhead. Everything is
// seeded, so two runs are byte-identical.
func RunCrashSweep(cfg CrashSweepConfig) (*CrashSweepResult, error) {
	res := &CrashSweepResult{}
	base, err := runCrashScenario("")
	if err != nil {
		return nil, fmt.Errorf("crash sweep baseline: %w", err)
	}
	res.BaselineBytes = base.legBytes
	res.BaselineKVOps = base.kvOps
	res.BaselineDelayS = base.delayS
	for _, point := range CrashPoints() {
		run, err := runCrashScenario(point)
		if err != nil {
			return nil, fmt.Errorf("crash sweep %s: %w", point, err)
		}
		res.Points = append(res.Points, CrashPoint{
			Point:          point,
			Converged:      run.converged,
			DupFinalWrites: run.dupFinal,
			Resumed:        run.resumed,
			PartsResumed:   run.partsResumed,
			RedoneBytes:    run.legBytes - base.legBytes,
			RedoneParts:    float64(run.legBytes-base.legBytes) / float64(crashSweepPartSize),
			ExtraKVOps:     run.kvOps - base.kvOps,
			GCAborted:      run.gcAborted,
			MPUsLeft:       run.mpusLeft,
			Crashes:        run.crashes,
			PartsReclaimed: run.partsReclaimed,
			GCBytes:        run.gcBytes,
			DelayS:         run.delayS,
		})
	}
	return res, nil
}

// crashRun is one scenario's raw measurements.
type crashRun struct {
	converged      bool
	crashes        int64
	dupFinal       int
	resumed        int64
	partsResumed   int64
	partsReclaimed int64
	legBytes       int64
	kvOps          int64
	gcAborted      int
	gcBytes        int64
	mpusLeft       int
	delayS         float64
}

// runCrashScenario replicates one 64 MB object with a crash armed at the
// given point ("" = crash-free baseline) and audits recovery end to end.
func runCrashScenario(point string) (crashRun, error) {
	w := newWorld("crash-" + pointLabel(point))
	src, dst := AWSEast, AzureEast
	srcBucket, dstBucket := "crash-src", "crash-dst"
	mustCreate(w, src, srcBucket, true)
	mustCreate(w, dst, dstBucket, true)

	// The rule pins everything that would otherwise adapt: four
	// replicators at the source region (no profiling), fixed 8 MB parts,
	// no double buffering (crashes must land on the replicator's own
	// lane, not a prefetch sub-lane), per-part claims, and no hedging (a
	// hedge would mask the crash it sits next to).
	svc := deployService(w, model.New(), engine.Rule{
		Src: src, Dst: dst, SrcBucket: srcBucket, DstBucket: dstBucket,
		ForceN: 4, ForceLoc: src,
		PartSize:             crashSweepPartSize,
		DisableAdaptiveParts: true,
		DisableDoubleBuffer:  true,
		ClaimBatch:           1,
		HedgeBudget:          -1,
		LockLease:            crashSweepLockLease,
	}, core.Options{})

	// Duplicate-final-write audit.
	dupWatch, err := oracle.Watch(w.Region(dst).Obj, dstBucket)
	if err != nil {
		return crashRun{}, err
	}

	if point != "" {
		w.SetChaos(chaos.Profile{Name: "crash-point", CrashPoint: point})
	}

	legBytes := w.Metrics.Counter("net.leg.bytes")
	kvReads := w.Metrics.Counter("kvstore.reads")
	kvWrites := w.Metrics.Counter("kvstore.writes")
	bytesBase := legBytes.Value()
	kvBase := kvReads.Value() + kvWrites.Value()

	putObject(w, src, srcBucket, "crash-obj", crashSweepSize, 1)
	// Quiesce drains everything pending in virtual time, including the
	// 30 s DLQ redrive a crashed orchestrator's task parks behind and the
	// lock lease it must outwait.
	w.Clock.Quiesce()

	run := crashRun{
		crashes:        w.Metrics.Counter("chaos.injected.crash_point").Value(),
		resumed:        w.Metrics.Counter("engine.recovery.resumed").Value(),
		partsResumed:   w.Metrics.Counter("engine.recovery.parts_resumed").Value(),
		partsReclaimed: w.Metrics.Counter("engine.recovery.parts_reclaimed").Value(),
	}

	// Disarm before auditing so the audit's own requests cannot crash.
	w.SetChaos(chaos.Profile{})

	// Orphaned-MPU GC on the anti-entropy cadence: age everything past
	// the grace, collect, then check nothing in-progress survives.
	w.Clock.Sleep(time.Minute)
	run.gcAborted, run.gcBytes = svc.Engine.GCOrphanedMPUs(30 * time.Second)
	w.Clock.Quiesce()
	if infos, err := w.Region(dst).Obj.ListMultiparts(dstBucket); err == nil {
		run.mpusLeft = len(infos)
	}

	// crash-src holds only crash-obj; a failed audit reads as not converged.
	diff, err := oracle.Compare(w.Region(src).Obj, srcBucket, w.Region(dst).Obj, dstBucket, "")
	run.converged = err == nil && diff.Converged == 1
	run.dupFinal = dupWatch.Duplicates()
	run.legBytes = legBytes.Value() - bytesBase
	run.kvOps = kvReads.Value() + kvWrites.Value() - kvBase
	run.delayS = lastDelaySeconds(svc.Engine.Tracker)
	return run, nil
}

func pointLabel(point string) string {
	if point == "" {
		return "baseline"
	}
	return point
}

// Tables returns the sweep, one row per crash point.
func (r *CrashSweepResult) Tables() []Table {
	t := Table{
		Name:  "crash_sweep",
		Title: "Crash-point sweep: deterministic crash at each data-plane step (checkpointed resume)",
		Cols: []Col{{"point", "%s"}, {"crashes", "%d"}, {"converged", "%v"}, {"dup_final_writes", "%d"},
			{"resumed", "%d"}, {"parts_resumed", "%d"}, {"parts_reclaimed", "%d"}, {"redone_bytes", "%d"},
			{"redone_parts", "%.2f"}, {"extra_kv_ops", "%d"}, {"gc_aborted", "%d"}, {"gc_bytes", "%d"},
			{"mpus_left", "%d"}, {"delay_s", "%.2f"}},
		Notes: []string{fmt.Sprintf("baseline: %d bytes moved, %d kv ops, %.2fs delay",
			r.BaselineBytes, r.BaselineKVOps, r.BaselineDelayS)},
	}
	for _, p := range r.Points {
		t.Add(p.Point, p.Crashes, p.Converged, p.DupFinalWrites, p.Resumed, p.PartsResumed, p.PartsReclaimed,
			p.RedoneBytes, p.RedoneParts, p.ExtraKVOps, p.GCAborted, p.GCBytes, p.MPUsLeft, p.DelayS)
	}
	return []Table{t}
}
