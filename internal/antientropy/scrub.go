// Package antientropy implements AReplica's background reconciliation
// subsystem: a virtual-clock-driven scrubber that periodically compares
// prefix-partitioned Merkle trees of the source and destination bucket
// listings, descends only into mismatching subtrees, and repairs the
// divergence — missing keys, stale ETags, orphan deletes — through the
// regular replication engine (retries, breaker and DLQ included).
//
// Event notifications are at-most-once in practice (the chaos notify-flaky
// profile drops 5% of them), so notification-driven replication alone
// converges to less than 100%. The scrubber closes that gap and turns
// "eventually consistent" into a divergence SLO: with a scrub cadence of
// SLO/2, any divergence older than the SLO has been seen by at least one
// full tree exchange and repaired or escalated.
//
// Every scrub round is metered serverless work: bucket listings are paid
// LIST pages, tree digests live in per-rule KV tables, the digest exchange
// crosses the wide area on simulated network legs, and the comparison runs
// as function invocations in both regions.
package antientropy

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/cloud"
	"repro/internal/engine"
	"repro/internal/faas"
	"repro/internal/kvstore"
	"repro/internal/objstore"
	"repro/internal/simrand"
	"repro/internal/telemetry"
	"repro/internal/world"
)

// Scrubber constants.
const (
	// defaultCadence is the round interval when neither Cadence nor
	// DivergenceSLO is set.
	defaultCadence = 60 * time.Second
	// fanout is the internal-node fan-out F; the tree has F*F = 256 leaves.
	fanout = 16
	// orphanGrace protects freshly replicated objects from the orphan-
	// delete race: a destination key missing at the source is only
	// deleted once its destination version is older than the grace.
	orphanGrace = 30 * time.Second
	// stopAfterClean ends the Start loop and RunUntilClean after this many
	// consecutive clean rounds with an idle engine, so Quiesce can drain
	// the simulation (the loop would otherwise re-arm its timer forever).
	stopAfterClean = 2
	// maxRounds bounds RunUntilClean.
	maxRounds = 32
	// mpuGrace is the minimum age before an in-progress multipart upload
	// with no live checkpoint is considered orphaned and aborted —
	// comfortably past any live task's create-MPU → checkpoint window and
	// the engine's retry/redrive horizon.
	mpuGrace = 15 * time.Minute
)

// Config tunes one rule's scrubber.
type Config struct {
	// Cadence is the virtual-time interval between scrub rounds. Zero
	// derives it from DivergenceSLO (SLO/2), or defaultCadence.
	Cadence time.Duration
	// DivergenceSLO is the declared bound on how long a divergent key may
	// stay unrepaired. It is a reporting target, not an enforcement knob:
	// Report.SLOViolations counts repairs whose source version was already
	// older than the SLO when the scrubber found it.
	DivergenceSLO time.Duration
}

func (c Config) withDefaults() Config {
	if c.Cadence <= 0 {
		if c.DivergenceSLO > 0 {
			c.Cadence = c.DivergenceSLO / 2
		} else {
			c.Cadence = defaultCadence
		}
	}
	return c
}

// Report summarizes one scrub round.
type Report struct {
	Round             int
	SourceObjects     int
	DestObjects       int
	Missing           int // at source, absent at destination
	Stale             int // differing ETags
	Orphans           int // at destination only (past the grace window)
	Divergent         int // Missing + Stale + Orphans
	RepairsDispatched int
	RepairsRedriven   int // divergent keys parked in the DLQ, redriven
	RepairsDeduped    int // repairs already covered by in-flight tasks
	SLOViolations     int // repaired versions older than the divergence SLO
	DigestBytes       int64
	ListPages         int
	LeavesCompared    int
	LeavesMismatched  int
	MPUsAborted       int   // orphaned multipart uploads garbage-collected
	MPUBytesReclaimed int64 // part bytes those uploads were holding
	Clean             bool  // trees matched and the engine had no pending work
}

// Scrubber runs anti-entropy rounds for one deployed replication rule.
type Scrubber struct {
	eng *engine.Engine
	w   *world.World
	cfg Config

	table string // per-rule KV digest table

	// Instruments are {rule}-labelled family children rolling up into the
	// run-wide aggregate.
	rounds        *telemetry.Counter
	divergentKeys *telemetry.Counter
	repDispatched *telemetry.Counter
	repRedriven   *telemetry.Counter
	repDeduped    *telemetry.Counter
	sloViolations *telemetry.Counter
	digBytes      *telemetry.Counter
	lastDivergent *telemetry.Gauge
	ageHist       *telemetry.Histogram

	mu    chanMutex
	round int
}

// chanMutex is a tiny mutex that does not show up in race profiles of the
// virtual clock (a plain sync.Mutex would work too; this keeps Lock sites
// explicit and non-blocking in practice).
type chanMutex chan struct{}

func (m chanMutex) lock()   { m <- struct{}{} }
func (m chanMutex) unlock() { <-m }

// New returns a scrubber for the rule eng replicates. The scrubber shares
// the engine's world, tracker and DLQ, so repairs flow through the same
// dedupe and failure machinery as notification-driven tasks.
func New(eng *engine.Engine, cfg Config) *Scrubber {
	w := eng.W
	m := w.Metrics
	dims := []telemetry.Label{telemetry.L("rule", eng.RuleID())}
	return &Scrubber{
		eng:   eng,
		w:     w,
		cfg:   cfg.withDefaults(),
		table: "areplica-scrub:" + eng.RuleID(),

		rounds:        m.CounterVec("antientropy.rounds").With(dims...),
		divergentKeys: m.CounterVec("antientropy.divergent_keys").With(dims...),
		repDispatched: m.CounterVec("antientropy.repair.dispatched").With(dims...),
		repRedriven:   m.CounterVec("antientropy.repair.redriven").With(dims...),
		repDeduped:    m.CounterVec("antientropy.repair.deduped").With(dims...),
		sloViolations: m.CounterVec("antientropy.slo_violations").With(dims...),
		digBytes:      m.CounterVec("antientropy.digest.bytes").With(dims...),
		lastDivergent: m.GaugeVec("antientropy.last_divergent").With(dims...),
		ageHist:       m.HistogramVec("antientropy.divergence.age.seconds").With(dims...),

		mu: make(chanMutex, 1),
	}
}

// SLOViolationCount returns this rule's divergence-SLO violation count
// (the labelled child, not the run-wide aggregate) — the burn-rate
// monitor's divergence signal.
func (s *Scrubber) SLOViolationCount() int64 { return s.sloViolations.Value() }

// Start launches the periodic scrub loop as a clock actor: every Cadence it
// runs one round, and it exits after stopAfterClean consecutive clean
// rounds. Self-termination keeps Quiesce well-defined — a loop that
// re-armed its timer forever would hold the virtual clock open.
func (s *Scrubber) Start() {
	s.w.Clock.Go(func() {
		clean := 0
		for {
			s.w.Clock.Sleep(s.cfg.Cadence)
			rep, err := s.RunOnce()
			if err == nil && rep.Clean {
				clean++
			} else {
				clean = 0
			}
			if clean >= stopAfterClean {
				return
			}
		}
	})
}

// RunUntilClean runs scrub rounds Cadence apart until stopAfterClean
// consecutive rounds are clean (or maxRounds is hit), returning the rounds
// run and the last report. The caller must be a clock actor (the main
// driver goroutine qualifies).
func (s *Scrubber) RunUntilClean() (int, Report, error) {
	clean, ran := 0, 0
	var last Report
	for ran < maxRounds {
		rep, err := s.RunOnce()
		ran++
		if err != nil {
			clean = 0
		} else {
			last = rep
			if rep.Clean {
				clean++
			} else {
				clean = 0
			}
		}
		if clean >= stopAfterClean {
			return ran, last, nil
		}
		s.w.Clock.Sleep(s.cfg.Cadence)
	}
	return ran, last, fmt.Errorf("antientropy: not clean after %d rounds (%d divergent)",
		ran, last.Divergent)
}

// RunOnce executes one scrub round: build both trees as function
// invocations, exchange digests top-down, and repair the divergence.
func (s *Scrubber) RunOnce() (Report, error) {
	s.mu.lock()
	s.round++
	round := s.round
	s.mu.unlock()
	s.rounds.Inc()

	rule := s.eng.Rule
	src := s.w.Region(rule.Src)
	dst := s.w.Region(rule.Dst)
	clock := s.w.Clock

	root := s.w.Tracer.StartTraceAt(
		fmt.Sprintf("scrub %s round-%d", s.eng.RuleID(), round), "scrub", clock.Now())
	root.Set(telemetry.CatAttr, string(telemetry.CatScrub)).Set("round", round)
	defer root.End()

	rep := Report{Round: round}

	// Both sides list their bucket and publish tree digests concurrently,
	// each as a metered function invocation in its own region.
	var srcTree, dstTree *tree
	var srcPages, dstPages int
	var srcErr, dstErr error
	group := clock.NewGroup(2)
	src.Fn.InvokeSpan(root, 1, func(ctx *faas.Ctx) {
		defer group.Done()
		srcTree, srcPages, srcErr = s.buildSide(ctx, rule.Src, rule.SrcBucket, "src")
	})
	dst.Fn.InvokeSpan(root, 1, func(ctx *faas.Ctx) {
		defer group.Done()
		dstTree, dstPages, dstErr = s.buildSide(ctx, rule.Dst, rule.DstBucket, "dst")
	})
	group.Wait()
	rep.ListPages = srcPages + dstPages
	if srcErr != nil || dstErr != nil {
		if srcErr == nil {
			srcErr = dstErr
		}
		return rep, fmt.Errorf("antientropy: round %d listing: %w", round, srcErr)
	}
	for _, ms := range srcTree.member {
		rep.SourceObjects += len(ms)
	}
	for _, ms := range dstTree.member {
		rep.DestObjects += len(ms)
	}

	// The comparison runs as one more source-side invocation: it reads the
	// local digest table, pulls the destination's digests level by level
	// over the wide area, and enqueues repairs for what differs.
	cgroup := clock.NewGroup(1)
	src.Fn.InvokeSpan(root, 1, func(ctx *faas.Ctx) {
		defer cgroup.Done()
		s.compareAndRepair(ctx, round, srcTree, dstTree, &rep)
	})
	cgroup.Wait()

	// Orphaned-MPU garbage collection rides the scrub cadence as one more
	// destination-side invocation — the serverless stand-in for a bucket
	// lifecycle rule. Uploads a live checkpoint references are left alone;
	// everything older than the grace is aborted and its bytes reclaimed.
	ggroup := clock.NewGroup(1)
	dst.Fn.InvokeSpan(root, 1, func(ctx *faas.Ctx) {
		defer ggroup.Done()
		gsp := ctx.Span.Child("scrub-gc-mpus")
		rep.MPUsAborted, rep.MPUBytesReclaimed = s.eng.GCOrphanedMPUs(mpuGrace)
		gsp.Set("aborted", rep.MPUsAborted).Set("bytes", rep.MPUBytesReclaimed)
		gsp.End()
	})
	ggroup.Wait()

	rep.Divergent = rep.Missing + rep.Stale + rep.Orphans
	rep.Clean = rep.Divergent == 0 && s.eng.Tracker.PendingCount() == 0
	s.divergentKeys.Add(int64(rep.Divergent))
	s.lastDivergent.Set(int64(rep.Divergent))
	s.digBytes.Add(rep.DigestBytes)
	root.Set("divergent", rep.Divergent).Set("clean", rep.Clean)
	return rep, nil
}

// buildSide lists one bucket through the paginated LIST API, streaming
// each page straight into the Merkle tree builder (the listing is never
// materialized whole), and stores the digests in the region's KV digest
// table. A transient page failure retries from the last key consumed —
// the continuation-token resume any SDK client performs — rather than
// re-listing the bucket from the start.
func (s *Scrubber) buildSide(ctx *faas.Ctx, region cloud.RegionID, bucket, label string) (*tree, int, error) {
	clock := s.w.Clock
	lsp := ctx.Span.Child("scrub-list-" + label)
	bld := newTreeBuilder(func(m objstore.Meta) float64 {
		return clock.Now().Sub(m.Created).Seconds()
	})
	var pages int
	var err error
	cursor := ""
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 {
			clock.Sleep(500 * time.Millisecond << uint(attempt-1))
		}
		if !ctx.Alive() {
			lsp.Set("crashed", true).End()
			return nil, pages, fmt.Errorf("scrub %s: instance crashed", label)
		}
		sc := s.w.BucketScan(region, bucket, s.eng.Rule.KeyPrefix, cursor)
		for m, ok := sc.Next(); ok; m, ok = sc.Next() {
			bld.add(m)
		}
		pages += sc.Pages()
		if err = sc.Err(); err == nil {
			break
		}
		cursor = sc.LastKey()
	}
	lsp.Set("objects", bld.count).Set("pages", pages)
	lsp.End()
	if err != nil {
		return nil, pages, fmt.Errorf("scrub %s listing: %w", label, err)
	}

	t := bld.finish()

	// Publish the digest hierarchy to the regional digest table: the root,
	// the internal level, and per-group leaf digests — 2+F writes, each a
	// metered KV request.
	ssp := ctx.Span.Child("scrub-store-digests")
	kv := s.w.Region(region).KV
	kv.Put(s.table, label+":root", kvstore.Item{"d": hexDigest(t.root)})
	kv.Put(s.table, label+":groups", kvstore.Item{"d": hexDigests(t.groups)})
	for g := 0; g < len(t.groups); g++ {
		kv.Put(s.table, fmt.Sprintf("%s:leaves-%d", label, g),
			kvstore.Item{"d": hexDigests(t.leaves[g*fanout : (g+1)*fanout])})
	}
	ssp.End()
	return t, pages, nil
}

// compareAndRepair runs inside the source-side comparison invocation.
func (s *Scrubber) compareAndRepair(ctx *faas.Ctx, round int, srcTree, dstTree *tree, rep *Report) {
	rule := s.eng.Rule
	src := s.w.Region(rule.Src)
	dst := s.w.Region(rule.Dst)
	clock := s.w.Clock
	rng := simrand.New("scrub", s.eng.RuleID(), fmt.Sprint(round))

	// Digest exchange: read the local table, then pull the destination's
	// digests level by level across the wide area. The KV reads bill both
	// digest tables; the transfer rides a simulated network leg sized by
	// how deep the comparison actually descended.
	xsp := ctx.Span.Child("scrub-digest-exchange")
	src.KV.Get(s.table, "src:root")
	dst.KV.Get(s.table, "dst:root")
	div, xferBytes, leavesCompared, leavesMismatched := descend(srcTree, dstTree)
	if srcTree.root != dstTree.root {
		src.KV.Get(s.table, "src:groups")
		dst.KV.Get(s.table, "dst:groups")
	}
	s.w.MoveBytesSpan(xsp, "scrub-xfer", dst.Region, src.Region, src.Region.Provider,
		xferBytes, 1.0, rng)
	xsp.Set("bytes", xferBytes).Set("leaves", leavesCompared).Set("mismatched", leavesMismatched)
	xsp.End()
	rep.DigestBytes = xferBytes
	rep.LeavesCompared = leavesCompared
	rep.LeavesMismatched = leavesMismatched

	// Repair: every divergent key re-enters the normal replication path.
	rsp := ctx.Span.Child("scrub-repair")
	now := clock.Now()
	record := func(outcome engine.RepairOutcome) {
		switch outcome {
		case engine.RepairDispatched:
			rep.RepairsDispatched++
			s.repDispatched.Inc()
		case engine.RepairRedriven:
			rep.RepairsRedriven++
			s.repRedriven.Inc()
		case engine.RepairInflight:
			rep.RepairsDeduped++
			s.repDeduped.Inc()
		}
	}
	repairPut := func(m member) {
		s.ageHist.Observe(m.Age)
		if s.cfg.DivergenceSLO > 0 && m.Age > s.cfg.DivergenceSLO.Seconds() {
			rep.SLOViolations++
			s.sloViolations.Inc()
		}
		record(s.eng.Repair(objstore.Event{
			Type: objstore.EventPut, Bucket: rule.SrcBucket, Key: m.Key,
			Size: m.Size, ETag: m.ETag, Seq: m.Seq, Time: now,
		}))
	}
	for _, m := range div.Missing {
		rep.Missing++
		repairPut(m)
	}
	for _, m := range div.Stale {
		rep.Stale++
		repairPut(m)
	}
	for _, m := range div.Orphan {
		// The orphan-delete race: a key PUT after the source listing can
		// already be replicated when the comparison runs. Only versions
		// older than the grace window are really orphans.
		if m.Age < orphanGrace.Seconds() {
			continue
		}
		rep.Orphans++
		record(s.eng.Repair(objstore.Event{
			Type: objstore.EventDelete, Bucket: rule.SrcBucket, Key: m.Key, Time: now,
		}))
	}
	rsp.Set("missing", rep.Missing).Set("stale", rep.Stale).Set("orphans", rep.Orphans)
	rsp.End()
}

func hexDigest(d uint64) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], d)
	return hex.EncodeToString(b[:])
}

func hexDigests(ds []uint64) string {
	out := make([]byte, 0, len(ds)*16)
	for _, d := range ds {
		out = append(out, hexDigest(d)...)
	}
	return string(out)
}
