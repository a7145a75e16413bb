// Package areplica is a from-scratch reproduction of AReplica, the
// serverless cross-cloud object replication system of "Serverless
// Replication of Object Storage across Multi-Vendor Clouds and Regions"
// (EuroSys '26). It bundles a deterministic simulation of three clouds
// (object storage, serverless functions, NoSQL databases, VMs, wide-area
// links, list-price billing) with the paper's full replication stack:
// distribution-aware performance modelling, SLO-compliant strategy
// planning, decentralized part-granularity scheduling, eventual
// consistency via replication locks and optimistic validation, changelog
// propagation, and SLO-bounded batching.
//
// Quick start:
//
//	sim := areplica.NewSim()
//	sim.MustCreateBucket("aws:us-east-1", "photos")
//	sim.MustCreateBucket("azure:eastus", "photos-replica")
//	rep, err := sim.Deploy(areplica.Rule{
//		SrcRegion: "aws:us-east-1", SrcBucket: "photos",
//		DstRegion: "azure:eastus", DstBucket: "photos-replica",
//		SLO: 30 * time.Second,
//	})
//	// handle err
//	sim.PutObject("aws:us-east-1", "photos", "cat.jpg", 2<<20)
//	sim.Wait() // run the simulation to completion
//	for _, r := range rep.Records() {
//		fmt.Println(r.Key, r.Delay)
//	}
//
// Everything runs on a virtual clock: simulated hours complete in
// milliseconds, deterministically.
package areplica

import (
	"fmt"
	"io"
	"time"

	"repro/internal/changelog"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fleetobs"
	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/simclock"
	"repro/internal/simrand"
	"repro/internal/stats"
	"repro/internal/world"
)

// Sim is a simulated three-cloud environment with AReplica deployable on
// top. Create one with NewSim from the goroutine that will drive it.
type Sim struct {
	world  *world.World
	model  *model.Model
	events *fleetobs.EventLog
}

// NewSim builds the 13-region, three-cloud world the paper evaluates on.
func NewSim() *Sim {
	return &Sim{world: world.New(), model: model.New(), events: fleetobs.NewEventLog()}
}

// World exposes the underlying simulation; the benchmark (bench/) uses it
// to arm chaos, drive the clock and read metrics and bucket listings.
func (s *Sim) World() *world.World { return s.world }

// Now returns the current virtual time.
func (s *Sim) Now() time.Time { return s.world.Clock.Now() }

// Wait runs the simulation until all in-flight activity (replications,
// timers, notifications) has drained.
func (s *Sim) Wait() { s.world.Clock.Quiesce() }

// Sleep advances virtual time by d from the caller's perspective.
func (s *Sim) Sleep(d time.Duration) { s.world.Clock.Sleep(d) }

// Go queues fn to run as a concurrent simulation actor (use instead of the
// go statement inside the simulation): fn starts, on one of the clock's
// pooled goroutines, once the caller blocks on the simulation and the
// actors already ready have had their turns.
func (s *Sim) Go(fn func()) { s.world.Clock.Go(fn) }

// Regions lists the available region identifiers.
func (s *Sim) Regions() []string {
	var out []string
	for _, r := range cloud.AllRegions() {
		out = append(out, string(r.ID()))
	}
	return out
}

func (s *Sim) region(id string) (cloud.RegionID, error) {
	return cloud.ParseRegionID(id)
}

// CreateBucket creates a bucket in a region.
func (s *Sim) CreateBucket(region, bucket string) error {
	rid, err := s.region(region)
	if err != nil {
		return err
	}
	return s.world.Region(rid).Obj.CreateBucket(bucket, false)
}

// MustCreateBucket is CreateBucket but panics on error (examples, tests).
func (s *Sim) MustCreateBucket(region, bucket string) {
	if err := s.CreateBucket(region, bucket); err != nil {
		panic(err)
	}
}

// ObjectInfo describes a stored object.
type ObjectInfo struct {
	Key     string
	Size    int64
	ETag    string
	Created time.Time
}

// PutObject writes a synthetic object of the given size (content derived
// from the key and version) and returns its ETag.
func (s *Sim) PutObject(region, bucket, key string, size int64) (ObjectInfo, error) {
	rid, err := s.region(region)
	if err != nil {
		return ObjectInfo{}, err
	}
	svc := s.world.Region(rid).Obj
	seed := uint64(simrand.Seed(region, bucket, key, s.Now().String()))
	res, err := svc.Put(bucket, key, objstore.BlobOfSize(size, seed))
	if err != nil {
		return ObjectInfo{}, err
	}
	return ObjectInfo{Key: key, Size: size, ETag: res.ETag, Created: s.Now()}, nil
}

// PutBytes writes a literal object (small payloads).
func (s *Sim) PutBytes(region, bucket, key string, data []byte) (ObjectInfo, error) {
	rid, err := s.region(region)
	if err != nil {
		return ObjectInfo{}, err
	}
	res, err := s.world.Region(rid).Obj.Put(bucket, key, objstore.BlobFromBytes(data))
	if err != nil {
		return ObjectInfo{}, err
	}
	return ObjectInfo{Key: key, Size: int64(len(data)), ETag: res.ETag, Created: s.Now()}, nil
}

// HeadObject returns an object's metadata.
func (s *Sim) HeadObject(region, bucket, key string) (ObjectInfo, error) {
	rid, err := s.region(region)
	if err != nil {
		return ObjectInfo{}, err
	}
	m, err := s.world.Region(rid).Obj.Head(bucket, key)
	if err != nil {
		return ObjectInfo{}, err
	}
	return ObjectInfo{Key: m.Key, Size: m.Size, ETag: m.ETag, Created: m.Created}, nil
}

// DeleteObject removes an object.
func (s *Sim) DeleteObject(region, bucket, key string) error {
	rid, err := s.region(region)
	if err != nil {
		return err
	}
	return s.world.Region(rid).Obj.Delete(bucket, key)
}

// CopyObject performs a same-region server-side copy and returns the new
// object's info.
func (s *Sim) CopyObject(region, bucket, srcKey, dstKey string) (ObjectInfo, error) {
	rid, err := s.region(region)
	if err != nil {
		return ObjectInfo{}, err
	}
	if _, err := s.world.Region(rid).Obj.Copy(bucket, srcKey, bucket, dstKey, ""); err != nil {
		return ObjectInfo{}, err
	}
	m, err := s.world.Region(rid).Obj.Head(bucket, dstKey)
	if err != nil {
		return ObjectInfo{}, err
	}
	return ObjectInfo{Key: m.Key, Size: m.Size, ETag: m.ETag, Created: m.Created}, nil
}

// ExportProfile writes the sim's fitted performance-model parameters as
// JSON, so later runs can skip profiling via ImportProfile.
func (s *Sim) ExportProfile(w io.Writer) error { return s.model.Export(w) }

// ImportProfile loads parameters written by ExportProfile. Deployments
// whose paths are covered skip their profiling phase.
func (s *Sim) ImportProfile(r io.Reader) error { return s.model.Import(r) }

// CostTotal returns the dollars accrued so far across all simulated cloud
// services.
func (s *Sim) CostTotal() float64 { return s.world.Meter.Total() }

// CostBreakdown itemizes accrued cost (egress, function compute, KV
// operations, request fees, VM time, ...).
func (s *Sim) CostBreakdown() map[string]float64 { return s.world.Meter.Breakdown() }

// Rule configures one replication deployment.
type Rule struct {
	SrcRegion, SrcBucket string
	DstRegion, DstBucket string

	// SLO is the target replication delay measured from the source PUT;
	// zero always chooses the fastest plan.
	SLO time.Duration
	// Percentile is the confidence at which plans must meet the SLO
	// (default 0.99).
	Percentile float64

	// KeyPrefix scopes the rule to keys with this prefix (empty = all).
	KeyPrefix string

	// Relays lists optional overlay execution regions (§6's extension):
	// the planner may run replicators at a relay when its two shorter
	// legs beat the direct path, at the cost of a second egress charge.
	Relays []string

	// Batching enables SLO-bounded batching (§5.4); requires SLO > 0.
	Batching bool
	// Changelog enables changelog propagation (§5.4); register hints via
	// Replication.RegisterCopy / RegisterConcat.
	Changelog bool

	// Scrub attaches an anti-entropy scrubber: a periodic Merkle-tree
	// comparison of the two bucket listings that repairs divergence
	// (missed notifications, stale replicas, orphans) through the normal
	// replication path. Drive it with Replication.StartScrub or
	// Replication.ScrubUntilClean.
	Scrub bool
	// ScrubCadence is the virtual-time interval between scrub rounds
	// (0 = the 60s default).
	ScrubCadence time.Duration

	// Monitor attaches an SLO burn-rate monitor to the rule: replication
	// lag, DLQ depth and (with Scrub) divergence are evaluated on the
	// virtual clock, and alert transitions append to the sim's shared
	// event log (Sim.WriteEvents). Read the rule's current row with
	// Replication.Health.
	Monitor bool
	// LagTarget is the monitored per-event lag objective (default 30s).
	LagTarget time.Duration

	// ProfileRounds overrides profiling effort (default 12 samples per
	// parameter).
	ProfileRounds int
}

// Replication is a deployed rule.
type Replication struct {
	svc *core.Service
}

// Deploy profiles the rule's paths and wires AReplica to the source
// bucket. Buckets must exist.
func (s *Sim) Deploy(r Rule) (*Replication, error) {
	src, err := s.region(r.SrcRegion)
	if err != nil {
		return nil, err
	}
	dst, err := s.region(r.DstRegion)
	if err != nil {
		return nil, err
	}
	var relays []cloud.RegionID
	for _, rr := range r.Relays {
		id, err := s.region(rr)
		if err != nil {
			return nil, err
		}
		relays = append(relays, id)
	}
	svc, err := core.Deploy(s.world, core.Options{
		Rule: engine.Rule{
			Src: src, Dst: dst,
			SrcBucket: r.SrcBucket, DstBucket: r.DstBucket,
			SLO: r.SLO, Percentile: r.Percentile,
			KeyPrefix: r.KeyPrefix,
		},
		EnableChangelog: r.Changelog,
		EnableBatching:  r.Batching,
		EnableScrub:     r.Scrub,
		ScrubCadence:    r.ScrubCadence,
		EnableMonitor:   r.Monitor,
		LagTarget:       r.LagTarget,
		Events:          s.events,
		Relays:          relays,
		ProfileRounds:   r.ProfileRounds,
		Model:           s.model, // deployments share profiling work
	})
	if err != nil {
		return nil, err
	}
	return &Replication{svc: svc}, nil
}

// DelayRecord reports one source write's replication delay.
type DelayRecord = engine.DelayRecord

// Records returns per-write replication delays resolved so far.
func (r *Replication) Records() []DelayRecord { return r.svc.Tracker().Records() }

// SyncExisting backfills objects that existed in the source bucket before
// the rule was deployed (or that have drifted), returning how many were
// scheduled. Run the simulation (Wait) afterwards to let them converge.
func (r *Replication) SyncExisting() (int, error) {
	return r.svc.Engine.Backfill()
}

// Pending reports source writes not yet replicated.
func (r *Replication) Pending() int { return r.svc.Tracker().PendingCount() }

// DLQSize reports events parked in the dead-letter queue after exhausting
// their retries and automatic redrives.
func (r *Replication) DLQSize() int { return len(r.svc.Engine.DLQ()) }

// RedriveDLQ re-dispatches every dead-lettered event with a fresh redrive
// budget (the operator's "redrive" button), returning how many it
// re-enqueued. Run the simulation (Wait) afterwards to let them converge.
func (r *Replication) RedriveDLQ() int { return r.svc.Engine.RedriveDLQ() }

// Health is one rule's current health row (requires Rule.Monitor).
type Health = fleetobs.Health

// Health returns the rule's current health row at the virtual instant.
func (r *Replication) Health() (Health, error) {
	if r.svc.Monitor == nil {
		return Health{}, fmt.Errorf("areplica: monitoring is not enabled on this rule")
	}
	return r.svc.Monitor.Health(), nil
}

// PollMonitor re-evaluates the rule's SLOs at the current virtual
// instant. The monitor already polls on every completed task; drivers
// call this at loop points so quiet fault windows (nothing completing)
// still trip the burn-rate alerts.
func (r *Replication) PollMonitor() {
	if r.svc.Monitor != nil {
		r.svc.Monitor.Poll()
	}
}

// AlertCount reports the rule's warn/page transitions so far (0 when
// monitoring is off).
func (r *Replication) AlertCount() int { return r.svc.Monitor.AlertCount() }

// WriteEvents writes the sim's structured alert log as JSONL — one event
// per line, deterministic for a deterministic run.
func (s *Sim) WriteEvents(w io.Writer) error { return s.events.WriteJSONL(w) }

// EventCount reports how many alert events monitors have emitted.
func (s *Sim) EventCount() int { return s.events.Len() }

// WriteMetricsProm dumps the sim's metric registry — including the
// per-rule and per-destination labelled families — in the Prometheus
// text exposition format.
func (s *Sim) WriteMetricsProm(w io.Writer) error { return s.world.Metrics.WritePromText(w) }

// WriteHealthTable renders the health rows of the given replications as
// an aligned text table, sorted by rule. Replications without a monitor
// are skipped; the sim does not track what was deployed, so pass every
// replication to include.
func (s *Sim) WriteHealthTable(w io.Writer, reps ...*Replication) error {
	var rows []fleetobs.Health
	for _, rep := range reps {
		if rep != nil && rep.svc.Monitor != nil {
			rows = append(rows, rep.svc.Monitor.Health())
		}
	}
	return fleetobs.WriteHealthTable(w, rows)
}

// RegisterCopy hints that object dstKey (with the given ETag) was created
// by copying srcKey at version srcETag; the destination can then mirror
// the copy locally at near-zero cost.
func (r *Replication) RegisterCopy(dstKey, dstETag, srcKey, srcETag string) error {
	return r.svc.RegisterChangelog(changelog.Log{
		Key: dstKey, ETag: dstETag, Op: changelog.OpCopy,
		Sources: []changelog.Source{{Key: srcKey, ETag: srcETag}},
	})
}

// ConcatSource names one input of a concatenation changelog.
type ConcatSource = changelog.Source

// RegisterConcat hints that dstKey was produced by concatenating the
// sources in order.
func (r *Replication) RegisterConcat(dstKey, dstETag string, sources []ConcatSource) error {
	return r.svc.RegisterChangelog(changelog.Log{
		Key: dstKey, ETag: dstETag, Op: changelog.OpConcat, Sources: sources,
	})
}

// ScrubReport summarizes anti-entropy activity (requires Rule.Scrub).
type ScrubReport struct {
	Rounds        int   // scrub rounds run
	Divergent     int   // divergent keys found in the last round
	Repairs       int   // repairs enqueued in the last round (incl. redrives)
	SLOViolations int   // repaired versions older than the divergence SLO
	DigestBytes   int64 // digest traffic shipped in the last round
	Clean         bool  // last round found the pair converged
}

// StartScrub launches the periodic anti-entropy loop on the virtual clock;
// it stops itself after consecutive clean rounds so Wait can drain.
func (r *Replication) StartScrub() error {
	if r.svc.Scrubber == nil {
		return fmt.Errorf("areplica: scrub is not enabled on this rule")
	}
	r.svc.Scrubber.Start()
	return nil
}

// ScrubUntilClean runs scrub rounds a cadence apart until the bucket pair
// is verifiably converged (two consecutive clean Merkle exchanges), and
// reports the outcome.
func (r *Replication) ScrubUntilClean() (ScrubReport, error) {
	if r.svc.Scrubber == nil {
		return ScrubReport{}, fmt.Errorf("areplica: scrub is not enabled on this rule")
	}
	rounds, last, err := r.svc.Scrubber.RunUntilClean()
	return ScrubReport{
		Rounds:        rounds,
		Divergent:     last.Divergent,
		Repairs:       last.RepairsDispatched + last.RepairsRedriven,
		SLOViolations: last.SLOViolations,
		DigestBytes:   last.DigestBytes,
		Clean:         last.Clean,
	}, err
}

// Service exposes the underlying core service; the benchmark (bench/)
// uses it to time the planner and read the logger directly.
func (r *Replication) Service() *core.Service { return r.svc }

// String implements fmt.Stringer.
func (r *Replication) String() string {
	return fmt.Sprintf("replication %s/%s -> %s/%s",
		r.svc.Rule.Src, r.svc.Rule.SrcBucket, r.svc.Rule.Dst, r.svc.Rule.DstBucket)
}

// Summary aggregates a replication's delay and activity statistics.
type Summary struct {
	Resolved   int
	Pending    int
	DeadLetter int

	P50, P99, P9999, Max time.Duration

	// SLOAttainment is the fraction of resolved writes within the rule's
	// SLO (1.0 when no SLO is set).
	SLOAttainment float64

	// ModelObserved and ModelRefreshes report the runtime logger's
	// activity (§4).
	ModelObserved  int64
	ModelRefreshes int64
}

// Summary computes the replication's current statistics.
func (r *Replication) Summary() Summary {
	recs := r.svc.Tracker().Records()
	s := Summary{
		Resolved:   len(recs),
		Pending:    r.svc.Tracker().PendingCount(),
		DeadLetter: len(r.svc.Engine.DLQ()),
	}
	lst := r.svc.Logger.Stats()
	s.ModelObserved, s.ModelRefreshes = lst.Observed, lst.Refreshes
	if len(recs) == 0 {
		s.SLOAttainment = 1
		return s
	}
	secs := make([]float64, len(recs))
	within := 0
	for i, rec := range recs {
		secs[i] = rec.Delay.Seconds()
		if r.svc.Rule.SLO <= 0 || rec.Delay <= r.svc.Rule.SLO {
			within++
		}
	}
	q := func(p float64) time.Duration {
		return simclock.Seconds(stats.Percentile(secs, p))
	}
	s.P50, s.P99, s.P9999, s.Max = q(50), q(99), q(99.99), q(100)
	s.SLOAttainment = float64(within) / float64(len(recs))
	return s
}

// String implements fmt.Stringer for Summary.
func (s Summary) String() string {
	return fmt.Sprintf("resolved=%d pending=%d dlq=%d p50=%.2fs p99=%.2fs p99.99=%.2fs max=%.2fs slo=%.2f%%",
		s.Resolved, s.Pending, s.DeadLetter,
		s.P50.Seconds(), s.P99.Seconds(), s.P9999.Seconds(), s.Max.Seconds(),
		100*s.SLOAttainment)
}

// ReadObject simulates an end user near clientRegion fetching an object
// from a bucket in objRegion, returning the user-visible latency (request
// RTT plus transfer). Cross-region reads accrue egress cost — the repeated
// charge that replication near users eliminates (§2).
func (s *Sim) ReadObject(clientRegion, objRegion, bucket, key string) (time.Duration, error) {
	cid, err := s.region(clientRegion)
	if err != nil {
		return 0, err
	}
	oid, err := s.region(objRegion)
	if err != nil {
		return 0, err
	}
	svc := s.world.Region(oid)
	return s.world.ClientRead(cloud.MustLookup(cid), cloud.MustLookup(oid), svc.Obj, bucket, key)
}
