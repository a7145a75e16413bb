package core

// Fleet control plane: many replication rules deployed as one unit under a
// shared scheduler and per-(provider,region) quota ledgers, with topology
// builders for one-to-many fan-out, chained replication (A→B→C) and full
// mesh. See internal/fleet for the scheduling and quota machinery;
// DESIGN.md "Fleet control plane" for semantics.

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/cloud"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/fleetobs"
	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/oracle"
	"repro/internal/world"
)

// FleetRule is one rule of a fleet topology.
type FleetRule struct {
	SrcRegion, SrcBucket string
	DstRegion, DstBucket string

	// KeyPrefix scopes the rule to keys with this prefix (empty = all).
	KeyPrefix string
	// SLO is the rule's replication-delay objective (zero = fastest plan).
	SLO time.Duration
	// Weight is the rule's fair-share weight in the fleet scheduler
	// (default 1; a weight-2 rule is admitted twice as often under
	// contention).
	Weight float64
	// Priority is the rule's scheduling class: higher classes admit
	// strictly first (default 0).
	Priority int
	// AcceptOrigins lists upstream replica-write origin tags (OriginOf)
	// this rule treats as source writes — how a chain's B→C hop consumes
	// B's applied writes without a notification loop.
	AcceptOrigins []string
}

// ID returns the rule's stable identifier ("src/bucket->dst/bucket").
func (r FleetRule) ID() string {
	return fmt.Sprintf("%s/%s->%s/%s", r.SrcRegion, r.SrcBucket, r.DstRegion, r.DstBucket)
}

// OriginOf returns the origin tag the given rule's engine stamps on its
// destination writes. Chained topologies whitelist upstream rules'
// origins via FleetRule.AcceptOrigins; the builders below do it for you.
func OriginOf(srcRegion, srcBucket, dstRegion, dstBucket string) string {
	return engine.OriginPrefix + fmt.Sprintf("%s/%s->%s/%s", srcRegion, srcBucket, dstRegion, dstBucket)
}

// FleetDst is one destination of a fan-out topology.
type FleetDst struct {
	Region string
	Bucket string
}

// FanOut builds a one-to-many topology: every write to the source bucket
// replicates to each destination independently (one rule per destination,
// all fed by the same source changelog).
func FanOut(srcRegion, srcBucket string, dsts ...FleetDst) ([]FleetRule, error) {
	if len(dsts) == 0 {
		return nil, fmt.Errorf("core: fan-out needs at least one destination")
	}
	rules := make([]FleetRule, 0, len(dsts))
	for _, d := range dsts {
		if d.Region == srcRegion && d.Bucket == srcBucket {
			return nil, fmt.Errorf("core: fan-out destination %s/%s is the source", d.Region, d.Bucket)
		}
		rules = append(rules, FleetRule{
			SrcRegion: srcRegion, SrcBucket: srcBucket,
			DstRegion: d.Region, DstBucket: d.Bucket,
		})
	}
	return rules, nil
}

// FleetHop is one stop of a chained topology.
type FleetHop struct {
	Region string
	Bucket string
}

// Chain builds a chained topology A→B→C…: each hop's applied writes feed
// the next hop's rule (the next rule whitelists the previous rule's
// origin), so an object written at the head propagates hop by hop without
// any hop re-notifying its own upstream. A hop may not repeat — a cycle
// would re-deliver writes forever at the rule level; use FullMesh for
// cyclic (active-active) topologies, whose origin-skip semantics are
// loop-free by construction.
func Chain(hops ...FleetHop) ([]FleetRule, error) {
	if len(hops) < 2 {
		return nil, fmt.Errorf("core: a chain needs at least two hops")
	}
	seen := make(map[string]bool, len(hops))
	for _, h := range hops {
		id := h.Region + "/" + h.Bucket
		if seen[id] {
			return nil, fmt.Errorf("core: chain revisits %s (cycles are not chains; use FullMesh)", id)
		}
		seen[id] = true
	}
	rules := make([]FleetRule, 0, len(hops)-1)
	for i := 1; i < len(hops); i++ {
		prev, cur := hops[i-1], hops[i]
		r := FleetRule{
			SrcRegion: prev.Region, SrcBucket: prev.Bucket,
			DstRegion: cur.Region, DstBucket: cur.Bucket,
		}
		if i > 1 {
			up := hops[i-2]
			r.AcceptOrigins = []string{OriginOf(up.Region, up.Bucket, prev.Region, prev.Bucket)}
		}
		rules = append(rules, r)
	}
	return rules, nil
}

// FullMesh builds an active-active mesh over the named bucket in every
// region: one rule per ordered region pair. Writes at any member
// replicate to all others in one hop; replica writes are origin-tagged
// and skipped by every member's rules, so the mesh cannot loop.
func FullMesh(bucket string, regions ...string) ([]FleetRule, error) {
	if len(regions) < 2 {
		return nil, fmt.Errorf("core: a mesh needs at least two regions")
	}
	seen := make(map[string]bool, len(regions))
	for _, r := range regions {
		if seen[r] {
			return nil, fmt.Errorf("core: mesh region %s repeated", r)
		}
		seen[r] = true
	}
	var rules []FleetRule
	for _, src := range regions {
		for _, dst := range regions {
			if src == dst {
				continue
			}
			rules = append(rules, FleetRule{
				SrcRegion: src, SrcBucket: bucket,
				DstRegion: dst, DstBucket: bucket,
			})
		}
	}
	return rules, nil
}

// FleetOptions configures a fleet deployment's shared control plane.
type FleetOptions struct {
	// FaaSConcurrency caps concurrently running function instances per
	// (provider,region) lane across the whole fleet (0 = uncapped).
	// Quotas arm after deployment, like chaos, so profiling stays clean.
	FaaSConcurrency int
	// KVOpsPerSec caps each lane's shared KV throughput (0 = uncapped).
	KVOpsPerSec float64

	// LaneSlots bounds concurrent scheduled dispatches per source lane
	// (default 16, clamped to FaaSConcurrency when that is lower).
	LaneSlots int
	// BatchWindow is the scheduler's cross-rule coalescing window
	// (default 20ms).
	BatchWindow time.Duration
	// StarveAfter is the queue wait past which an event counts its rule
	// as starved (default 30s).
	StarveAfter time.Duration

	// LagTarget is every rule's monitored lag objective (default 30s).
	LagTarget time.Duration
	// ProfileRounds overrides profiling effort for all rules.
	ProfileRounds int
}

// Fleet is a deployed fleet: its services, shared scheduler and quota
// ledger.
type Fleet struct {
	w      *world.World
	sched  *fleet.Scheduler
	ledger *fleet.Ledger
	order  []string // rule IDs in deployment order
	svcs   map[string]*Service
}

// DeployFleet deploys every rule of a topology under one shared scheduler
// and quota ledger. Buckets are created as needed (existing buckets are
// reused); rules deploy in order, sharing the performance model m, each
// with an SLO monitor attached that reports to events (nil = no log).
// Quotas arm after all rules are deployed — profiling, like chaos, sees a
// clean account.
func DeployFleet(w *world.World, m *model.Model, events *fleetobs.EventLog, rules []FleetRule, opts FleetOptions) (*Fleet, error) {
	if len(rules) == 0 {
		return nil, fmt.Errorf("core: a fleet needs at least one rule")
	}
	laneSlots := opts.LaneSlots
	if laneSlots <= 0 {
		laneSlots = 16
	}
	if opts.FaaSConcurrency > 0 && laneSlots > opts.FaaSConcurrency {
		laneSlots = opts.FaaSConcurrency
	}
	var ledger *fleet.Ledger
	if opts.FaaSConcurrency > 0 || opts.KVOpsPerSec > 0 {
		ledger = fleet.NewLedger(w.Clock, w.Metrics, fleet.QuotaConfig{
			FaaSConcurrency: opts.FaaSConcurrency,
			KVOpsPerSec:     opts.KVOpsPerSec,
		})
	}
	sched := fleet.NewScheduler(w.Clock, w.Metrics, ledger, fleet.SchedConfig{
		LaneSlots:   laneSlots,
		BatchWindow: opts.BatchWindow,
		StarveAfter: opts.StarveAfter,
	})

	f := &Fleet{w: w, sched: sched, ledger: ledger, svcs: make(map[string]*Service)}
	for _, fr := range rules {
		rid := fr.ID()
		src, err := cloud.ParseRegionID(fr.SrcRegion)
		if err != nil {
			return nil, fmt.Errorf("core: fleet rule %s: %w", rid, err)
		}
		dst, err := cloud.ParseRegionID(fr.DstRegion)
		if err != nil {
			return nil, fmt.Errorf("core: fleet rule %s: %w", rid, err)
		}
		lane := fleet.LaneID{Provider: string(cloud.MustLookup(src).Provider), Region: string(src)}
		// Rule admission: a duplicate rule is a topology error, caught
		// before anything deploys or subscribes.
		if err := sched.Register(rid, fr.DstRegion, lane, fr.Weight, fr.Priority); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		if err := ensureBucket(w, src, fr.SrcBucket); err != nil {
			return nil, err
		}
		if err := ensureBucket(w, dst, fr.DstBucket); err != nil {
			return nil, err
		}
		svc, err := Deploy(w, Options{
			Rule: engine.Rule{
				Src: src, Dst: dst,
				SrcBucket: fr.SrcBucket, DstBucket: fr.DstBucket,
				SLO: fr.SLO, KeyPrefix: fr.KeyPrefix,
				AcceptOrigins: fr.AcceptOrigins,
			},
			EnableMonitor: true,
			LagTarget:     opts.LagTarget,
			Events:        events,
			ProfileRounds: opts.ProfileRounds,
			Model:         m, // rules share profiling work
			DispatchGate:  sched.Gate(rid),
		})
		if err != nil {
			return nil, fmt.Errorf("core: fleet rule %s: %w", rid, err)
		}
		f.order = append(f.order, rid)
		f.svcs[rid] = svc
	}

	// Arm the shared quotas on every region's platforms now that
	// profiling is done; execution may land anywhere (relays, remote
	// replicators), so every lane is gated.
	if ledger != nil {
		for _, r := range cloud.AllRegions() {
			lane := fleet.LaneID{Provider: string(r.Provider), Region: string(r.ID())}
			reg := w.Region(r.ID())
			if opts.FaaSConcurrency > 0 {
				reg.Fn.SetQuota(ledger.FnGate(lane))
			}
			if opts.KVOpsPerSec > 0 {
				reg.KV.SetQuota(ledger.KVGate(lane))
			}
		}
	}
	return f, nil
}

// ensureBucket creates a bucket, tolerating its prior existence (fleet
// topologies legitimately reuse buckets: fan-out sources, mesh members).
func ensureBucket(w *world.World, region cloud.RegionID, bucket string) error {
	err := w.Region(region).Obj.CreateBucket(bucket, false)
	if errors.Is(err, objstore.ErrBucketExists) {
		return nil
	}
	return err
}

// Size returns the number of deployed rules.
func (f *Fleet) Size() int { return len(f.order) }

// RuleIDs returns the deployed rule identifiers, sorted.
func (f *Fleet) RuleIDs() []string {
	out := append([]string(nil), f.order...)
	sort.Strings(out)
	return out
}

// Service returns one deployed rule's service (nil when unknown).
func (f *Fleet) Service(id string) *Service { return f.svcs[id] }

// Services returns the deployed rules' services in deployment order.
func (f *Fleet) Services() []*Service {
	out := make([]*Service, 0, len(f.order))
	for _, id := range f.order {
		out = append(out, f.svcs[id])
	}
	return out
}

// PollMonitors re-evaluates every rule's SLOs at the current virtual
// instant, so quiet fault windows (nothing completing) still trip the
// burn-rate alerts.
func (f *Fleet) PollMonitors() {
	for _, id := range f.order {
		f.svcs[id].Monitor.Poll()
	}
}

// PendingTotal sums source writes not yet replicated across all rules.
func (f *Fleet) PendingTotal() int {
	n := 0
	for _, id := range f.order {
		n += f.svcs[id].Tracker().PendingCount()
	}
	return n
}

// DLQTotal sums dead-lettered events across all rules.
func (f *Fleet) DLQTotal() int {
	n := 0
	for _, id := range f.order {
		n += len(f.svcs[id].Engine.DLQ())
	}
	return n
}

// RedriveAll re-dispatches every rule's dead-lettered events, returning
// how many re-entered the pipeline. Run the simulation afterwards.
func (f *Fleet) RedriveAll() int {
	n := 0
	for _, id := range f.order {
		n += f.svcs[id].Engine.RedriveDLQ()
	}
	return n
}

// WriteHealthTable renders every rule's health row as an aligned text
// table in deterministic sorted rule order.
func (f *Fleet) WriteHealthTable(w io.Writer) error {
	rows := make([]fleetobs.Health, 0, len(f.order))
	for _, id := range f.order {
		rows = append(rows, f.svcs[id].Monitor.Health())
	}
	return fleetobs.WriteHealthTable(w, rows)
}

// Diverged audits forward convergence: for every rule, each source key
// under the rule's prefix must exist at the destination with the same
// ETag (oracle.Compare; orphans do not count). It returns the number of
// diverged (missing or stale) keys and the number of keys audited.
func (f *Fleet) Diverged() (diverged, total int, err error) {
	for _, id := range f.order {
		rule := f.svcs[id].Rule
		src, dst := f.w.Region(rule.Src).Obj, f.w.Region(rule.Dst).Obj
		d, err := oracle.Compare(src, rule.SrcBucket, dst, rule.DstBucket, rule.KeyPrefix)
		if err != nil {
			return 0, 0, fmt.Errorf("core: fleet audit %s: %w", id, err)
		}
		diverged += d.Diverged()
		total += d.Keys
	}
	return diverged, total, nil
}

// SchedStats snapshots every rule's scheduling counters, sorted by rule.
func (f *Fleet) SchedStats() []fleet.RuleStats { return f.sched.RuleStats() }

// QuotaStats snapshots every quota lane the fleet has touched, sorted by
// lane; empty when no quotas were configured.
func (f *Fleet) QuotaStats() []fleet.LaneStats { return f.ledger.Stats() }

// BatchStats totals the scheduler's cross-rule batching.
func (f *Fleet) BatchStats() fleet.BatchStats { return f.sched.BatchStats() }
