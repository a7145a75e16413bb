package experiments

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/oracle"
	"repro/internal/simclock"
	"repro/internal/simrand"
	"repro/internal/trace"
	"repro/internal/world"
)

// The two fleet presets. Each is one scenario shape — bucket names, trace
// seed, size law and shared quotas, all of which feed simrand seeds — at a
// full and a quick size.
const (
	// FleetHundred is the control-plane scenario: one weight-2 10-way
	// fan-out, two 3-hop chains, a priority-1 3-region mesh and direct
	// pairs, under quotas tight enough that rules queue behind each other.
	FleetHundred = "fleet-hundred-rules"
	// FleetDay is the thousand-rule replay of a virtual day: three quarters
	// of the rule budget is 16-way fan-out groups, so a quarter-million
	// trace ops become on the order of a million replica writes.
	FleetDay = "fleet-day"
)

// FleetConfig selects a fleet scenario and, optionally, resizes it.
type FleetConfig struct {
	// Preset is FleetHundred (the default) or FleetDay.
	Preset string
	// Quick selects the preset's CI size.
	Quick bool
	// Rules, Duration and Ops override the preset's size when positive:
	// total rule count (raised to the topology groups' floor), the trace's
	// virtual span, and its approximate operation count (bursts make the
	// realized count drift a few percent).
	Rules    int
	Duration time.Duration
	Ops      int
}

type fleetSize struct {
	rules    int
	duration time.Duration
	ops      int
}

type fleetPreset struct {
	// The mixed topology's shape: a bucket-name prefix and fanGroups
	// fanWidth-way fan-out groups; fanGroups 0 sizes them to three quarters
	// of the rule budget and numbers their buckets.
	prefix              string
	fanGroups, fanWidth int

	traceSeed   string
	full, quick fleetSize
	// keysPerOp, when set, sizes the trace's key population to ops/keysPerOp
	// (floor 1000) instead of the generator's default.
	keysPerOp int
	// quantize rounds object sizes up to a power of two before clamping;
	// otherwise sizes are only clamped.
	quantize bool
	// opts are the shared quotas; ProfileRounds 0 follows FleetConfig.Quick.
	opts core.FleetOptions
}

var fleetPresets = map[string]fleetPreset{
	FleetHundred: {
		fanGroups: 1, fanWidth: 10,
		traceSeed: "fleet-hundred",
		full:      fleetSize{rules: 100, duration: 15 * time.Minute, ops: 4500},
		quick:     fleetSize{rules: 100, duration: 4 * time.Minute, ops: 600},
		opts:      core.FleetOptions{FaaSConcurrency: 64, KVOpsPerSec: 400},
	},
	// Quotas wide enough that the day's bursts queue briefly instead of
	// dead-lettering.
	FleetDay: {
		prefix: "day-", fanWidth: 16,
		traceSeed: "fleet-day",
		full:      fleetSize{rules: 1000, duration: 24 * time.Hour, ops: 260000},
		quick:     fleetSize{rules: 120, duration: 90 * time.Minute, ops: 6000},
		keysPerOp: 8,
		quantize:  true,
		opts: core.FleetOptions{
			FaaSConcurrency: 256, KVOpsPerSec: 20000, LaneSlots: 64,
			ProfileRounds: profileRounds(true), // the quick round count at every size
		},
	},
}

// fleetMaxObjectBytes clamps trace object sizes so every transfer takes
// the inline local plan: the fleet scenarios stress the control plane and
// the event loop, not the distributed data plane.
const fleetMaxObjectBytes = 4 * MB

// FleetRuleRow is one rule's fairness account in a FleetResult.
type FleetRuleRow struct {
	fleet.RuleStats
	LagP99S float64
}

// FleetResult is a fleet scenario's outcome, deterministic for a given
// configuration: convergence and duplicate-write bars, fairness,
// shared-quota utilization, batching and dollar cost, plus the audit detail
// and per-rule accounts behind them. Full convergence, zero duplicate final
// writes and an empty DLQ with nothing pending are hard bars. Host-side
// numbers (wall seconds, CPU, allocations) are not here: `go run ./bench`
// measures those.
type FleetResult struct {
	Name    string
	Rules   int
	Entries int
	Ops     int
	// ReplicatedObjects counts replica writes landed on destination buckets
	// (origin-tagged puts).
	ReplicatedObjects int64
	ConvergencePct    float64
	DupFinalWrites    int
	DLQ               int
	Pending           int
	Starved           int64
	Admits            int64
	Defers            int64
	QuotaWaits        int64
	Batches           int64
	BatchMeanSize     float64
	// QuotaUtilPct is the busiest lane's concurrency high-water mark as a
	// percentage of its cap.
	QuotaUtilPct float64
	LagP99MaxS   float64
	// LagP99SpreadS is the spread of per-rule lag p99 across rules that
	// resolved work — a fair scheduler keeps it narrow even though rules
	// share lanes with a 10x-hotter fan-out source.
	LagP99SpreadS float64
	// VirtualHours is the simulated span the replay covered (the trace plus
	// the drain tail).
	VirtualHours float64
	CostUSD      float64

	Audited    int
	Diverged   int
	Redriven   int
	LagP99MinS float64
	// Forced counts stall-guard escapes (must stay zero — the control
	// plane never needs the deadlock valve).
	Forced int64

	PerRule []FleetRuleRow
}

// fleetEntry is one bucket accepting raw trace writes; mesh members
// prefix their keys so every key has exactly one writing site (no
// last-writer-wins races between mesh rules).
type fleetEntry struct {
	region, bucket, prefix string
}

// fleetTopology builds a preset's rules and entry points: its fan-out
// groups (sources cycling the three east regions, destinations
// alternating the two others, the first group weight 2 — the hot tenant),
// two 3-hop chains, a 3-region mesh (priority 1 — the interactive class),
// and direct rules over the ordered pairs of the three regions until the
// total reaches n.
func fleetTopology(preset fleetPreset, n int) ([]core.FleetRule, []fleetEntry, error) {
	regions := []string{string(AWSEast), string(AzureEast), string(GCPEast)}
	var rules []core.FleetRule
	var entries []fleetEntry

	groups := preset.fanGroups
	if groups == 0 {
		groups = max(n*3/4/preset.fanWidth, 1)
	}
	for g := 0; g < groups; g++ {
		src := regions[g%3]
		bucket, dstFmt := preset.prefix+"fan-src", preset.prefix+"fan-dst-%02d"
		if preset.fanGroups == 0 {
			bucket = fmt.Sprintf("%sfan-%03d", preset.prefix, g)
			dstFmt = bucket + "-dst-%02d"
		}
		var dsts []core.FleetDst
		for i := 0; i < preset.fanWidth; i++ {
			dsts = append(dsts, core.FleetDst{
				Region: regions[(g+1+i%2)%3],
				Bucket: fmt.Sprintf(dstFmt, i),
			})
		}
		fan, err := core.FanOut(src, bucket, dsts...)
		if err != nil {
			return nil, nil, err
		}
		if g == 0 {
			for i := range fan {
				fan[i].Weight = 2
			}
		}
		rules = append(rules, fan...)
		entries = append(entries, fleetEntry{region: src, bucket: bucket})
	}

	// Two chains in opposite directions; only the head accepts raw writes.
	for ci, order := range [][]string{
		{regions[0], regions[1], regions[2]},
		{regions[1], regions[2], regions[0]},
	} {
		bucket := fmt.Sprintf("%schain-%c", preset.prefix, 'a'+ci)
		hops := make([]core.FleetHop, len(order))
		for i, r := range order {
			hops[i] = core.FleetHop{Region: r, Bucket: bucket}
		}
		chain, err := core.Chain(hops...)
		if err != nil {
			return nil, nil, err
		}
		rules = append(rules, chain...)
		entries = append(entries, fleetEntry{region: order[0], bucket: bucket})
	}

	// Active-active mesh over all three regions; every member writes its
	// own keyspace.
	mesh, err := core.FullMesh(preset.prefix+"mesh", regions...)
	if err != nil {
		return nil, nil, err
	}
	for i := range mesh {
		mesh[i].Priority = 1
	}
	rules = append(rules, mesh...)
	for i, r := range regions {
		entries = append(entries, fleetEntry{region: r, bucket: preset.prefix + "mesh", prefix: fmt.Sprintf("site%d/", i)})
	}

	// Direct rules fill the fleet out to n, cycling the ordered region
	// pairs so all six lanes carry single-rule traffic too.
	type pair struct{ src, dst string }
	var pairs []pair
	for _, s := range regions {
		for _, d := range regions {
			if s != d {
				pairs = append(pairs, pair{s, d})
			}
		}
	}
	for i := 0; len(rules) < n; i++ {
		p := pairs[i%len(pairs)]
		bucket := fmt.Sprintf("%sdir-%03d", preset.prefix, i)
		rules = append(rules, core.FleetRule{
			SrcRegion: p.src, SrcBucket: bucket,
			DstRegion: p.dst, DstBucket: bucket + "-replica",
		})
		entries = append(entries, fleetEntry{region: p.src, bucket: bucket})
	}
	return rules, entries, nil
}

// keyShard maps a trace key to its entry point. Sharding hashes the key
// (not the op index) so every key has one stable writing site across its
// whole version history.
func keyShard(key string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// quantizeSize rounds a trace object size up to the next power of two
// (floor 64 KB, clamped to limit). Plans depend on size, so quantizing to
// a handful of distinct sizes turns the planner's fastest-plan memo into
// a near-perfect cache across a million admissions without changing the
// workload's character.
func quantizeSize(size, limit int64) int64 {
	q := int64(64 * 1024)
	for q < size && q < limit {
		q <<= 1
	}
	return min(q, limit)
}

// RunFleet deploys the preset's topology under shared quotas, replays its
// bursty trace across all entry points, drains, redrives what
// dead-lettered and audits every destination.
func RunFleet(cfg FleetConfig) (*FleetResult, error) {
	if cfg.Preset == "" {
		cfg.Preset = FleetHundred
	}
	preset, ok := fleetPresets[cfg.Preset]
	if !ok {
		return nil, fmt.Errorf("unknown fleet preset %q", cfg.Preset)
	}
	size := preset.full
	if cfg.Quick {
		size = preset.quick
	}
	if cfg.Rules > 0 {
		size.rules = cfg.Rules
	}
	if cfg.Duration > 0 {
		size.duration = cfg.Duration
	}
	if cfg.Ops > 0 {
		size.ops = cfg.Ops
	}
	rules, entries, err := fleetTopology(preset, size.rules)
	if err != nil {
		return nil, err
	}

	w := world.New()
	opts := preset.opts
	if opts.ProfileRounds == 0 {
		opts.ProfileRounds = profileRounds(cfg.Quick)
	}
	fl, err := core.DeployFleet(w, model.New(), nil, rules, opts)
	if err != nil {
		return nil, err
	}

	// Watch every destination bucket for duplicate final writes
	// (deterministic subscription order: first rule wins per bucket).
	var watchers []*oracle.Watcher
	seen := make(map[string]bool)
	for _, r := range rules {
		id := r.DstRegion + "/" + r.DstBucket
		if seen[id] {
			continue
		}
		seen[id] = true
		rid, err := cloud.ParseRegionID(r.DstRegion)
		if err != nil {
			return nil, err
		}
		wt, err := oracle.Watch(w.Region(rid).Obj, r.DstBucket)
		if err != nil {
			return nil, err
		}
		watchers = append(watchers, wt)
	}

	tcfg := trace.DefaultConfig(size.duration, float64(size.ops)/size.duration.Minutes())
	tcfg.Seed = preset.traceSeed
	if preset.keysPerOp > 0 {
		tcfg.Keys = max(size.ops/preset.keysPerOp, 1000)
	}
	ops := trace.Generate(tcfg)
	for i := range ops {
		if preset.quantize {
			ops[i].Size = quantizeSize(ops[i].Size, fleetMaxObjectBytes)
		} else {
			ops[i].Size = min(ops[i].Size, fleetMaxObjectBytes)
		}
	}

	costBefore := w.Meter.Total()
	virtStart := w.Clock.Now()
	trace.Replay(w.Clock, ops, func(op trace.Op) {
		e := entries[keyShard(op.Key, len(entries))]
		key := e.prefix + op.Key
		obj := w.Region(cloud.RegionID(e.region)).Obj
		if op.Type == trace.OpDelete {
			// Deleting a never-written key is a no-op, as in the real service.
			_ = obj.Delete(e.bucket, key)
			return
		}
		seed := uint64(simrand.Seed(e.region, e.bucket, key, w.Clock.Now().String()))
		if _, err := obj.Put(e.bucket, key, objstore.BlobOfSize(op.Size, seed)); err != nil {
			panic(err)
		}
	})
	w.Clock.Quiesce()
	redriven := 0
	for i := 0; i < 3 && fl.DLQTotal() > 0; i++ {
		redriven += fl.RedriveAll()
		w.Clock.Quiesce()
	}
	virtSecs := simclock.ToSeconds(w.Clock.Now().Sub(virtStart))
	fl.PollMonitors()

	res := &FleetResult{
		Name:         cfg.Preset,
		Rules:        fl.Size(),
		Entries:      len(entries),
		Ops:          len(ops),
		Pending:      fl.PendingTotal(),
		DLQ:          fl.DLQTotal(),
		CostUSD:      w.Meter.Total() - costBefore,
		VirtualHours: virtSecs / 3600,
		Redriven:     redriven,
	}
	for _, wt := range watchers {
		res.ReplicatedObjects += wt.Replicas()
		res.DupFinalWrites += wt.Duplicates()
	}
	div, audited, err := fl.Diverged()
	if err != nil {
		return nil, err
	}
	res.Audited, res.Diverged = audited, div
	if audited > 0 {
		res.ConvergencePct = 100 * float64(audited-div) / float64(audited)
	}

	lag := make(map[string]float64, fl.Size())
	for _, id := range fl.RuleIDs() {
		lag[id] = fl.Service(id).Monitor.Health().LagP99S
	}
	first := true
	for _, st := range fl.SchedStats() {
		row := FleetRuleRow{RuleStats: st, LagP99S: lag[st.Rule]}
		res.PerRule = append(res.PerRule, row)
		res.Admits += st.Admits
		res.Defers += st.Defers
		res.Starved += st.Starved
		res.QuotaWaits += st.QuotaWaits
		// Idle rules (no resolved work, lag 0) would fake a wide spread;
		// fairness is judged over rules that replicated something.
		if row.LagP99S <= 0 {
			continue
		}
		if first || row.LagP99S < res.LagP99MinS {
			res.LagP99MinS = row.LagP99S
		}
		if first || row.LagP99S > res.LagP99MaxS {
			res.LagP99MaxS = row.LagP99S
		}
		first = false
	}
	res.LagP99SpreadS = res.LagP99MaxS - res.LagP99MinS

	for _, ls := range fl.QuotaStats() {
		if ls.UtilizationPct > res.QuotaUtilPct {
			res.QuotaUtilPct = ls.UtilizationPct
		}
		res.Forced += ls.Forced
	}
	bs := fl.BatchStats()
	res.Batches, res.BatchMeanSize = bs.Batches, bs.MeanSize
	return res, nil
}

// Tables returns every rule's fairness row (exported only), then the ten
// most-contended rules with the scenario summary as notes (printed only).
func (r *FleetResult) Tables() []Table {
	cols := []Col{{"rule", "%s"}, {"admits", "%d"}, {"defers", "%d"}, {"starved", "%d"},
		{"quota_waits", "%d"}, {"max_queue", "%d"}, {"lag_p99_s", "%.2f"}}
	add := func(t *Table, row FleetRuleRow) {
		t.Add(row.Rule, row.Admits, row.Defers, row.Starved, row.QuotaWaits, row.MaxQueue, row.LagP99S)
	}
	all := Table{Name: "fleet_fairness", Cols: cols}
	for _, row := range r.PerRule {
		add(&all, row)
	}
	top := Table{
		Title: fmt.Sprintf("Fleet control plane: %d rules, %d entry points, %d trace ops; ten most contended rules",
			r.Rules, r.Entries, r.Ops),
		Cols: cols,
		Notes: []string{
			fmt.Sprintf("convergence %.1f%% (%d/%d audited keys, %d pending, %d DLQ, %d redriven), %d duplicate final writes",
				r.ConvergencePct, r.Audited-r.Diverged, r.Audited, r.Pending, r.DLQ, r.Redriven, r.DupFinalWrites),
			fmt.Sprintf("fairness: lag p99 %.2fs..%.2fs (spread %.2fs), %d starvation marks",
				r.LagP99MinS, r.LagP99MaxS, r.LagP99SpreadS, r.Starved),
			fmt.Sprintf("scheduler: %d admits, %d defers, %d quota waits; %d batches (mean %.1f)",
				r.Admits, r.Defers, r.QuotaWaits, r.Batches, r.BatchMeanSize),
			fmt.Sprintf("quota: busiest lane %.1f%% of cap, %d forced admissions; cost $%.4f",
				r.QuotaUtilPct, r.Forced, r.CostUSD),
			fmt.Sprintf("%d replicated objects over %.1f virtual hours", r.ReplicatedObjects, r.VirtualHours),
		},
	}
	rows := append([]FleetRuleRow(nil), r.PerRule...)
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].MaxQueue != rows[j].MaxQueue {
			return rows[i].MaxQueue > rows[j].MaxQueue
		}
		return rows[i].Rule < rows[j].Rule
	})
	for _, row := range rows[:min(len(rows), 10)] {
		add(&top, row)
	}
	return []Table{all, top}
}
