// Package planner implements AReplica's dynamic replication strategy
// planning (§5.3, Algorithm 3). Given an object and the SLO time remaining
// after notification delivery, the planner sweeps parallelism levels
// exponentially and, at each level, compares executing at the source
// region against the destination region. The first SLO-compliant plan is
// returned immediately — the sweep order makes it the cheapest compliant
// plan — and if none complies, the fastest plan found is returned.
package planner

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/pricing"
)

// DefaultClaimBatch is the number of parts a replicator claims (and
// acknowledges) per part-pool KV increment, amortizing the pool's two KV
// round-trips per part toward 2/B.
const DefaultClaimBatch = 4

// Adaptive part-size bounds: below ~4 MB per-request overhead dominates
// the transfer; above ~64 MB a lost part costs too much rework and
// instance memory.
const (
	minAdaptivePart = 4 << 20
	maxAdaptivePart = 64 << 20
)

// Plan is a chosen replication strategy.
type Plan struct {
	N     int            // number of replicator functions
	Loc   cloud.RegionID // execution region (source or destination)
	Local bool           // orchestrator replicates inline (N==1 at source)
	// PartSize is the part size the distributed data plane should use
	// (0 = the engine's configured default; always 0 for N==1 plans).
	PartSize int64

	// EstSeconds is the predicted replication time at the requested
	// percentile; EstMean and EstStd are the prediction's moments
	// (consumed by the runtime logger); Compliant reports whether the
	// plan met the SLO budget.
	EstSeconds float64
	EstMean    float64
	EstStd     float64
	// EstCostUSD is a rough per-object cost estimate (egress + compute +
	// invocations + part-pool operations).
	EstCostUSD float64
	Compliant  bool
}

// String implements fmt.Stringer.
func (p Plan) String() string {
	side := "remote"
	if p.Local {
		side = "local"
	}
	return fmt.Sprintf("plan{n=%d loc=%s %s est=%.2fs compliant=%v}", p.N, p.Loc, side, p.EstSeconds, p.Compliant)
}

// Planner generates SLO-compliant replication plans from a fitted model.
type Planner struct {
	M *model.Model

	// MaxParallel caps the parallelism sweep (n_max in Algorithm 3).
	MaxParallel int
	// Relays are optional intermediate execution regions (the serverless
	// overlay extension of §6): a function at a relay runs two shorter
	// legs, which can beat the direct long leg on trans-continental paths
	// at the cost of a second egress charge. Relays join the sweep after
	// the source and destination sides.
	Relays []cloud.RegionID
	// ExecLimitFor reports the execution time limit of the platform at a
	// region; adaptive part sizing caps part duration against it. Nil
	// falls back to a conservative 10 minutes (the shortest default
	// limit across the three platforms).
	ExecLimitFor func(cloud.RegionID) time.Duration

	// fastMemo caches fastest-plan results. When sloRemaining <= 0 the
	// compliance early-exits never fire, so the chosen plan depends only
	// on (src, dst, size, pct, opts) — all comparable — and rules with no
	// SLO (the common fleet configuration) re-plan identical inputs for
	// every object. The memo is per-Planner so differently configured
	// planners never share entries; mutating MaxParallel/Relays after the
	// first Plan call would serve stale entries, which no caller does.
	fastMu   sync.Mutex
	fastMemo map[fastKey]Plan
}

// fastKey identifies one budget-free planning problem.
type fastKey struct {
	src, dst cloud.RegionID
	size     int64
	pct      float64
	opts     PlanOpts
}

// maxFastMemo bounds the memo; on overflow the map is cleared rather than
// evicted (fleet workloads quantize sizes, so steady state is far below
// the cap and a clear is a rare, cheap reset).
const maxFastMemo = 4096

// PlanOpts carry the engine's data-plane configuration into planning so
// predictions and cost estimates match what the engine will execute.
type PlanOpts struct {
	// FixedPartSize pins the part size for distributed plans instead of
	// letting the planner adapt it per object (0 = adaptive).
	FixedPartSize int64
	// NoPipeline predicts the serial per-part data plane (double
	// buffering disabled).
	NoPipeline bool
	// ClaimBatch is the engine's part-pool claim batch (0 = default).
	ClaimBatch int
}

// LocalMaxBytes is the largest object the orchestrator replicates inline
// instead of invoking a replicator function.
const LocalMaxBytes = 32 << 20

// New returns a Planner with the paper's defaults.
func New(m *model.Model) *Planner {
	return &Planner{M: m, MaxParallel: 512}
}

// Plan chooses a strategy for replicating size bytes from src to dst.
// sloRemaining is SLO − (now − object timestamp); a non-positive value
// requests the fastest plan. pct is the user-chosen percentile (e.g. 0.99)
// at which the model's prediction must fit the budget.
func (pl *Planner) Plan(src, dst cloud.RegionID, size int64, sloRemaining time.Duration, pct float64) (Plan, error) {
	return pl.PlanWith(src, dst, size, sloRemaining, pct, PlanOpts{})
}

// PlanWith is Plan evaluated for a specific data-plane configuration.
func (pl *Planner) PlanWith(src, dst cloud.RegionID, size int64, sloRemaining time.Duration, pct float64, opts PlanOpts) (Plan, error) {
	if pct <= 0 || pct >= 1 {
		pct = 0.99
	}
	if sloRemaining <= 0 {
		k := fastKey{src: src, dst: dst, size: size, pct: pct, opts: opts}
		pl.fastMu.Lock()
		p, ok := pl.fastMemo[k]
		pl.fastMu.Unlock()
		if ok {
			return p, nil
		}
		p, err := pl.planWith(src, dst, size, sloRemaining, pct, opts)
		if err == nil {
			pl.fastMu.Lock()
			if pl.fastMemo == nil {
				pl.fastMemo = make(map[fastKey]Plan)
			} else if len(pl.fastMemo) >= maxFastMemo {
				clear(pl.fastMemo)
			}
			pl.fastMemo[k] = p
			pl.fastMu.Unlock()
		}
		return p, err
	}
	return pl.planWith(src, dst, size, sloRemaining, pct, opts)
}

func (pl *Planner) planWith(src, dst cloud.RegionID, size int64, sloRemaining time.Duration, pct float64, opts PlanOpts) (Plan, error) {
	budget := sloRemaining.Seconds()

	best := Plan{EstSeconds: -1}
	var firstErr error
	evaluate := func(n int, loc cloud.RegionID) (Plan, bool) {
		local := n == 1 && loc == src && size <= LocalMaxBytes
		// Single-function transfers stream whole chunks at the engine's
		// configured part size; only distributed plans pick a part size.
		var ps int64
		var mo model.Opts
		if n > 1 {
			ps = opts.FixedPartSize
			if ps <= 0 {
				ps = pl.PartSizeFor(src, dst, loc, size, n)
			}
			mo = model.Opts{Chunk: ps, Pipelined: !opts.NoPipeline}
		}
		d, err := pl.M.ReplTimeOpts(src, dst, loc, size, n, local, mo)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return Plan{}, false
		}
		est := d.Quantile(pct)
		cand := Plan{N: n, Loc: loc, Local: local, PartSize: ps,
			EstSeconds: est, EstMean: d.Mean(), EstStd: d.Std(),
			EstCostUSD: pl.EstimateCostUSD(src, dst, loc, size, n, d.Mean(), ps, opts.ClaimBatch),
		}
		if best.EstSeconds < 0 || est < best.EstSeconds {
			best = cand
		}
		return cand, true
	}

	// A single function must finish within its platform's execution limit;
	// beyond ~1 chunk/s that bounds the object size a single function may
	// take. The sweep naturally escalates parallelism for large objects.
	for n := 1; n <= pl.MaxParallel; n *= 2 {
		// Algorithm 3 compares the two execution sides at each level and
		// checks compliance on the level's fastest before escalating.
		levelBest := Plan{EstSeconds: -1}
		for _, loc := range []cloud.RegionID{src, dst} {
			if n == 1 && loc == dst && src == dst {
				continue // same-region rule: the two candidates coincide
			}
			if cand, ok := evaluate(n, loc); ok {
				if levelBest.EstSeconds < 0 || cand.EstSeconds < levelBest.EstSeconds {
					levelBest = cand
				}
			}
		}
		if budget > 0 && levelBest.EstSeconds >= 0 && levelBest.EstSeconds <= budget {
			levelBest.Compliant = true
			return levelBest, nil
		}
		// Overlay relays (§6 extension) cost a second egress hop, so they
		// are only considered when neither direct side can comply at this
		// parallelism; among compliant relays the cheapest wins.
		relayBest := Plan{EstSeconds: -1}
		for _, loc := range pl.Relays {
			cand, ok := evaluate(n, loc)
			if !ok || cand.EstSeconds > budget || budget <= 0 {
				continue
			}
			if relayBest.EstSeconds < 0 || cand.EstCostUSD < relayBest.EstCostUSD {
				relayBest = cand
			}
		}
		if relayBest.EstSeconds >= 0 {
			relayBest.Compliant = true
			return relayBest, nil
		}
	}
	if best.EstSeconds < 0 {
		return Plan{}, fmt.Errorf("planner: no usable plan for %s->%s: %w", src, dst, firstErr)
	}
	return best, nil
}

// PartSizeFor picks the part size a distributed plan should use for one
// object: roughly four parts per replicator (so the pool load-balances
// across slow instances) clamped to [4 MB, 64 MB], then capped so the
// mean per-part time stays a small fraction of the execution platform's
// time limit, and rounded down to a whole MiB. Returns 0 (caller keeps
// its configured default) when the path has no usable profile.
func (pl *Planner) PartSizeFor(src, dst, loc cloud.RegionID, size int64, n int) int64 {
	pp, ok := pl.M.Path(model.PathKey{Src: src, Dst: dst, Loc: loc})
	if !ok || pp.Cp.Mu <= 0 || n < 1 || size <= 0 {
		return 0
	}
	ps := min(max(size/(int64(n)*4), int64(minAdaptivePart)), int64(maxAdaptivePart))

	limit := 10 * time.Minute
	if pl.ExecLimitFor != nil {
		if l := pl.ExecLimitFor(loc); l > 0 {
			limit = l
		}
	}
	// Keep the mean part duration under 5% of the execution limit so a
	// replicator survives profile drift and per-instance slowness.
	secPerByte := pp.Cp.Mu / float64(pl.M.Chunk)
	if capBytes := int64(0.05 * limit.Seconds() / secPerByte); capBytes > 0 {
		ps = min(ps, capBytes)
	}
	ps = max(ps, int64(minAdaptivePart))
	return ps - ps%(1<<20)
}

// EstimateCostUSD prices a candidate plan: wide-area egress for each
// cross-region hop; the orchestrator's invocation, compute, lock writes
// and dedupe lookup at the source; the replicators' invocations and
// compute at loc; and the distributed data plane's per-object requests —
// the part pool's init write plus one claim and one completion increment
// per batch of claimBatch parts, a ranged GET per part at the source, and
// the part PUTs with their MPU create/complete pair at the destination.
// Algorithm 3 never needs exact costs — the sweep order already encodes
// "cheaper first" — but relays break that ordering, and reports want a
// number. partSize and claimBatch at <= 0 take the model/engine defaults.
func (pl *Planner) EstimateCostUSD(src, dst, loc cloud.RegionID, size int64, n int, estSeconds float64, partSize int64, claimBatch int) float64 {
	srcR := cloud.MustLookup(src)
	dstR := cloud.MustLookup(dst)
	locR := cloud.MustLookup(loc)
	cost := pricing.EgressCost(srcR, locR, size) + pricing.EgressCost(locR, dstR, size)
	srcBook := pricing.BookFor(srcR.Provider)
	dstBook := pricing.BookFor(dstR.Provider)
	locBook := pricing.BookFor(locR.Provider)
	dur := time.Duration(estSeconds * float64(time.Second))

	// Orchestrator at the source: one invocation held for the task
	// duration, the replication lock's acquire/release writes, and the
	// destination HEAD that dedupes already-replicated versions.
	cost += srcBook.FnInvocation + pricing.FnComputeCost(srcR.Provider, memGB(srcR.Provider), dur)
	cost += 2 * srcBook.KVWrite
	cost += dstBook.ObjGet

	// n replicator functions at loc.
	cost += float64(n) * locBook.FnInvocation
	cost += float64(n) * pricing.FnComputeCost(locR.Provider, memGB(locR.Provider), dur)

	if n > 1 {
		if partSize <= 0 {
			partSize = pl.M.Chunk
		}
		if claimBatch <= 0 {
			claimBatch = DefaultClaimBatch
		}
		chunks := float64((size + partSize - 1) / partSize)
		batches := math.Ceil(chunks / float64(claimBatch))
		cost += (1 + 2*batches) * locBook.KVWrite // pool init + batched claim/done increments
		cost += chunks * srcBook.ObjGet           // ranged GETs
		cost += (chunks + 2) * dstBook.ObjPut     // part PUTs + MPU create/complete
	} else {
		cost += srcBook.ObjGet + dstBook.ObjPut
	}
	return cost
}

// memGB is the replicator's provisioned memory on a platform (Azure
// Functions bills the 2 GB consumption plan band).
func memGB(p cloud.Provider) float64 {
	if p == cloud.Azure {
		return 2.0
	}
	return 1.0
}
