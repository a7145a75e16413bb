// Package fleet is the multi-rule control plane above the single-rule
// replication engine (ROADMAP item 1): rule admission, fair-share +
// priority scheduling of dispatch across rules, and shared
// per-(provider,region) quota ledgers for FaaS concurrency and KV
// throughput. One rule's burst drains a lane other rules share, so
// back-pressure and starvation are visible fleet-wide instead of each
// rule seeing a private cloud — the multi-tenant serverless contention
// CloudSimSC argues makes simulations predictive.
//
// Everything runs on the virtual clock and is deterministic: waiters are
// admitted in FIFO ticket order, token buckets refill in virtual time,
// and all instruments are labelled family children rolling up into their
// unlabelled aggregates, so same-seed runs are byte-identical.
package fleet

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// LaneID identifies one (provider, region) capacity lane. All rules whose
// functions or KV tables live in the lane compete for its quotas.
type LaneID struct {
	Provider string
	Region   string
}

func (id LaneID) String() string { return id.Provider + "/" + id.Region }

func (id LaneID) labels() []telemetry.Label {
	return []telemetry.Label{
		telemetry.L("provider", id.Provider),
		telemetry.L("region", id.Region),
	}
}

// QuotaConfig caps each lane of a Ledger. Zero values leave the
// corresponding quota unenforced.
type QuotaConfig struct {
	// FaaSConcurrency is the fleet-level cap on concurrently running
	// function instances per lane — the account limit the whole fleet
	// shares below the platform's own MaxConcurrency.
	FaaSConcurrency int
	// KVOpsPerSec is the lane's shared KV throughput budget, modelled as
	// a virtual-time token bucket with one second of burst capacity.
	KVOpsPerSec float64
}

const quotaPoll = 50 * time.Millisecond

// stallGuard bounds how long a saturated lane may go without a single
// release before the head waiter is force-admitted (counted in
// fleet.quota.fn.forced). It breaks cross-lane hold-and-wait cycles a
// pathological topology could otherwise wedge on.
const stallGuard = 2 * time.Minute

// Ledger tracks shared fleet quotas per lane. A nil *Ledger admits
// everything immediately.
type Ledger struct {
	clock *simclock.Clock
	reg   *telemetry.Registry
	cfg   QuotaConfig

	mu    sync.Mutex
	lanes map[LaneID]*lane
}

type lane struct {
	id  LaneID
	cap int

	inflight    int
	maxInflight int
	forcedCount int64
	nextTicket  uint64
	served      uint64
	lastRelease time.Time

	// KV token bucket: ops reserve a token and sleep off any debt, so
	// arrival order fixes the wait sequence deterministically.
	kvTokens float64
	kvLast   time.Time

	fnWaits    *telemetry.Counter
	fnForced   *telemetry.Counter
	fnInflight *telemetry.Gauge
	fnWaitHist *telemetry.Histogram
	kvWaits    *telemetry.Counter
	kvWaitHist *telemetry.Histogram
}

// NewLedger returns a Ledger enforcing cfg on every lane, instrumented
// into reg (nil reg disables telemetry, not enforcement).
func NewLedger(clock *simclock.Clock, reg *telemetry.Registry, cfg QuotaConfig) *Ledger {
	return &Ledger{clock: clock, reg: reg, cfg: cfg, lanes: make(map[LaneID]*lane)}
}

// lane returns (lazily creating) the lane's state. Caller must not hold mu.
func (l *Ledger) lane(id LaneID) *lane {
	l.mu.Lock()
	defer l.mu.Unlock()
	if ln, ok := l.lanes[id]; ok {
		return ln
	}
	ln := &lane{
		id:       id,
		cap:      l.cfg.FaaSConcurrency,
		kvTokens: l.cfg.KVOpsPerSec, // one second of burst
		kvLast:   l.clock.Now(),
	}
	if m := l.reg; m != nil {
		dims := id.labels()
		ln.fnWaits = m.CounterVec("fleet.quota.fn.waits").With(dims...)
		ln.fnForced = m.CounterVec("fleet.quota.fn.forced").With(dims...)
		ln.fnInflight = m.GaugeVec("fleet.quota.fn.inflight").With(dims...)
		ln.fnWaitHist = m.HistogramVec("fleet.quota.fn.wait.seconds").With(dims...)
		ln.kvWaits = m.CounterVec("fleet.quota.kv.waits").With(dims...)
		ln.kvWaitHist = m.HistogramVec("fleet.quota.kv.wait.seconds").With(dims...)
	}
	l.lanes[id] = ln
	return ln
}

// Acquire blocks (in virtual time) until the lane grants one function
// instance slot. Waiters are served in FIFO ticket order, so a burst from
// one rule queues behind nothing and everything later queues behind it —
// the shared-account contention the fleet scheduler steers around.
func (l *Ledger) Acquire(id LaneID) {
	if l == nil || l.cfg.FaaSConcurrency <= 0 {
		return
	}
	ln := l.lane(id)
	start := l.clock.Now()
	waited := false
	l.mu.Lock()
	ticket := ln.nextTicket
	ln.nextTicket++
	for {
		if ln.served == ticket {
			if ln.inflight < ln.cap {
				break
			}
			// Saturated with no release for the whole guard window: force
			// the head through so cross-lane hold-and-wait cannot wedge the
			// simulation. A healthy fleet never takes this path.
			stuckSince := ln.lastRelease
			if start.After(stuckSince) {
				stuckSince = start
			}
			if l.clock.Now().Sub(stuckSince) > stallGuard {
				ln.forcedCount++
				ln.fnForced.Inc()
				break
			}
		}
		if !waited {
			waited = true
			ln.fnWaits.Inc()
		}
		l.mu.Unlock()
		l.clock.Sleep(quotaPoll)
		l.mu.Lock()
	}
	ln.served++
	ln.inflight++
	if ln.inflight > ln.maxInflight {
		ln.maxInflight = ln.inflight
	}
	ln.fnInflight.Add(1)
	l.mu.Unlock()
	if waited {
		ln.fnWaitHist.Observe(l.clock.Since(start).Seconds())
	}
}

// Release returns one function instance slot to the lane.
func (l *Ledger) Release(id LaneID) {
	if l == nil || l.cfg.FaaSConcurrency <= 0 {
		return
	}
	ln := l.lane(id)
	l.mu.Lock()
	ln.inflight--
	ln.lastRelease = l.clock.Now()
	ln.fnInflight.Add(-1)
	l.mu.Unlock()
}

// Saturated reports whether the lane's function quota is currently fully
// admitted — the scheduler consults it to attribute quota waits to the
// rule it would otherwise admit.
func (l *Ledger) Saturated(id LaneID) bool {
	if l == nil || l.cfg.FaaSConcurrency <= 0 {
		return false
	}
	ln := l.lane(id)
	l.mu.Lock()
	defer l.mu.Unlock()
	return ln.inflight >= ln.cap
}

// WaitKV charges one KV operation against the lane's throughput budget,
// sleeping off any token debt in virtual time.
func (l *Ledger) WaitKV(id LaneID) {
	if l == nil || l.cfg.KVOpsPerSec <= 0 {
		return
	}
	ln := l.lane(id)
	rate := l.cfg.KVOpsPerSec
	l.mu.Lock()
	now := l.clock.Now()
	ln.kvTokens += now.Sub(ln.kvLast).Seconds() * rate
	if ln.kvTokens > rate {
		ln.kvTokens = rate // burst capacity: one second of budget
	}
	ln.kvLast = now
	ln.kvTokens--
	debt := -ln.kvTokens
	l.mu.Unlock()
	if debt <= 0 {
		return
	}
	wait := simclock.Seconds(debt / rate)
	ln.kvWaits.Inc()
	ln.kvWaitHist.Observe(wait.Seconds())
	l.clock.Sleep(wait)
}

// LaneStats is one lane's quota accounting snapshot.
type LaneStats struct {
	Lane        LaneID
	Cap         int
	Inflight    int
	MaxInflight int
	Forced      int64
	// UtilizationPct is the lane's concurrency high-water mark as a
	// percentage of its cap (0 when the lane is uncapped).
	UtilizationPct float64
}

// Stats snapshots every lane the ledger has seen, sorted by lane ID.
func (l *Ledger) Stats() []LaneStats {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := make([]LaneStats, 0, len(l.lanes))
	for _, ln := range l.lanes {
		st := LaneStats{
			Lane: ln.id, Cap: ln.cap,
			Inflight: ln.inflight, MaxInflight: ln.maxInflight,
			Forced: ln.forcedCount,
		}
		if ln.cap > 0 {
			st.UtilizationPct = 100 * float64(ln.maxInflight) / float64(ln.cap)
		}
		out = append(out, st)
	}
	l.mu.Unlock()
	// Sort on the struct fields: Lane.String() inside the comparator would
	// allocate a fresh key per comparison, O(n log n) garbage per snapshot.
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Lane, out[j].Lane
		if a.Provider != b.Provider {
			return a.Provider < b.Provider
		}
		return a.Region < b.Region
	})
	return out
}

// FnGate adapts one lane of the ledger to the faas.Quota interface.
type FnGate struct {
	l  *Ledger
	id LaneID
}

// FnGate returns the lane's function-concurrency gate, for
// faas.Platform.SetQuota.
func (l *Ledger) FnGate(id LaneID) *FnGate { return &FnGate{l: l, id: id} }

// Acquire implements faas.Quota.
func (g *FnGate) Acquire() { g.l.Acquire(g.id) }

// Release implements faas.Quota.
func (g *FnGate) Release() { g.l.Release(g.id) }

// KVGate adapts one lane of the ledger to the kvstore.Quota interface.
type KVGate struct {
	l  *Ledger
	id LaneID
}

// KVGate returns the lane's KV-throughput gate, for kvstore.Store.SetQuota.
func (l *Ledger) KVGate(id LaneID) *KVGate { return &KVGate{l: l, id: id} }

// WaitOp implements kvstore.Quota.
func (g *KVGate) WaitOp(write bool) { g.l.WaitKV(g.id) }

// String implements fmt.Stringer for LaneStats (debug output).
func (s LaneStats) String() string {
	return fmt.Sprintf("%s cap=%d max=%d util=%.0f%%", s.Lane, s.Cap, s.MaxInflight, s.UtilizationPct)
}
