package fleetobs

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// The lag objective is RTC-style: a fraction objective of source events
// must be durable on the replica within the rule's lag target. Burn rate
// is the error-budget spend speed (1.0 = exactly on budget); alerts fire
// only when both the short and the long window burn, so a single slow
// object cannot page while a sustained fault still pages within
// shortWindow. Only the lag target is per rule.
const (
	defaultLagTarget = 30 * time.Second
	// objective is the in-target fraction, typed so the error budget
	// 1-objective is the float64 difference, not the exact decimal 0.01.
	objective   float64 = 0.99
	shortWindow         = time.Minute     // fast burn window
	longWindow          = 5 * time.Minute // slow burn window
	warnBurn            = 2               // warn when both windows burn >= this
	pageBurn            = 10              // page when both windows burn >= this
	maxDLQ              = 0               // page when DLQ depth exceeds this
)

// MonitorConfig wires one rule's monitor to its signal sources. Tracker
// and Now are required; the rest are optional.
type MonitorConfig struct {
	Rule string
	Dest string
	Now  func() time.Time // the virtual clock (simclock.Clock.Now)
	Log  *EventLog

	// LagTarget is the per-event lag objective (default 30s).
	LagTarget time.Duration

	Tracker    *engine.Tracker      // lag/backlog/oldest-age source
	LagHist    *telemetry.Histogram // per-destination lag percentiles
	DLQDepth   func() int           // current dead-letter depth
	Divergence func() int64         // cumulative divergence-SLO violations
}

// Health is one rule's current health row.
type Health struct {
	Rule       string  `json:"rule"`
	Dest       string  `json:"dest"`
	State      string  `json:"state"` // worst of the rule's signal states
	LagP50S    float64 `json:"lag_p50_s"`
	LagP99S    float64 `json:"lag_p99_s"`
	Backlog    int     `json:"backlog"`
	OldestAgeS float64 `json:"oldest_age_s"`
	DLQ        int     `json:"dlq"`
	BurnShort  float64 `json:"burn_short"`
	BurnLong   float64 `json:"burn_long"`
	Alerts     int     `json:"alerts"`
}

// Monitor evaluates one rule's SLOs. It never self-schedules on the
// virtual clock (a free-running periodic timer would keep Clock.Quiesce
// from ever draining): the driver calls Poll at its natural loop points
// (the core wires Poll into the engine's OnTaskDone hook, so every
// completed task re-evaluates the rule), and each Poll also refreshes the
// tracker's oldest-age watermark gauge.
type Monitor struct {
	cfg   MonitorConfig
	epoch time.Time

	mu             sync.Mutex
	lagState       string
	dlqState       string
	lastDivergence int64
	alerts         int
}

// NewMonitor returns a monitor for cfg (a zero LagTarget takes the
// default). The epoch for event timestamps is the current virtual instant.
func NewMonitor(cfg MonitorConfig) *Monitor {
	if cfg.LagTarget <= 0 {
		cfg.LagTarget = defaultLagTarget
	}
	return &Monitor{
		cfg:      cfg,
		epoch:    cfg.Now(),
		lagState: StateOK,
		dlqState: StateOK,
	}
}

// AlertCount returns how many warn/page transitions fired so far.
func (m *Monitor) AlertCount() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.alerts
}

// burns computes the short- and long-window burn rates at now. Pending
// events already older than the lag target count as bad in both windows:
// during a fault nothing resolves, and a window over resolved records
// alone would read a clean 100%.
func (m *Monitor) burns(now time.Time) (short, long float64) {
	target := m.cfg.LagTarget
	overdue := m.cfg.Tracker.OverdueCount(now, target)
	budget := 1 - objective
	one := func(win time.Duration) float64 {
		cut := now.Add(-win)
		if cut.Before(m.epoch) {
			cut = m.epoch
		}
		total, bad := m.cfg.Tracker.ResolvedStats(cut, target)
		total += overdue
		bad += overdue
		if total == 0 {
			return 0
		}
		return float64(bad) / float64(total) / budget
	}
	return one(shortWindow), one(longWindow)
}

func burnState(short, long float64) string {
	switch {
	case short >= pageBurn && long >= pageBurn:
		return StatePage
	case short >= warnBurn && long >= warnBurn:
		return StateWarn
	default:
		return StateOK
	}
}

// severityFor maps a state transition to an event severity: entering ok
// is informational (recovery), anything else carries its state.
func severityFor(state string) string {
	if state == StateOK {
		return "info"
	}
	return state
}

// Poll re-evaluates every declared objective at the current virtual
// instant, refreshes the oldest-age watermark, and appends an event to
// the log for each state transition.
func (m *Monitor) Poll() {
	if m == nil {
		return
	}
	now := m.cfg.Now()
	m.cfg.Tracker.SampleWatermarks(now)
	short, long := m.burns(now)

	m.mu.Lock()
	defer m.mu.Unlock()
	at := simclock.ToSeconds(now.Sub(m.epoch))

	if st := burnState(short, long); st != m.lagState {
		m.lagState = st
		var trace string
		if st != StateOK {
			m.alerts++
			// Attach the worst retained lag exemplar so the alert links to
			// a concrete kept trace of the badness being paged on.
			if ex := m.cfg.LagHist.WorstExemplar(); ex != nil {
				trace = ex.TraceID
			}
		}
		m.cfg.Log.Append(Event{
			AtSeconds: at,
			Rule:      m.cfg.Rule,
			Dest:      m.cfg.Dest,
			Kind:      "lag-burn",
			Severity:  severityFor(st),
			State:     st,
			BurnShort: short,
			BurnLong:  long,
			Detail: fmt.Sprintf("lag target %s objective %.4g",
				m.cfg.LagTarget, objective),
			Trace: trace,
		})
	}

	if m.cfg.DLQDepth != nil {
		depth := m.cfg.DLQDepth()
		st := StateOK
		if depth > maxDLQ {
			st = StatePage
		}
		if st != m.dlqState {
			m.dlqState = st
			if st != StateOK {
				m.alerts++
			}
			m.cfg.Log.Append(Event{
				AtSeconds: at,
				Rule:      m.cfg.Rule,
				Dest:      m.cfg.Dest,
				Kind:      "dlq",
				Severity:  severityFor(st),
				State:     st,
				Detail:    fmt.Sprintf("depth %d max %d", depth, maxDLQ),
			})
		}
	}

	if m.cfg.Divergence != nil {
		if v := m.cfg.Divergence(); v > m.lastDivergence {
			m.alerts++
			m.cfg.Log.Append(Event{
				AtSeconds: at,
				Rule:      m.cfg.Rule,
				Dest:      m.cfg.Dest,
				Kind:      "divergence",
				Severity:  StatePage,
				State:     StatePage,
				Detail:    fmt.Sprintf("violations %d (was %d)", v, m.lastDivergence),
			})
			m.lastDivergence = v
		}
	}
}

// Health snapshots the rule's current health row at the virtual instant.
func (m *Monitor) Health() Health {
	if m == nil {
		return Health{}
	}
	now := m.cfg.Now()
	short, long := m.burns(now)
	m.mu.Lock()
	state := m.lagState
	if m.dlqState == StatePage || state == StatePage {
		state = StatePage
	} else if m.dlqState == StateWarn && state == StateOK {
		state = StateWarn
	}
	alerts := m.alerts
	m.mu.Unlock()
	h := Health{
		Rule:       m.cfg.Rule,
		Dest:       m.cfg.Dest,
		State:      state,
		LagP50S:    m.cfg.LagHist.Quantile(0.50),
		LagP99S:    m.cfg.LagHist.Quantile(0.99),
		Backlog:    m.cfg.Tracker.BacklogDepth(),
		OldestAgeS: simclock.ToSeconds(m.cfg.Tracker.OldestPending(now)),
		BurnShort:  short,
		BurnLong:   long,
		Alerts:     alerts,
	}
	if m.cfg.DLQDepth != nil {
		h.DLQ = m.cfg.DLQDepth()
	}
	return h
}
