package fleetobs

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// SLO declares one rule's objectives. The lag objective is RTC-style:
// a fraction Objective of source events must be durable on the replica
// within LagTarget. Burn rate is the error-budget spend speed (1.0 =
// exactly on budget); alerts fire only when both the short and the long
// window burn, so a single slow object cannot page while a sustained
// fault still pages within ShortWindow.
type SLO struct {
	LagTarget   time.Duration // lag objective per event (default 30s)
	Objective   float64       // in-target fraction, in (0,1) (default 0.99)
	ShortWindow time.Duration // fast burn window (default 1m)
	LongWindow  time.Duration // slow burn window (default 5m)
	WarnBurn    float64       // warn when both windows burn >= this (default 2)
	PageBurn    float64       // page when both windows burn >= this (default 10)
	MaxDLQ      int           // page when DLQ depth exceeds this (default 0)
}

// WithDefaults fills zero fields with the defaults above.
func (s SLO) WithDefaults() SLO {
	if s.LagTarget <= 0 {
		s.LagTarget = 30 * time.Second
	}
	if s.Objective <= 0 || s.Objective >= 1 {
		s.Objective = 0.99
	}
	if s.ShortWindow <= 0 {
		s.ShortWindow = time.Minute
	}
	if s.LongWindow <= 0 {
		s.LongWindow = 5 * time.Minute
	}
	if s.WarnBurn <= 0 {
		s.WarnBurn = 2
	}
	if s.PageBurn <= 0 {
		s.PageBurn = 10
	}
	return s
}

// MonitorConfig wires one rule's monitor to its signal sources. Tracker
// and Now are required; the rest are optional.
type MonitorConfig struct {
	Rule string
	Dest string
	Now  func() time.Time // the virtual clock (simclock.Clock.Now)
	SLO  SLO
	Log  *EventLog

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

// NewMonitor returns a monitor with cfg's SLO defaults applied. The
// epoch for event timestamps is the current virtual instant.
func NewMonitor(cfg MonitorConfig) *Monitor {
	cfg.SLO = cfg.SLO.WithDefaults()
	return &Monitor{
		cfg:      cfg,
		epoch:    cfg.Now(),
		lagState: StateOK,
		dlqState: StateOK,
	}
}

// SLO returns the effective (defaulted) objectives.
func (m *Monitor) SLO() SLO { return m.cfg.SLO }

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
	slo := m.cfg.SLO
	overdue := m.cfg.Tracker.OverdueCount(now, slo.LagTarget)
	budget := 1 - slo.Objective
	one := func(win time.Duration) float64 {
		cut := now.Add(-win)
		if cut.Before(m.epoch) {
			cut = m.epoch
		}
		total, bad := m.cfg.Tracker.ResolvedStats(cut, slo.LagTarget)
		total += overdue
		bad += overdue
		if total == 0 {
			return 0
		}
		return float64(bad) / float64(total) / budget
	}
	return one(slo.ShortWindow), one(slo.LongWindow)
}

func burnState(short, long float64, slo SLO) string {
	switch {
	case short >= slo.PageBurn && long >= slo.PageBurn:
		return StatePage
	case short >= slo.WarnBurn && long >= slo.WarnBurn:
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
	slo := m.cfg.SLO

	m.mu.Lock()
	defer m.mu.Unlock()
	at := simclock.ToSeconds(now.Sub(m.epoch))

	if st := burnState(short, long, slo); st != m.lagState {
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
				slo.LagTarget, slo.Objective),
			Trace: trace,
		})
	}

	if m.cfg.DLQDepth != nil {
		depth := m.cfg.DLQDepth()
		st := StateOK
		if depth > slo.MaxDLQ {
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
				Detail:    fmt.Sprintf("depth %d max %d", depth, slo.MaxDLQ),
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
