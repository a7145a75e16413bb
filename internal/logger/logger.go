// Package logger implements AReplica's runtime logger (§4): it tracks the
// replication time of completed tasks against the performance model's
// predictions and, when a significant deviation persists, refreshes the
// model's path parameters, which the next prediction reads, so the model
// stays accurate as inter-region transfer rates drift.
package logger

import (
	"math"
	"sync"

	"repro/internal/cloud"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/telemetry"
)

// The logger's sensitivity.
const (
	// alpha is the EWMA smoothing factor of the actual/predicted ratio.
	alpha = 0.3
	// threshold is the relative deviation that, once persistent, triggers
	// a parameter refresh.
	threshold = 0.25
	// minSamples is how many observations a deviation must persist for.
	minSamples = 8
)

// Stats is a snapshot of logger activity counters.
type Stats struct {
	Observed  int64
	Refreshes int64
}

// Logger observes finished tasks for one replication rule.
type Logger struct {
	M        *model.Model
	Src, Dst cloud.RegionID

	mu    sync.Mutex
	state map[cloud.RegionID]*ewma

	observed  telemetry.Counter
	refreshes telemetry.Counter
}

type ewma struct {
	ratio  float64
	streak int // consecutive observations deviating beyond threshold
}

// New returns a Logger for the rule src→dst that refreshes m's paths.
func New(m *model.Model, src, dst cloud.RegionID) *Logger {
	return &Logger{M: m, Src: src, Dst: dst, state: make(map[cloud.RegionID]*ewma)}
}

// Stats returns a snapshot of the logger's counters.
func (lg *Logger) Stats() Stats {
	return Stats{Observed: lg.observed.Value(), Refreshes: lg.refreshes.Value()}
}

// Observe ingests one finished task. Hook it to engine.OnTaskDone.
func (lg *Logger) Observe(res engine.TaskResult) {
	if !res.OK || res.Changelog || res.Plan.EstMean <= 0 {
		return
	}
	actual := res.ExecSeconds()
	if actual <= 0 {
		return
	}
	ratio := actual / res.Plan.EstMean

	lg.observed.Inc()
	lg.mu.Lock()
	st, ok := lg.state[res.Plan.Loc]
	if !ok {
		st = &ewma{ratio: 1}
		lg.state[res.Plan.Loc] = st
	}
	st.ratio = alpha*ratio + (1-alpha)*st.ratio
	// A refresh needs the deviation to be *persistent*: minSamples
	// consecutive tasks beyond the threshold. Isolated spikes reset the
	// streak and are absorbed by the EWMA.
	if math.Abs(ratio-1) > threshold {
		st.streak++
	} else {
		st.streak = 0
	}
	deviated := st.streak >= minSamples && math.Abs(st.ratio-1) > threshold
	var correction float64
	if deviated {
		correction = st.ratio
		st.ratio = 1
		st.streak = 0
		lg.refreshes.Inc()
	}
	lg.mu.Unlock()

	if deviated {
		lg.refresh(res.Plan.Loc, correction)
	}
}

// refresh scales the path's transfer parameters by the observed ratio —
// the "periodically updates the parameters" loop of §4.
func (lg *Logger) refresh(loc cloud.RegionID, ratio float64) {
	key := model.PathKey{Src: lg.Src, Dst: lg.Dst, Loc: loc}
	pp, ok := lg.M.Path(key)
	if !ok {
		return
	}
	pp.C = pp.C.Scale(ratio)
	pp.Cp = pp.Cp.Scale(ratio)
	pp.S = pp.S.Scale(ratio)
	lg.M.SetPath(key, pp)
}
