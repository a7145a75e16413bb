// Package core assembles AReplica's components into a deployed service
// (§4, Figure 10): the offline profiler fits the performance model, the
// strategy planner turns it into SLO-compliant plans, the replication
// engine executes them, the logger keeps the model honest at runtime, and
// the optional changelog store and SLO-bounded batcher cut replication
// cost. Deploy wires one service to a source bucket's notifications.
package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/antientropy"
	"repro/internal/batching"
	"repro/internal/changelog"
	"repro/internal/cloud"
	"repro/internal/engine"
	"repro/internal/fleetobs"
	"repro/internal/logger"
	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/planner"
	"repro/internal/profiler"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/world"
)

// Options configures a deployment.
type Options struct {
	Rule engine.Rule

	// EnableChangelog turns on changelog propagation (§5.4): applications
	// register hints via Service.RegisterChangelog and eligible versions
	// are mirrored without wide-area transfer.
	EnableChangelog bool
	// EnableBatching turns on SLO-bounded batching (§5.4, Algorithm 4);
	// it requires a positive Rule.SLO.
	EnableBatching bool

	// Relays are optional overlay execution regions the planner may pick
	// (§6's extension); they are profiled alongside the rule's own paths.
	Relays []cloud.RegionID

	// EnableScrub attaches an anti-entropy scrubber to the rule. The
	// scrubber is constructed but not started: call Service.Scrubber.Start
	// (periodic loop) or RunUntilClean (driver-paced rounds) once the
	// workload is underway.
	EnableScrub bool
	// ScrubCadence is the interval between scrub rounds (0 derives it from
	// DivergenceSLO, or the package default).
	ScrubCadence time.Duration
	// DivergenceSLO is the declared bound on unrepaired divergence; see
	// antientropy.Config.
	DivergenceSLO time.Duration

	// ProfileRounds overrides the profiler's sampling effort (default 12).
	ProfileRounds int
	// Model, when non-nil, is used (and extended) instead of a fresh
	// model; deployments sharing region pairs share profiling work.
	Model *model.Model

	// OnTaskDone, when set, observes finished tasks in addition to the
	// logger.
	OnTaskDone func(engine.TaskResult)

	// EnableMonitor attaches a fleetobs SLO monitor to the rule. The
	// monitor polls from the engine's OnTaskDone hook (every finished task
	// re-evaluates the rule's burn rates on the virtual clock); drivers
	// with quiet phases should also call Service.Monitor.Poll at their
	// loop points so fault windows where nothing completes still alert.
	EnableMonitor bool
	// LagTarget is the monitored per-event lag objective (default 30s).
	LagTarget time.Duration
	// Events, when non-nil, receives the monitor's structured alert
	// events; several services may share one log.
	Events *fleetobs.EventLog

	// DispatchGate, when set, routes notification-driven dispatches
	// through an external admission gate (the fleet scheduler); see
	// engine.SetDispatchGate. Mutually exclusive with EnableBatching,
	// whose handler dispatches past the engine's gate hook.
	DispatchGate func(ev objstore.Event, run func(done func()))
}

// Service is one deployed replication rule.
type Service struct {
	W       *world.World
	Rule    engine.Rule
	Model   *model.Model
	Planner *planner.Planner
	Engine  *engine.Engine
	Logger  *logger.Logger

	Batcher    *batching.Batcher
	Changelogs *changelog.Store
	Scrubber   *antientropy.Scrubber
	Monitor    *fleetobs.Monitor

	estMu    sync.Mutex
	estCache map[int64]time.Duration
}

// Deploy profiles (if needed), builds, and wires a Service to the source
// bucket's notifications. Buckets must already exist.
func Deploy(w *world.World, opts Options) (*Service, error) {
	rule := opts.Rule.WithDefaults()
	if rule.Src == rule.Dst {
		return nil, fmt.Errorf("core: source and destination regions are both %s", rule.Src)
	}
	if opts.EnableBatching && rule.SLO <= 0 {
		return nil, fmt.Errorf("core: batching requires a positive SLO")
	}
	if opts.EnableBatching && opts.DispatchGate != nil {
		return nil, fmt.Errorf("core: batching and a dispatch gate are mutually exclusive")
	}

	m := opts.Model
	if m == nil {
		m = model.New()
	}
	if rule.ForceN == 0 {
		prof := profiler.New(w)
		if opts.ProfileRounds > 0 {
			prof.Rounds = opts.ProfileRounds
		}
		prof.FitRuleWithRelays(m, rule.Src, rule.Dst, opts.Relays)
	}

	pl := planner.New(m)
	pl.Relays = opts.Relays
	pl.ExecLimitFor = func(loc cloud.RegionID) time.Duration {
		return w.Region(loc).Fn.Config().ExecLimit
	}
	eng := engine.New(w, pl, rule)
	if opts.DispatchGate != nil {
		eng.SetDispatchGate(opts.DispatchGate)
	}
	lg := logger.New(m, rule.Src, rule.Dst)
	userHook := opts.OnTaskDone

	s := &Service{
		W: w, Rule: rule, Model: m, Planner: pl, Engine: eng, Logger: lg,
		estCache: make(map[int64]time.Duration),
	}
	eng.OnTaskDone = func(r engine.TaskResult) {
		lg.Observe(r)
		if userHook != nil {
			userHook(r)
		}
		// Every completed task re-evaluates the rule's SLOs at the task's
		// virtual completion instant (the tracker resolves before the
		// engine reports, so this poll sees the fresh lag record).
		s.Monitor.Poll()
	}

	if opts.EnableChangelog {
		s.Changelogs = changelog.NewStore(w.Region(rule.Src).KV)
		applier := &changelog.Applier{
			Dst: w.Region(rule.Dst).Obj, DstBucket: rule.DstBucket,
			Origin: engine.OriginFor(rule.Src, rule.SrcBucket, rule.Dst, rule.DstBucket),
		}
		eng.TryChangelog = func(sp *telemetry.Span, key, etag string) bool {
			log, ok := s.Changelogs.Lookup(key, etag)
			if !ok {
				return false
			}
			// The changelog hint propagates piggybacked on its own
			// notification copy (§5.4), so the notify-flaky chaos rates
			// apply to it too: a dropped hint is a lookup miss (the caller
			// falls back to full replication), and a duplicated one delivers
			// — and applies — a second time, which Applier.Apply's
			// idempotence guard must turn into a no-op.
			v := w.Chaos.NotifyChangelog(string(rule.Src))
			if v.Drop {
				sp.Set("op", string(log.Op)).Set("chaos-dropped", true)
				return false
			}
			applied := applier.Apply(log)
			sp.Set("op", string(log.Op)).Set("applied", applied)
			if applied && v.Duplicate {
				w.Clock.Delay(v.DupExtra, func() { applier.Apply(log) })
			}
			return applied
		}
	}
	if opts.EnableScrub {
		s.Scrubber = antientropy.New(eng, antientropy.Config{
			Cadence:       opts.ScrubCadence,
			DivergenceSLO: opts.DivergenceSLO,
		})
	}
	if opts.EnableMonitor {
		mc := fleetobs.MonitorConfig{
			Rule:      eng.RuleID(),
			Dest:      string(rule.Dst),
			Now:       w.Clock.Now,
			LagTarget: opts.LagTarget,
			Log:       opts.Events,
			Tracker:   eng.Tracker,
			LagHist:   eng.LagHistogram(),
			DLQDepth:  func() int { return len(eng.DLQ()) },
		}
		if s.Scrubber != nil {
			mc.Divergence = s.Scrubber.SLOViolationCount
		}
		s.Monitor = fleetobs.NewMonitor(mc)
	}

	handler := eng.HandleEvent
	if opts.EnableBatching {
		head := func(key string) (objstore.Meta, error) {
			return w.Region(rule.Src).Obj.Head(rule.SrcBucket, key)
		}
		s.Batcher = batching.New(w.Clock, rule.SLO, s.estimate, head, eng.Dispatch)
		// Delayed tasks run on the source region's serverless workflow
		// service (§7), so their Wait states are billed.
		s.Batcher.SetDelayer(w.Region(rule.Src).Wf.Delay)
		handler = func(ev objstore.Event) {
			// Same filters as Engine.HandleEvent: key prefix, plus the
			// origin loop-breaker so a sibling rule's replica writes in an
			// active-active pair never feed back through the batcher.
			if !eng.Matches(ev.Key) || !eng.AcceptsOrigin(ev.Origin) {
				return
			}
			// Every source version is registered for delay accounting even
			// if batching later coalesces it away; duplicate deliveries
			// (at-least-once notifications) are dropped here.
			if !eng.Tracker.OnSource(ev) {
				return
			}
			s.Batcher.Submit(ev)
		}
	}
	if err := w.Region(rule.Src).Obj.Subscribe(rule.SrcBucket, handler); err != nil {
		return nil, fmt.Errorf("core: subscribing to %s/%s: %w", rule.Src, rule.SrcBucket, err)
	}
	return s, nil
}

// estimate predicts the fastest replication time for a size (the T_rep
// term of Algorithm 4), cached per chunk count.
func (s *Service) estimate(size int64) time.Duration {
	chunks := s.Model.Chunks(size)
	s.estMu.Lock()
	if d, ok := s.estCache[chunks]; ok {
		s.estMu.Unlock()
		return d
	}
	s.estMu.Unlock()
	p, err := s.Planner.PlanWith(s.Rule.Src, s.Rule.Dst, size, 0, s.Rule.Percentile, s.Engine.PlanOpts())
	d := 5 * time.Second
	if err == nil {
		d = simclock.Seconds(p.EstSeconds)
	}
	s.estMu.Lock()
	s.estCache[chunks] = d
	s.estMu.Unlock()
	return d
}

// RegisterChangelog records a changelog hint for an upcoming or just-made
// PUT (requires EnableChangelog).
func (s *Service) RegisterChangelog(l changelog.Log) error {
	if s.Changelogs == nil {
		return fmt.Errorf("core: changelog propagation is not enabled")
	}
	return s.Changelogs.Register(l)
}

// Tracker exposes the engine's delay records.
func (s *Service) Tracker() *engine.Tracker { return s.Engine.Tracker }
