// Package faas simulates a serverless function platform (AWS Lambda,
// Azure Functions, Google Cloud Run Functions) on the virtual clock. It
// models the paper's function-startup decomposition (§5.3):
//
//	T_func = I·n + D + P
//
// where I is the per-call async invocation API latency paid serially by
// the invoker, D is instance startup delay (skipped on warm starts), and P
// is the platform scheduler's postponement when new instances must be
// added (Cloud Run's scheduler runs in ~5 s rounds; Azure behaves
// similarly). Each instance carries a persistent bandwidth multiplier
// drawn from the platform's lognormal (netsim), producing the >2x
// inter-instance spread of Figure 9. Execution is billed per GB-second
// plus a per-invocation fee.
package faas

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/simclock"
	"repro/internal/simrand"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Config describes a deployed function's runtime characteristics.
type Config struct {
	MemMB          int           // configured memory
	VCPU           float64       // configured vCPUs (GCP only; 0 = platform default)
	InvokeLatency  stats.Normal  // I: async invoke API call, seconds
	ColdStart      stats.Normal  // D: instance startup, seconds
	SchedulerRound time.Duration // P granularity; 0 means no postponement
	ExecLimit      time.Duration // hard execution time limit
	MaxConcurrency int           // account-level concurrent instance limit
	KeepWarm       time.Duration // idle window before an instance is reaped
}

// DefaultConfig returns the calibrated configuration the paper's
// evaluation uses for each platform (§8 Setup).
func DefaultConfig(p cloud.Provider) Config {
	switch p {
	case cloud.AWS:
		return Config{
			MemMB:          1024,
			InvokeLatency:  stats.N(0.008, 0.002),
			ColdStart:      stats.N(0.25, 0.08),
			SchedulerRound: 0,
			ExecLimit:      15 * time.Minute,
			MaxConcurrency: 1000,
			KeepWarm:       10 * time.Minute,
		}
	case cloud.Azure:
		return Config{
			MemMB:          2048,
			InvokeLatency:  stats.N(0.012, 0.004),
			ColdStart:      stats.N(0.60, 0.20),
			SchedulerRound: 5 * time.Second,
			ExecLimit:      10 * time.Minute,
			MaxConcurrency: 1000,
			KeepWarm:       10 * time.Minute,
		}
	case cloud.GCP:
		return Config{
			MemMB:          1024,
			VCPU:           1,
			InvokeLatency:  stats.N(0.010, 0.003),
			ColdStart:      stats.N(0.45, 0.15),
			SchedulerRound: 5 * time.Second,
			ExecLimit:      60 * time.Minute,
			MaxConcurrency: 1000,
			KeepWarm:       15 * time.Minute,
		}
	}
	return Config{MemMB: 1024, InvokeLatency: stats.N(0.01, 0.003), ColdStart: stats.N(0.4, 0.1),
		ExecLimit: 15 * time.Minute, MaxConcurrency: 1000, KeepWarm: 10 * time.Minute}
}

// Stats is a snapshot of platform activity counters.
type Stats struct {
	Invocations   int64
	ColdStarts    int64
	WarmStarts    int64
	Timeouts      int64
	Crashes       int64 // instances that stopped mid-execution (chaos)
	MaxConcurrent int
}

// Instance is one function instance. Its bandwidth multiplier persists
// across warm reuses, so a slow instance stays slow (Figure 9).
type Instance struct {
	ID     string
	BwMult float64

	idleSince time.Time

	// pathFactors memoises netsim.PathInstanceFactor per remote provider:
	// a pure function of (instance, exec provider, remote provider), asked
	// for on every transfer leg.
	pathMu      sync.Mutex
	pathFactors map[cloud.Provider]float64
}

// Ctx is the execution context handed to a function handler.
type Ctx struct {
	Instance *Instance
	Region   cloud.Region
	Config   Config
	Started  time.Time
	Clock    *simclock.Clock
	// Span is the instance's execution span when the invocation carried
	// trace context (nil otherwise; all Span methods no-op on nil).
	Span *telemetry.Span

	// crashAt, when hasCrash is set, is the virtual instant this instance
	// stops making progress (chaos instance crash). Handlers poll Alive at
	// loop boundaries; the platform refuses to warm-pool a crashed instance.
	crashAt  time.Time
	hasCrash bool
}

// Alive reports whether the instance is still making progress. A handler
// that observes false must abandon its work and return — the real-world
// analogue is the instance simply ceasing to exist mid-execution, with the
// platform's retry (or the caller's) picking up the pieces.
func (c *Ctx) Alive() bool {
	return !c.hasCrash || c.Clock.Now().Before(c.crashAt)
}

// Kill crashes the instance at the current virtual instant: Alive turns
// false immediately, billing stops here, and the instance never returns to
// the warm pool. Crash-point injection uses it to stop an instance at an
// exact step of a handler's state machine, where the probabilistic FnCrash
// draw could only land nearby.
func (c *Ctx) Kill() {
	if c.hasCrash && c.crashAt.Before(c.Clock.Now()) {
		return // already dead at an earlier instant
	}
	c.hasCrash = true
	c.crashAt = c.Clock.Now()
}

// BandwidthScale returns the instance's end-to-end bandwidth factor:
// per-instance multiplier times the configuration scale.
func (c *Ctx) BandwidthScale() float64 {
	return c.Instance.BwMult * netsim.ConfigScale(c.Region.Provider, c.Config.MemMB, c.Config.VCPU)
}

// BandwidthScaleFor is BandwidthScale with the per-instance path factor
// toward a remote provider folded in; use it for a specific transfer leg.
func (c *Ctx) BandwidthScaleFor(remote cloud.Provider) float64 {
	in := c.Instance
	in.pathMu.Lock()
	f, ok := in.pathFactors[remote]
	if !ok {
		if in.pathFactors == nil {
			in.pathFactors = make(map[cloud.Provider]float64, 2)
		}
		f = netsim.PathInstanceFactor(in.ID, c.Region.Provider, remote)
		in.pathFactors[remote] = f
	}
	in.pathMu.Unlock()
	return c.BandwidthScale() * f
}

// Platform is one region's function service.
type Platform struct {
	clock  *simclock.Clock
	region cloud.Region
	meter  *pricing.Meter
	net    *netsim.Net
	cfg    Config

	mu      sync.Mutex
	rng     *rand.Rand
	chaos   *chaos.Injector
	quota   Quota
	warm    []*Instance
	running int
	nextID  int

	invocations   telemetry.Counter
	coldStarts    telemetry.Counter
	warmStarts    telemetry.Counter
	timeouts      telemetry.Counter
	crashes       telemetry.Counter
	maxConcurrent telemetry.Gauge

	// Optional run-wide registry instruments (nil no-ops until
	// SetTelemetry). Counters, the running gauge and the exec histogram
	// are {provider,region}-labelled family children rolling up into the
	// cross-region aggregate.
	regInvocations *telemetry.Counter
	regColdStarts  *telemetry.Counter
	regWarmStarts  *telemetry.Counter
	regTimeouts    *telemetry.Counter
	regCrashes     *telemetry.Counter
	regRunning     *telemetry.Gauge
	invokeHist     *telemetry.Histogram
	startupHist    *telemetry.Histogram
	postponeHist   *telemetry.Histogram
	execHist       *telemetry.Histogram
}

// New returns a Platform in region with the given configuration, billing
// to meter and drawing instance multipliers from net.
func New(clock *simclock.Clock, region cloud.Region, net *netsim.Net, meter *pricing.Meter, cfg Config) *Platform {
	return &Platform{
		clock:  clock,
		region: region,
		meter:  meter,
		net:    net,
		cfg:    cfg,
		rng:    simrand.New("faas", string(region.ID())),
	}
}

// Region returns the platform's region.
func (p *Platform) Region() cloud.Region { return p.region }

// Config returns the platform's function configuration.
func (p *Platform) Config() Config { return p.cfg }

// FlushWarm discards all warm instances, forcing the next invocations to
// cold-start. The profiler uses it to sample cold-start delays.
func (p *Platform) FlushWarm() {
	p.mu.Lock()
	p.warm = nil
	p.mu.Unlock()
}

// Stats returns a snapshot of activity counters.
func (p *Platform) Stats() Stats {
	return Stats{
		Invocations:   p.invocations.Value(),
		ColdStarts:    p.coldStarts.Value(),
		WarmStarts:    p.warmStarts.Value(),
		Timeouts:      p.timeouts.Value(),
		Crashes:       p.crashes.Value(),
		MaxConcurrent: int(p.maxConcurrent.Value()),
	}
}

// SetChaos points the platform at an armed chaos injector (nil disables).
func (p *Platform) SetChaos(ij *chaos.Injector) {
	p.mu.Lock()
	p.chaos = ij
	p.mu.Unlock()
}

// Quota is an account-level admission gate shared across platforms — the
// fleet control plane's per-(provider,region) concurrency ledger. Acquire
// blocks (in virtual time) until the shared account grants an instance
// slot; Release returns it. The gate sits outside the platform's own
// MaxConcurrency bound, and the slot is released even when the instance
// crashes mid-run.
type Quota interface {
	Acquire()
	Release()
}

// SetQuota installs a shared account-concurrency gate (nil removes it).
func (p *Platform) SetQuota(q Quota) {
	p.mu.Lock()
	p.quota = q
	p.mu.Unlock()
}

// quotaGate returns the installed gate (nil-safe).
func (p *Platform) quotaGate() Quota {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.quota
}

// injector returns the armed injector (nil-safe).
func (p *Platform) injector() *chaos.Injector {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.chaos
}

// SetTelemetry mirrors the platform's activity into run-wide registry
// instruments (counters aggregate across regions; histograms collect the
// paper's I, D and P latency components plus execution time).
func (p *Platform) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	dims := []telemetry.Label{
		telemetry.L("provider", string(p.region.Provider)),
		telemetry.L("region", string(p.region.ID())),
	}
	p.regInvocations = reg.CounterVec("faas.invocations").With(dims...)
	p.regColdStarts = reg.CounterVec("faas.cold_starts").With(dims...)
	p.regWarmStarts = reg.CounterVec("faas.warm_starts").With(dims...)
	p.regTimeouts = reg.CounterVec("faas.timeouts").With(dims...)
	p.regCrashes = reg.CounterVec("faas.crashes").With(dims...)
	p.regRunning = reg.GaugeVec("faas.running").With(dims...)
	p.invokeHist = reg.Histogram("faas.invoke.seconds")
	p.startupHist = reg.Histogram("faas.startup.seconds")
	p.postponeHist = reg.Histogram("faas.postpone.seconds")
	p.execHist = reg.HistogramVec("faas.exec.seconds").With(dims...)
}

// draw samples d with the platform's private rng, clamped at lo.
func (p *Platform) draw(d stats.Normal, lo float64) float64 {
	p.mu.Lock()
	v := d.Sample(p.rng)
	p.mu.Unlock()
	if v < lo {
		v = lo
	}
	return v
}

// acquire reserves capacity and returns a warm instance, or a fresh cold
// one. It blocks (in virtual time) while the account concurrency limit is
// saturated.
func (p *Platform) acquire() (inst *Instance, cold bool) {
	// Shared account gate first: the fleet-level ledger admits before the
	// platform's own concurrency bound is consulted, so one rule's burst
	// queues here for everyone sharing the (provider,region) lane.
	if q := p.quotaGate(); q != nil {
		q.Acquire()
	}
	for {
		p.mu.Lock()
		if p.running < p.cfg.MaxConcurrency {
			p.running++
			p.regRunning.Add(1)
			p.maxConcurrent.SetMax(int64(p.running))
			now := p.clock.Now()
			// Reap expired warm instances, then reuse the freshest. release
			// appends with idleSince = now, so idleSince never decreases along
			// p.warm and the expired instances are a prefix.
			k := 0
			for k < len(p.warm) && now.Sub(p.warm[k].idleSince) > p.cfg.KeepWarm {
				k++
			}
			clear(p.warm[:k])
			p.warm = p.warm[k:]
			if n := len(p.warm); n > 0 {
				inst = p.warm[n-1]
				p.warm = p.warm[:n-1]
				// Cold-start storm: the platform reclaimed the warm instance
				// under us, so this invocation cold-starts after all.
				if p.chaos.FnColdStorm(string(p.region.ID())) {
					inst = nil
				} else {
					p.mu.Unlock()
					p.warmStarts.Inc()
					p.regWarmStarts.Inc()
					return inst, false
				}
			}
			p.nextID++
			id := fmt.Sprintf("%s/fn-%d", p.region.ID(), p.nextID)
			mult := p.net.InstanceMultiplier(p.region.Provider).Sample(p.rng)
			// Straggler: a fraction of fresh instances land on degraded hosts
			// whose bandwidth collapses for their entire lifetime.
			mult *= p.chaos.FnStraggler(string(p.region.ID()))
			p.mu.Unlock()
			p.coldStarts.Inc()
			p.regColdStarts.Inc()
			return &Instance{ID: id, BwMult: mult}, true
		}
		p.mu.Unlock()
		p.clock.Sleep(50 * time.Millisecond) // throttled: retry as capacity frees
	}
}

func (p *Platform) release(inst *Instance) {
	p.mu.Lock()
	p.running--
	p.regRunning.Add(-1)
	inst.idleSince = p.clock.Now()
	p.warm = append(p.warm, inst)
	p.mu.Unlock()
	if q := p.quotaGate(); q != nil {
		q.Release()
	}
}

// Invoke launches n asynchronous executions of handler. The caller (an
// orchestrator actor) pays the serial invocation API latency I per call;
// each execution then starts after its startup delay and runs as its own
// actor. Invoke returns after the API calls complete, not after the
// executions finish.
//
// When the wave needs cold instances on a platform with a scheduler round,
// one postponement P ~ U(0, round) is drawn for the wave, matching the
// batching behaviour of Cloud Run's (and Azure's) instance scheduler.
func (p *Platform) Invoke(n int, handler func(*Ctx)) {
	p.InvokeSpan(nil, n, handler)
}

// InvokeSpan is Invoke with trace context: each invocation API call
// becomes an "invoke" child of parent (annotated with the drawn I), and
// each execution runs on its own lane as an "fn:<instance>" span with
// "queued" (concurrency throttling) and "startup" (D + P, broken out as
// annotations) children. A nil parent traces nothing.
func (p *Platform) InvokeSpan(parent *telemetry.Span, n int, handler func(*Ctx)) {
	if n <= 0 {
		return
	}
	book := pricing.BookFor(p.region.Provider)

	// One scheduler postponement per invocation wave, applied to cold starts.
	var postpone time.Duration
	if p.cfg.SchedulerRound > 0 {
		p.mu.Lock()
		needCold := len(p.warm) < n
		if needCold {
			postpone = simclock.Scale(p.cfg.SchedulerRound, p.rng.Float64())
		}
		p.mu.Unlock()
	}

	for i := 0; i < n; i++ {
		iv := parent.Child("invoke")
		iSec := p.draw(p.cfg.InvokeLatency, 0.001)
		p.clock.Sleep(simclock.Seconds(iSec))
		iv.Set("i_s", iSec)
		iv.End()
		p.invokeHist.Observe(iSec)
		p.meter.Add("fn:invoke", book.FnInvocation)
		p.invocations.Inc()
		p.regInvocations.Inc()
		p.clock.Go(func() {
			launched := p.clock.Now()
			inst, cold := p.acquire()
			acquired := p.clock.Now()
			var startup float64
			if cold {
				startup = p.draw(p.cfg.ColdStart, 0.02)
				p.clock.Sleep(simclock.Seconds(startup) + postpone)
				p.startupHist.Observe(startup)
				p.postponeHist.Observe(postpone.Seconds())
			}
			sp := parent.ForkAt("fn:"+inst.ID, launched)
			if acquired.After(launched) {
				sp.ChildAt("queued", launched).EndAt(acquired)
			}
			if cold {
				sp.ChildAt("startup", acquired).
					Set("d_s", startup).
					SetSeconds("p_s", postpone).
					EndAt(p.clock.Now())
			}
			sp.Set("cold", cold)
			p.run(inst, handler, book, sp)
		})
	}
}

// run executes handler on inst, enforcing the execution limit and billing.
// Chaos may have doomed the instance to crash partway through: the crash
// instant is drawn up front, the handler observes it through Ctx.Alive,
// and a crashed instance is billed only up to the crash and never returns
// to the warm pool.
func (p *Platform) run(inst *Instance, handler func(*Ctx), book pricing.Book, sp *telemetry.Span) {
	start := p.clock.Now()
	ctx := &Ctx{Instance: inst, Region: p.region, Config: p.cfg, Started: start, Clock: p.clock, Span: sp}
	if after, crashed := p.injector().FnCrash(string(p.region.ID())); crashed {
		ctx.hasCrash = true
		ctx.crashAt = start.Add(after)
	}
	handler(ctx)
	dur := p.clock.Since(start)
	crashed := ctx.hasCrash && !p.clock.Now().Before(ctx.crashAt)
	if crashed {
		if d := ctx.crashAt.Sub(start); d < dur {
			dur = d
		}
		p.crashes.Inc()
		p.regCrashes.Inc()
		sp.Set("crashed", true)
	}
	if dur > p.cfg.ExecLimit {
		// The simulator cannot preempt a handler; account the overrun as a
		// timeout and bill only up to the limit, as the platform would.
		p.timeouts.Inc()
		p.regTimeouts.Inc()
		sp.Set("timeout", true)
		dur = p.cfg.ExecLimit
	}
	p.execHist.Observe(dur.Seconds())
	p.meter.Add("fn:compute", pricing.FnComputeCost(p.region.Provider, float64(p.cfg.MemMB)/1024, dur))
	if crashed {
		// The instance is gone; free its concurrency slot but do not warm-pool it.
		p.mu.Lock()
		p.running--
		p.regRunning.Add(-1)
		p.mu.Unlock()
		// The shared account slot frees too — a crashed instance must not
		// leak fleet quota, or the lane's ledger drifts toward deadlock.
		if q := p.quotaGate(); q != nil {
			q.Release()
		}
	} else {
		p.release(inst)
	}
	sp.SetSeconds("exec_s", dur)
	sp.End()
}
