// Package world assembles the simulated multi-cloud environment: for each
// of the 13 evaluated regions it deploys an object store, a serverless KV
// database and a function platform, all sharing one virtual clock, one
// network model and one cost meter. Replication systems (AReplica and the
// baselines) and experiments are built against a World.
package world

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/faas"
	"repro/internal/kvstore"
	"repro/internal/netsim"
	"repro/internal/objstore"
	"repro/internal/pricing"
	"repro/internal/simclock"
	"repro/internal/simrand"
	"repro/internal/telemetry"
	"repro/internal/workflow"
)

// Services bundles one region's cloud services.
type Services struct {
	Region cloud.Region
	Obj    *objstore.Store
	KV     *kvstore.Store
	Fn     *faas.Platform
	Wf     *workflow.Service
}

// World is the simulated three-cloud environment.
type World struct {
	Clock *simclock.Clock
	Net   *netsim.Net
	Meter *pricing.Meter

	// Tracer collects per-task spans on the virtual clock (disabled until
	// Tracer.Enable); Metrics is the run-wide instrument registry every
	// service reports into.
	Tracer  *telemetry.Tracer
	Metrics *telemetry.Registry

	// Chaos is the armed fault injector (nil until SetChaos; nil injects
	// nothing). Every substrate consults it at operation boundaries.
	Chaos *chaos.Injector

	regions map[cloud.RegionID]*Services
}

// Epoch is the default simulation start time.
var Epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// New builds a world containing every registered region, with each
// platform at its default (paper §8) function configuration.
//
// New must be called from the goroutine that will drive the simulation
// (it creates the virtual clock).
func New() *World {
	clk := simclock.New(Epoch)
	w := &World{
		Clock:   clk,
		Net:     netsim.New(),
		Meter:   pricing.NewMeter(),
		Tracer:  telemetry.NewTracer(clk.Now),
		Metrics: telemetry.NewRegistry(),
		regions: make(map[cloud.RegionID]*Services),
	}
	for _, r := range cloud.AllRegions() {
		s := &Services{
			Region: r,
			Obj:    objstore.New(clk, r, w.Meter),
			KV:     kvstore.New(clk, r, w.Meter),
			Fn:     faas.New(clk, r, w.Net, w.Meter, faas.DefaultConfig(r.Provider)),
			Wf:     workflow.New(clk, r, w.Meter),
		}
		s.Obj.SetTelemetry(w.Metrics)
		s.KV.SetTelemetry(w.Metrics)
		s.Fn.SetTelemetry(w.Metrics)
		w.regions[r.ID()] = s
	}
	return w
}

// Region returns one region's services; it panics on unknown regions,
// which indicates a programming error.
func (w *World) Region(id cloud.RegionID) *Services {
	s, ok := w.regions[id]
	if !ok {
		panic(fmt.Sprintf("world: unknown region %q", id))
	}
	return s
}

// SetFnConfig redeploys one region's function platform with cfg
// (experiments that sweep memory/CPU configurations use this).
func (w *World) SetFnConfig(id cloud.RegionID, cfg faas.Config) {
	s := w.Region(id)
	s.Fn = faas.New(w.Clock, s.Region, w.Net, w.Meter, cfg)
	s.Fn.SetTelemetry(w.Metrics)
	s.Fn.SetChaos(w.Chaos)
}

// SetChaos arms fault profile p across the whole world: every region's
// object store, KV store and function platform consults the returned
// injector, as do inter-region transfer legs (partitions, degradation).
// Partition windows start counting from the arming moment, so arm after
// deployment/profiling to keep model fitting clean. Arming a zero Profile
// disarms chaos.
func (w *World) SetChaos(p chaos.Profile) *chaos.Injector {
	var ij *chaos.Injector
	if p.Enabled() {
		ij = chaos.NewInjector(w.Clock, p, w.Metrics)
	}
	w.Chaos = ij
	for _, s := range w.regions {
		s.Obj.SetChaos(ij)
		s.KV.SetChaos(ij)
		s.Fn.SetChaos(ij)
	}
	return ij
}

// MoveBytes simulates one transfer leg of bytes from region `from` to
// region `to`, executed by a function on platform `exec` whose combined
// bandwidth scale (instance multiplier x configuration) is bwScale. The
// calling actor sleeps for the transfer duration; cross-region legs accrue
// egress cost at the sending provider's rate. It returns the leg duration.
func (w *World) MoveBytes(from, to cloud.Region, exec cloud.Provider, bytes int64, bwScale float64, rng *rand.Rand) time.Duration {
	return w.MoveBytesSpan(nil, "", from, to, exec, bytes, bwScale, rng)
}

// MoveBytesSpan is MoveBytes with trace context: the leg becomes a child
// span of parent named name ("leg-down"/"leg-up"), annotated with
// endpoints, bytes moved and the achieved bandwidth.
func (w *World) MoveBytesSpan(parent *telemetry.Span, name string, from, to cloud.Region, exec cloud.Provider, bytes int64, bwScale float64, rng *rand.Rand) time.Duration {
	mbps := w.Net.FuncLegMBps(from, to, exec).Sample(rng) * bwScale
	if mbps < 0.5 {
		mbps = 0.5
	}
	sp := parent.Child(name)
	fromID, toID := from.ID(), to.ID()
	stall, netScale := w.Chaos.Net(string(fromID), string(toID), string(from.Provider), string(to.Provider))
	if stall > 0 {
		// An active inter-region partition: the transfer makes no progress
		// until the window lifts (TCP stalls rather than erroring out).
		ps := sp.Child("partition-stall")
		w.Clock.Sleep(stall)
		ps.End()
		w.Metrics.Histogram("net.partition.stall.seconds").Observe(simclock.ToSeconds(stall))
	}
	if netScale < 1 {
		mbps *= netScale
		if mbps < 0.5 {
			mbps = 0.5
		}
		sp.Set("degraded", netScale)
	}
	d := netsim.TransferTime(bytes, mbps)
	w.Clock.Sleep(d)
	if sp != nil { // boxing the attributes costs allocations even when Set drops them
		sp.Set("from", string(fromID)).Set("to", string(toID)).
			Set("bytes", bytes).Set("mbps", mbps)
		sp.End()
	}
	w.Metrics.Histogram("net.leg.seconds").Observe(simclock.ToSeconds(d))
	w.Metrics.Counter("net.leg.bytes").Add(bytes)
	if fromID != toID {
		w.Meter.Add("net:egress", pricing.EgressCost(from, to, bytes))
	}
	return d
}

// MoveBytesVM is MoveBytes for a VM data plane (Skyplane's overlay hop).
func (w *World) MoveBytesVM(from, to cloud.Region, bytes int64, rng *rand.Rand) time.Duration {
	mbps := w.Net.VMLegMBps(from, to).Sample(rng)
	if mbps < 1 {
		mbps = 1
	}
	stall, netScale := w.Chaos.Net(string(from.ID()), string(to.ID()),
		string(from.Provider), string(to.Provider))
	if stall > 0 {
		w.Clock.Sleep(stall)
	}
	if netScale < 1 {
		mbps *= netScale
		if mbps < 1 {
			mbps = 1
		}
	}
	d := netsim.TransferTime(bytes, mbps)
	w.Clock.Sleep(d)
	w.Metrics.Histogram("net.vmleg.seconds").Observe(simclock.ToSeconds(d))
	w.Metrics.Counter("net.vmleg.bytes").Add(bytes)
	if from.ID() != to.ID() {
		w.Meter.Add("net:egress", pricing.EgressCost(from, to, bytes))
	}
	return d
}

// SetupSleep makes the calling actor pay the client-setup overhead S of a
// (from→to) path once, as a freshly started function's SDK clients warm up.
func (w *World) SetupSleep(from, to cloud.Region, rng *rand.Rand) time.Duration {
	v := w.Net.SetupTime(from, to).Sample(rng)
	if v < 0.05 {
		v = 0.05
	}
	d := simclock.Seconds(v)
	w.Clock.Sleep(d)
	return d
}

// ClientRead simulates an end user near `client` fetching an object from a
// bucket in `from`: one request RTT, the transfer at the client's
// achievable bandwidth, and the egress charge for leaving `from`. It
// returns the user-visible latency. This is the read side of the paper's
// content-delivery motivation (§2): replicas near users cut both latency
// and repeated cross-region egress.
func (w *World) ClientRead(client, from cloud.Region, obj *objstore.Store, bucket, key string) (time.Duration, error) {
	start := w.Clock.Now()
	w.Clock.Sleep(simclock.Seconds(cloud.RTT(client, from)))
	o, err := obj.Get(bucket, key)
	if err != nil {
		return 0, err
	}
	rng := simrand.New("client-read", string(client.ID()), string(from.ID()), key)
	mbps := w.Net.FuncLegMBps(from, client, client.Provider).Sample(rng)
	if mbps < 0.5 {
		mbps = 0.5
	}
	w.Clock.Sleep(netsim.TransferTime(o.Size, mbps))
	if from.ID() != client.ID() {
		w.Meter.Add("net:egress", pricing.EgressCost(from, client, o.Size))
	}
	return w.Clock.Since(start), nil
}
