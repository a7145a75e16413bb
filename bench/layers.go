package main

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	areplica "repro"
	"repro/internal/cloud"
	"repro/internal/engine"
	"repro/internal/faas"
	"repro/internal/fleet"
	"repro/internal/kvstore"
	"repro/internal/netsim"
	"repro/internal/objstore"
	"repro/internal/pricing"
	"repro/internal/simclock"
	"repro/internal/simrand"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/world"
)

// Isolated layer drivers: host nanoseconds per call into one layer's
// exported function, with nothing else running. Multiplied by the layer's
// count from a workload run they give the layer's expected share of
// wall_s, which is how a per-layer gain is predicted before it is claimed.

// sample is one timed region.
type sample struct {
	d      time.Duration
	allocs uint64
}

func timed(body func()) sample {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	body()
	d := time.Since(t)
	runtime.ReadMemStats(&m1)
	return sample{d: d, allocs: m1.Mallocs - m0.Mallocs}
}

// layerDriver measures one layer. run performs about n units of work and
// returns the timed region and how many units it covered; set-up stays
// outside the region.
type layerDriver struct {
	ns, allocs string // metric names; allocs may be empty
	run        func(f *fixtures, n int) (sample, float64)
}

var (
	epoch    = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	usEast   = cloud.MustLookup(awsEast)
	euZurich = cloud.MustLookup(gcpEU)
	noop     = func() {}
)

// Fixture sizes at -scale 1.
const (
	scanKeys       = 200_000 // objects behind the head and scan drivers
	scrubKeys      = 20_000  // objects on each side of the scrubbed pair
	pendingTimers  = 10_000  // timers pending under the timer driver
	pendingTracked = 100_000 // events pending under the tracker driver
)

var layerDrivers = []layerDriver{
	{ns: "micro.simclock.handoff_ns", allocs: "micro.simclock.handoff_allocs", run: func(f *fixtures, n int) (sample, float64) {
		// Two actors alternating Sleep: every wake-up is one hand-off.
		clk := simclock.New(epoch)
		return timed(func() {
			clk.Go(func() {
				for i := 0; i < n; i++ {
					clk.Sleep(time.Nanosecond)
				}
			})
			for i := 0; i < n; i++ {
				clk.Sleep(time.Nanosecond)
			}
			clk.Quiesce()
		}), float64(2 * n)
	}},
	{ns: "micro.simclock.timer_ns", run: func(f *fixtures, n int) (sample, float64) {
		clk := simclock.New(epoch)
		for i := 0; i < f.size(pendingTimers); i++ {
			clk.DelayCall(time.Hour, noop)
		}
		clk.Sleep(time.Nanosecond) // let those actors park on their timers
		s := timed(func() {
			for i := 0; i < n; i++ {
				clk.DelayCall(time.Microsecond, noop)
			}
			clk.Sleep(time.Millisecond)
		})
		clk.Quiesce()
		return s, float64(n)
	}},
	{ns: "micro.kvstore.op_ns", run: func(f *fixtures, n int) (sample, float64) {
		kv := kvstore.New(simclock.New(epoch), usEast, pricing.NewMeter())
		always := func(kvstore.Item, bool) bool { return true }
		return timed(func() {
			for i := 0; i < n; i += 2 {
				kv.Increment("pool", "task", "next", 1)
				_ = kv.ConditionalPut("lock", "key", kvstore.Item{"token": int64(i)}, always) // cond never refuses
			}
		}), float64(n)
	}},
	{ns: "micro.objstore.put_ns", run: func(f *fixtures, n int) (sample, float64) {
		st, keys := newStore(n)
		blob := objstore.BlobOfSize(1<<20, 1)
		return timed(func() {
			for _, k := range keys {
				if _, err := st.Put("b", k, blob); err != nil {
					panic(err)
				}
			}
		}), float64(n)
	}},
	{ns: "micro.objstore.head_ns", run: func(f *fixtures, n int) (sample, float64) {
		st, keys := f.scanStore()
		return timed(func() {
			for i := 0; i < n; i++ {
				if _, err := st.Head("b", keys[i%len(keys)]); err != nil {
					panic(err)
				}
			}
		}), float64(n)
	}},
	{ns: "micro.objstore.scan_ns_per_key", run: func(f *fixtures, n int) (sample, float64) {
		st, keys := f.scanStore()
		rounds := 1 + n/len(keys)
		return timed(func() {
			for r := 0; r < rounds; r++ {
				sc := st.Scan("b", "", "")
				for _, ok := sc.Next(); ok; _, ok = sc.Next() {
				}
				if err := sc.Err(); err != nil {
					panic(err)
				}
			}
		}), float64(rounds * len(keys))
	}},
	{ns: "micro.faas.invoke_ns", run: func(f *fixtures, n int) (sample, float64) {
		clk := simclock.New(epoch)
		p := faas.New(clk, usEast, netsim.New(), pricing.NewMeter(), faas.DefaultConfig(usEast.Provider))
		handler := func(*faas.Ctx) {}
		p.Invoke(1, handler) // the measured invocations find a warm instance
		clk.Quiesce()
		return timed(func() {
			for i := 0; i < n; i++ {
				p.Invoke(1, handler)
			}
			clk.Quiesce()
		}), float64(n)
	}},
	{ns: "micro.netsim.move_ns", run: func(f *fixtures, n int) (sample, float64) {
		w := world.New()
		rng := simrand.New("bench-move")
		return timed(func() {
			for i := 0; i < n; i++ {
				w.MoveBytes(usEast, euZurich, usEast.Provider, 8<<20, 1, rng)
			}
		}), float64(n)
	}},
	{ns: "micro.planner.plan_ns", run: func(f *fixtures, n int) (sample, float64) {
		svc := f.engineSim().rep.Service()
		opts := svc.Engine.PlanOpts()
		return timed(func() {
			for i := 0; i < n; i++ {
				// A size the fastest-plan memo has not seen.
				if _, err := svc.Planner.PlanWith(svc.Rule.Src, svc.Rule.Dst, 64<<20+int64(f.planSeq), 0, svc.Rule.Percentile, opts); err != nil {
					panic(err)
				}
				f.planSeq++
			}
		}), float64(n)
	}},
	{ns: "micro.planner.plan_memo_ns", run: func(f *fixtures, n int) (sample, float64) {
		svc := f.engineSim().rep.Service()
		opts := svc.Engine.PlanOpts()
		return timed(func() {
			for i := 0; i < n; i++ {
				if _, err := svc.Planner.PlanWith(svc.Rule.Src, svc.Rule.Dst, 1<<20, 0, svc.Rule.Percentile, opts); err != nil {
					panic(err)
				}
			}
		}), float64(n)
	}},
	{ns: "micro.fleet.pump_ns", run: func(f *fixtures, n int) (sample, float64) {
		// Submit -> admit -> done with every one of 1000 rules queued.
		const rules = 1000
		clk := simclock.New(epoch)
		s := fleet.NewScheduler(clk, nil, nil, fleet.SchedConfig{LaneSlots: 64})
		ids := make([]string, rules)
		for r := range ids {
			ids[r] = fmt.Sprintf("rule-%04d", r)
			if err := s.Register(ids[r], "dst", fleet.LaneID{Provider: "aws", Region: "us-east-1"}, 1+float64(r%3), r%2); err != nil {
				panic(err)
			}
		}
		per := 1 + n/rules
		run := func(done func()) { done() }
		return timed(func() {
			for i := 0; i < per; i++ {
				for _, id := range ids {
					s.Submit(id, run)
				}
			}
			clk.Quiesce()
		}), float64(per * rules)
	}},
	{ns: "micro.fleet.quota_ns", run: func(f *fixtures, n int) (sample, float64) {
		l := fleet.NewLedger(simclock.New(epoch), nil, fleet.QuotaConfig{FaaSConcurrency: 256})
		lane := fleet.LaneID{Provider: "aws", Region: "us-east-1"}
		return timed(func() {
			for i := 0; i < n; i++ {
				l.Acquire(lane)
				l.Release(lane)
			}
		}), float64(n)
	}},
	{ns: "micro.engine.tracker_ns", run: func(f *fixtures, n int) (sample, float64) {
		// OnSource + Resolve with 100 k other events pending.
		t := engine.NewTracker()
		for i := 0; i < f.size(pendingTracked); i++ {
			t.OnSource(objstore.Event{Key: "pending-" + strconv.Itoa(i), Seq: uint64(i + 1), Time: epoch})
		}
		keys := make([]string, n)
		for i := range keys {
			keys[i] = "k-" + strconv.Itoa(i)
		}
		return timed(func() {
			for i, k := range keys {
				seq := uint64(pendingTracked + 1 + i)
				t.OnSource(objstore.Event{Key: k, Seq: seq, Time: epoch})
				t.Resolve(k, seq, epoch.Add(time.Second))
			}
		}), float64(n)
	}},
	{ns: "micro.engine.single_ns", allocs: "micro.engine.single_allocs", run: func(f *fixtures, n int) (sample, float64) {
		// One 1 MB object end to end through the single-function path.
		es := f.engineSim()
		return timed(func() {
			for i := 0; i < n; i++ {
				es.put(1 << 20)
			}
		}), float64(n)
	}},
	{ns: "micro.engine.dist_ns_per_part", allocs: "micro.engine.dist_allocs_per_part", run: func(f *fixtures, n int) (sample, float64) {
		// One 1 GB object through the part pool, per part moved.
		es := f.engineSim()
		legs := es.sim.World().Metrics.Histogram("net.leg.seconds")
		before := legs.Count()
		s := timed(func() {
			for i := 0; i < 1+n/128; i++ {
				es.put(1 << 30)
			}
		})
		return s, float64(legs.Count()-before) / 2
	}},
	{ns: "micro.telemetry.span_ns", run: func(f *fixtures, n int) (sample, float64) {
		return spanLoop(true, n), float64(2 * n)
	}},
	{ns: "micro.telemetry.span_off_ns", run: func(f *fixtures, n int) (sample, float64) {
		return spanLoop(false, n), float64(2 * n)
	}},
	{ns: "micro.telemetry.counter_ns", run: func(f *fixtures, n int) (sample, float64) {
		c := telemetry.NewRegistry().Counter("bench.micro")
		return timed(func() {
			for i := 0; i < n; i++ {
				c.Inc()
			}
		}), float64(n)
	}},
	{ns: "micro.trace.generate_ns_per_op", run: func(f *fixtures, n int) (sample, float64) {
		cfg := trace.DefaultConfig(30*time.Minute, float64(max(n, 300))/30)
		cfg.Seed = "bench-micro"
		var ops []trace.Op
		s := timed(func() { ops = trace.Generate(cfg) })
		return s, float64(len(ops))
	}},
	{ns: "micro.antientropy.merkle_ns_per_key", run: func(f *fixtures, n int) (sample, float64) {
		// Clean scrub rounds over a converged pair: both sides listed and
		// hashed into Merkle trees, digests exchanged, nothing to repair.
		ss := f.scrubSim()
		rounds := 0
		s := timed(func() {
			for done := 0; done < max(n, 1); done += ss.keys {
				r, err := ss.rep.ScrubUntilClean()
				if err != nil {
					panic(err)
				}
				rounds += r.Rounds
			}
		})
		return s, float64(rounds * ss.keys)
	}},
}

// runLayers runs every driver for about d and reports ns per unit (and
// allocations per unit where the driver names them).
func runLayers(d time.Duration, scale float64) (map[string]value, error) {
	out := make(map[string]value)
	f := &fixtures{scale: scale}
	for _, drv := range layerDrivers {
		// Grow n until one timed region lasts d, as testing.B does.
		n := 1
		var s sample
		var units float64
		for {
			s, units = drv.run(f, n)
			if s.d >= d || n >= 1<<30 {
				break
			}
			grow := 100.0
			if s.d > 0 {
				grow = min(100, 1.2*float64(d)/float64(s.d))
			}
			n = int(float64(n)*max(grow, 1.5)) + 1
		}
		if units <= 0 {
			return nil, fmt.Errorf("%s: driver did no work", drv.ns)
		}
		out[drv.ns] = value{Value: float64(s.d.Nanoseconds()) / units, Unit: "ns"}
		if drv.allocs != "" {
			out[drv.allocs] = value{Value: float64(s.allocs) / units, Unit: "count"}
		}
	}
	return out, nil
}

// fixtures are what several drivers share, built on first use.
type fixtures struct {
	scale     float64
	store     *objstore.Store
	storeKeys []string
	engine    *engineFixture
	scrub     *scrubFixture
	planSeq   int // sizes the planner's memo has not seen yet
}

// size shrinks a fixture for tests.
func (f *fixtures) size(n int) int { return scaled(n, f.scale, 100) }

func newStore(n int) (*objstore.Store, []string) {
	st := objstore.New(simclock.New(epoch), usEast, pricing.NewMeter())
	if err := st.CreateBucket("b", false); err != nil {
		panic(err)
	}
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("obj-%07d", i)
	}
	return st, keys
}

// scanStore is a bucket of scanKeys objects.
func (f *fixtures) scanStore() (*objstore.Store, []string) {
	if f.store == nil {
		f.store, f.storeKeys = newStore(f.size(scanKeys))
		blob := objstore.BlobOfSize(4<<10, 1)
		for _, k := range f.storeKeys {
			if _, err := f.store.Put("b", k, blob); err != nil {
				panic(err)
			}
		}
	}
	return f.store, f.storeKeys
}

// engineFixture is one deployed cross-cloud rule with a fitted model.
type engineFixture struct {
	sim *areplica.Sim
	rep *areplica.Replication
	seq int
}

func (f *fixtures) engineSim() *engineFixture {
	if f.engine == nil {
		sim := areplica.NewSim()
		sim.MustCreateBucket(awsEast, "micro")
		sim.MustCreateBucket(gcpEU, "micro-replica")
		rep, err := sim.Deploy(areplica.Rule{
			SrcRegion: awsEast, SrcBucket: "micro",
			DstRegion: gcpEU, DstBucket: "micro-replica",
			ProfileRounds: profileRounds,
		})
		if err != nil {
			panic(err)
		}
		f.engine = &engineFixture{sim: sim, rep: rep}
	}
	return f.engine
}

// put writes one object and runs the simulation until it has replicated.
func (f *engineFixture) put(size int64) {
	f.seq++
	if _, err := f.sim.PutObject(awsEast, "micro", "obj-"+strconv.Itoa(f.seq), size); err != nil {
		panic(err)
	}
	f.sim.Wait()
	if f.rep.Pending() != 0 {
		panic("micro: object did not replicate")
	}
}

// scrubFixture is a converged bucket pair under a scrub-enabled rule.
type scrubFixture struct {
	rep  *areplica.Replication
	keys int
}

func (f *fixtures) scrubSim() *scrubFixture {
	if f.scrub == nil {
		keys := f.size(scrubKeys)
		sim := areplica.NewSim()
		sim.MustCreateBucket(awsEast, "scrub")
		sim.MustCreateBucket(gcpEast, "scrub-replica")
		for i := 0; i < keys; i++ {
			// Literal content gives both sides the same ETag without a
			// replication pass.
			k, body := fmt.Sprintf("obj-%06d", i), []byte(strconv.Itoa(i))
			if _, err := sim.PutBytes(awsEast, "scrub", k, body); err != nil {
				panic(err)
			}
			if _, err := sim.PutBytes(gcpEast, "scrub-replica", k, body); err != nil {
				panic(err)
			}
		}
		rep, err := sim.Deploy(areplica.Rule{
			SrcRegion: awsEast, SrcBucket: "scrub",
			DstRegion: gcpEast, DstBucket: "scrub-replica",
			Scrub: true, ProfileRounds: profileRounds,
		})
		if err != nil {
			panic(err)
		}
		f.scrub = &scrubFixture{rep: rep, keys: keys}
	}
	return f.scrub
}

// spanLoop opens and closes n two-span traces on a tracer that is on or off.
func spanLoop(on bool, n int) sample {
	clk := simclock.New(epoch)
	tr := telemetry.NewTracer(clk.Now)
	tr.SetEnabled(on)
	ids := make([]string, 4096)
	for i := range ids {
		ids[i] = "trace-" + strconv.Itoa(i)
	}
	return timed(func() {
		for i := 0; i < n; i++ {
			if i%len(ids) == 0 {
				tr.Reset() // bound the retained spans
			}
			root := tr.StartTrace(ids[i%len(ids)], "task")
			root.Child("step").End()
			root.End()
		}
	})
}
