package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cloud"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// iteration is one build + measured window + audit of a workload.
type iteration struct {
	values    map[string]float64
	attempted int
	failed    int
	digest    uint64
	problems  []string // correctness-gate failures, each naming a key or metric
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runIteration builds the workload, runs its measured window and audits
// the outcome. With traced set the world's tracer is on for the window;
// prof, when non-nil, samples the window's CPU.
func runIteration(wl workload, seed uint64, scale float64, traced bool, prof *cpuProfile) (*iteration, error) {
	runtime.GC() // the previous iteration's garbage is not this set-up's cost
	y0 := readYardstick(scale)
	t0 := time.Now()
	w, err := wl.build(seed, scale)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
	}
	setup := time.Since(t0)

	sw := w.sim.World()
	// Window-scoped accounting: profiling during deploy already moved bytes
	// and invoked functions through the same instruments.
	sw.Metrics.Reset()
	if traced {
		sw.Tracer.Enable()
		sw.Tracer.Reset()
	}
	cost0, usd0 := w.sim.CostBreakdown(), w.sim.CostTotal()
	clk0 := sw.Clock.Stats()
	y1 := readYardstick(scale)
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	if err := prof.start(); err != nil {
		return nil, err
	}
	wall0 := time.Now()

	var d driverStats
	w.run(w, &d)

	wall := time.Since(wall0)
	if err := prof.stop(); err != nil {
		return nil, err
	}
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	y2 := readYardstick(scale)
	virtEnd := w.sim.Now()
	clk1 := sw.Clock.Stats()
	cost1, usd := w.sim.CostBreakdown(), w.sim.CostTotal()-usd0

	it := &iteration{values: make(map[string]float64), digest: w.digest, attempted: d.attempted}
	v := it.values

	var replicas int64
	dups, dupAt := 0, ""
	for _, s := range w.sinks {
		replicas += s.replicas
		if s.dups > 0 {
			dups += s.dups
			dupAt = fmt.Sprintf("%s/%s key %q", s.ref.region, s.ref.bucket, s.dupKey)
		}
	}
	if replicas == 0 {
		return nil, fmt.Errorf("%s: no replica landed", wl.name)
	}
	R := float64(replicas)

	// Host times at the reference speed: each divided by the yardstick read
	// on either side of it (calib.go).
	during := between(y1, y2)
	v["setup_s"] = atRefSpeed(setup.Seconds(), between(y0, y1).wall)
	v["wall_s"] = atRefSpeed(wall.Seconds(), during.wall)
	v["cpu_s_per_kreplica"] = atRefSpeed(cpu, during.cpu) / R * 1000
	v["box.raw_setup_s"] = setup.Seconds()
	v["box.raw_wall_s"] = wall.Seconds()
	v["box.raw_cpu_s"] = cpu
	v["box.yardstick_ms"] = during.wall * 1000
	v["allocs_per_replica"] = float64(ms1.Mallocs-ms0.Mallocs) / R

	// Simulated side. Delay is source write -> destination visible, over
	// every rule; a write that failed or never replicated misses the SLO.
	var delays []float64
	pending, dlq := 0, 0
	var refreshes int64
	for _, rep := range w.reps {
		for _, rec := range rep.Records() {
			delays = append(delays, rec.Delay.Seconds())
		}
		pending += rep.Pending()
		dlq += rep.DLQSize()
		refreshes += rep.Service().Logger.Stats().Refreshes
	}
	sort.Float64s(delays)
	within := sort.SearchFloat64s(delays, math.Nextafter(sloHeadline.Seconds(), math.Inf(1)))
	sloOK := ratio(float64(within), float64(len(delays)+pending+d.exhausted))

	mismatched, firstBad, err := w.audit()
	if err != nil {
		return nil, fmt.Errorf("%s: audit: %w", wl.name, err)
	}
	// An operation fails when the driver cannot complete it; a write whose
	// replication went wrong (destination differs at audit, parked in the
	// DLQ, or landed twice) lowers ok_frac instead.
	it.failed = d.exhausted
	failFrac := ratio(float64(mismatched+d.exhausted+dlq+dups), float64(d.attempted))
	if !w.faults {
		// With no fault injected every write must converge, exactly once.
		for _, c := range []struct {
			n    int
			what string
		}{
			{dups, "duplicate final write(s), last at " + dupAt},
			{mismatched, "key(s) differ at audit, first " + firstBad},
			{dlq, "event(s) left in the DLQ"},
			{pending, "write(s) still pending"},
			{d.exhausted, "driver operation(s) failed every retry"},
		} {
			if c.n > 0 {
				it.problems = append(it.problems, fmt.Sprintf("%s: %d %s", wl.name, c.n, c.what))
			}
		}
	}

	reg := sw.Metrics
	cnt := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	hcount := func(name string) float64 { return float64(reg.Histogram(name).Count()) }
	kvReads, kvWrites := cnt("kvstore.reads"), cnt("kvstore.writes")
	costDelta := func(items ...string) float64 {
		var s float64
		for _, k := range items {
			s += cost1[k] - cost0[k]
		}
		return s
	}
	userGB := float64(d.userBytes) / 1e9

	v["delay_p50_s"] = stats.Percentile(delays, 50)
	v["delay_p90_s"] = stats.Percentile(delays, 90)
	v["delay_p99_s"] = stats.Percentile(delays, 99)
	v["slo_ok_frac"] = sloOK
	v["drain_s"] = virtEnd.Sub(d.lastWrite).Seconds()
	v["usd_per_gb"] = ratio(usd, userGB)
	v["kv_ops_per_replica"] = (kvReads + kvWrites) / R
	v["ok_frac"] = 1 - failFrac

	v["driver.ops"] = float64(w.ops)
	v["driver.replicas"] = R
	v["driver.user_gb"] = userGB
	v["driver.delay_n"] = float64(len(delays))
	v["driver.gen_late_s"] = d.genLate.Seconds()
	v["driver.put_retry_frac"] = ratio(float64(d.retried), float64(d.attempted))
	v["driver.put_exhausted"] = float64(d.exhausted)
	v["audit.mismatched"] = float64(mismatched)
	v["audit.dup_final_writes"] = float64(dups)
	v["slo_miss_frac"] = 1 - sloOK
	v["fail_frac"] = failFrac

	v["simclock.sleeps_per_replica"] = float64(clk1.Sleeps-clk0.Sleeps) / R
	v["simclock.advances_per_replica"] = float64(clk1.Advances-clk0.Advances) / R
	v["simclock.spawned_per_replica"] = float64(clk1.Spawned-clk0.Spawned) / R

	inv := cnt("faas.invocations")
	v["faas.invocations_per_replica"] = inv / R
	v["faas.cold_frac"] = ratio(cnt("faas.cold_starts"), inv)
	v["faas.peak_instances"] = float64(reg.Gauge("faas.running").Max())
	v["faas.crashes"] = cnt("faas.crashes")

	v["kvstore.reads_per_replica"] = kvReads / R
	v["kvstore.writes_per_replica"] = kvWrites / R
	v["kvstore.throttled"] = cnt("kvstore.throttled")
	v["kvstore.op_p99_s"] = reg.Histogram("kvstore.op.seconds").Quantile(0.99)

	v["objstore.puts_per_replica"] = hcount("objstore.put.seconds") / R
	v["objstore.gets_per_replica"] = hcount("objstore.get.seconds") / R
	v["objstore.lists"] = costDelta("obj:list") / 5e-6
	v["objstore.failures"] = cnt("objstore.failures")
	v["objstore.notify_dropped"] = cnt("objstore.notify.dropped")

	legs := hcount("net.leg.seconds")
	v["netsim.wan_bytes_per_user_byte"] = ratio(cnt("net.leg.bytes"), float64(d.userBytes))
	v["netsim.legs_per_replica"] = legs / R

	tasksOK := cnt("engine.tasks.ok")
	deduped := cnt("engine.tasks.deduped")
	v["engine.tasks_ok"] = tasksOK
	v["engine.tasks_deduped_frac"] = ratio(deduped, tasksOK+deduped)
	v["engine.retries_per_kreplica"] = cnt("engine.retries") / R * 1000
	v["engine.parts_hedged_frac"] = ratio(cnt("engine.parts.hedged"), legs/2) // a part is one leg down and one up
	v["engine.breaker_opens"] = cnt("engine.breaker_open")
	v["engine.dlq"] = float64(dlq)
	v["engine.redriven"] = cnt("engine.dlq.redriven")
	v["engine.recovery_resumed"] = cnt("engine.recovery.resumed")
	v["engine.pending_at_end"] = float64(pending)

	if w.fleet != nil {
		var admits, defers, starved, forced int64
		for _, st := range w.fleet.SchedStats() {
			admits += st.Admits
			defers += st.Defers
			starved += st.Starved
		}
		for _, st := range w.fleet.QuotaStats() {
			forced += st.Forced
		}
		v["fleet.admits"] = float64(admits)
		v["fleet.defers_frac"] = ratio(float64(defers), float64(admits+defers))
		v["fleet.starved"] = float64(starved)
		v["fleet.forced"] = float64(forced)
		v["fleet.batch_mean"] = w.fleet.BatchStats().MeanSize
		v["fleet.sched_wait_p99_s"] = reg.Histogram("fleet.sched.wait.seconds").Quantile(0.99)
		v["fleet.quota_fn_wait_p99_s"] = reg.Histogram("fleet.quota.fn.wait.seconds").Quantile(0.99)
		v["fleet.quota_kv_wait_p99_s"] = reg.Histogram("fleet.quota.kv.wait.seconds").Quantile(0.99)
	}

	v["antientropy.rounds"] = float64(d.scrubRound)
	v["antientropy.repairs"] = cnt("antientropy.repair.dispatched") + cnt("antientropy.repair.redriven")
	v["antientropy.digest_bytes_per_key"] = ratio(cnt("antientropy.digest.bytes"), float64(w.ops))
	v["antientropy.unclean_rules"] = float64(d.unclean)
	v["logger.refreshes"] = float64(refreshes)
	v["chaos.injected"] = cnt("chaos.injected")

	v["usd.egress_frac"] = ratio(costDelta("net:egress"), usd)
	v["usd.fn_frac"] = ratio(costDelta("fn:invoke", "fn:compute"), usd)
	v["usd.kv_frac"] = ratio(costDelta("kv:read", "kv:write"), usd)
	v["usd.obj_frac"] = ratio(costDelta("obj:put", "obj:get", "obj:list", "obj:abort"), usd)

	if traced {
		agg := telemetry.Aggregate(sw.Tracer.CriticalPaths())
		var sum float64
		for _, sh := range agg.Shares {
			v["crit."+string(sh.Category)+"_frac"] = sh.Fraction
			sum += sh.Fraction
		}
		if math.Abs(sum-1) > 1e-9 {
			it.problems = append(it.problems, fmt.Sprintf("crit.* fractions sum to %.12f, not 1", sum))
		}
		v["trace.spans_per_replica"] = float64(sw.Tracer.Stats().SpansStarted) / R
	}
	return it, nil
}

// audit compares every (source, destination) bucket pair from outside, by
// listing: the two must hold the same keys with the same ETags. It returns
// how many keys differ and names the first.
func (w *testbed) audit() (mismatched int, first string, err error) {
	listings := make(map[bucketRef]map[string]string)
	list := func(b bucketRef) (map[string]string, error) {
		if l, ok := listings[b]; ok {
			return l, nil
		}
		rid, err := cloud.ParseRegionID(b.region)
		if err != nil {
			return nil, err
		}
		metas, _, err := w.sim.World().BucketListing(rid, b.bucket, "")
		if err != nil {
			return nil, fmt.Errorf("list %s/%s: %w", b.region, b.bucket, err)
		}
		l := make(map[string]string, len(metas))
		for _, m := range metas {
			l[m.Key] = m.ETag
		}
		listings[b] = l
		return l, nil
	}
	note := func(p pair, key string) {
		mismatched++
		if first == "" {
			first = fmt.Sprintf("%s/%s -> %s/%s key %q", p.src.region, p.src.bucket, p.dst.region, p.dst.bucket, key)
		}
	}
	for _, p := range w.pairs {
		src, err := list(p.src)
		if err != nil {
			return 0, "", err
		}
		dst, err := list(p.dst)
		if err != nil {
			return 0, "", err
		}
		for k, etag := range src {
			if dst[k] != etag {
				note(p, k)
			}
		}
		for k := range dst {
			if _, ok := src[k]; !ok {
				note(p, k)
			}
		}
	}
	return mismatched, first, nil
}
