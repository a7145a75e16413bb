package main

// The metric table is the benchmark's contract: BENCHMARK.json is
// generated from it (-manifest) and a test keeps the two byte-identical.
// Later issues make every performance or simplicity claim in these names.

type kind int

const (
	hostE2E   kind = iota // end to end, simulator side: median over a run's iterations, times at the reference speed
	simE2E                // end to end, simulated side: exact for a seed
	count                 // per layer, read from public accessors after the window: exact for a seed
	tracedSim             // per layer, traced run only, exact for a seed
	tracedCPU             // per layer, traced run only, from the CPU profile
	micro                 // per layer, isolated driver, host ns per call
	hostRaw               // per layer: raw host seconds and the yardstick that scaled them, median over iterations
)

type metric struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	// Bound is the end-to-end bound BENCHMARK.json carries: the share of the
	// parent's median by which the metric may worsen between two sets of
	// runs over different seeds on a shared box. It is sized from the spread
	// measured over ten seeds (see README.md), so it is loose.
	Bound float64
	// Same and Floor are what -compare applies between two reports of the
	// same seed from one machine: Same as a share of the old median plus
	// Floor in the metric's unit. Simulated metrics repeat exactly for a
	// seed, so their Same is tight.
	Same  float64
	Floor float64
	Kind  kind
	Moves string // per layer only: the end-to-end metric it should move, and where
}

func (m metric) endToEnd() bool { return m.Kind == hostE2E || m.Kind == simE2E }

// exact reports whether the metric must repeat bit for bit for one seed.
func (m metric) exact() bool { return m.Kind == simE2E || m.Kind == count || m.Kind == tracedSim }

var metrics = []metric{
	// Host side: what running the simulator costs. The three times are in
	// seconds at the reference speed (calib.go), not as the box's clock read.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Same: 0.25, Floor: 0.2, Kind: hostE2E},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25, Same: 0.10, Kind: hostE2E},
	{Name: "cpu_s_per_kreplica", Unit: "s", Better: "lower", Bound: 0.25, Same: 0.10, Kind: hostE2E},
	{Name: "allocs_per_replica", Unit: "count", Better: "lower", Bound: 0.20, Same: 0.03, Kind: hostE2E},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, Same: 0.10, Kind: hostE2E},
	// Simulated side: what AReplica delivers in virtual time and metered dollars.
	{Name: "delay_p50_s", Unit: "s", Better: "lower", Bound: 0.15, Same: 0.02, Kind: simE2E},
	{Name: "slo_ok_frac", Unit: "frac", Better: "higher", Bound: 0.05, Floor: 0.002, Kind: simE2E},
	{Name: "usd_per_gb", Unit: "usd/GB", Better: "lower", Bound: 0.12, Same: 0.02, Kind: simE2E},
	{Name: "kv_ops_per_replica", Unit: "count", Better: "lower", Bound: 0.25, Same: 0.02, Kind: simE2E},
	{Name: "ok_frac", Unit: "frac", Better: "higher", Bound: 0.002, Kind: simE2E}, // same seed: may not fall at all

	// End to end as well, but too seed-dependent for a bound across seeds
	// (a handful of gigabyte objects, or whether a scrub reached a clean
	// round, decides them): exact for a seed, so -compare still bounds them.
	{Name: "delay_p90_s", Unit: "s", Better: "lower", Same: 0.02, Kind: count, Moves: "the tail behind slo_ok_frac"},
	{Name: "delay_p99_s", Unit: "s", Better: "lower", Same: 0.02, Kind: count, Moves: "the tail behind slo_ok_frac"},
	{Name: "drain_s", Unit: "s", Better: "lower", Same: 0.02, Kind: count, Moves: "virtual seconds from the last source write (or SyncExisting) to quiescent, redriven and scrubbed"},

	{Name: "box.raw_setup_s", Unit: "s", Better: "lower", Kind: hostRaw, Moves: "setup_s as the clock read it"},
	{Name: "box.raw_wall_s", Unit: "s", Better: "lower", Kind: hostRaw, Moves: "wall_s as the clock read it"},
	{Name: "box.raw_cpu_s", Unit: "s", Better: "lower", Kind: hostRaw, Moves: "cpu_s_per_kreplica x replicas / 1000 as getrusage read it"},
	{Name: "box.yardstick_ms", Unit: "ms", Better: "lower", Kind: hostRaw, Moves: "the box's speed during the windows: one yardstick pass, 11 ms at the reference speed; no program change moves it"},

	{Name: "driver.ops", Unit: "count", Better: "higher", Kind: count, Moves: "input size; fixed by the seed"},
	{Name: "driver.replicas", Unit: "count", Better: "higher", Kind: count, Moves: "input size; may not change for a seed unless the change says why"},
	{Name: "driver.user_gb", Unit: "GB", Better: "higher", Kind: count, Moves: "denominator of usd_per_gb"},
	{Name: "driver.delay_n", Unit: "count", Better: "higher", Kind: count, Moves: "sample count behind delay_p50_s/delay_p99_s"},
	{Name: "driver.gen_late_s", Unit: "s", Better: "lower", Kind: count, Moves: "open-loop check: expected 0"},
	{Name: "driver.put_retry_frac", Unit: "frac", Better: "lower", Kind: count, Moves: "slo_ok_frac on chaos-mixed"},
	{Name: "driver.put_exhausted", Unit: "count", Better: "lower", Kind: count, Moves: "ok_frac"},
	{Name: "audit.mismatched", Unit: "count", Better: "lower", Kind: count, Moves: "ok_frac"},
	{Name: "audit.dup_final_writes", Unit: "count", Better: "lower", Kind: count, Moves: "ok_frac; above 0 fails the run unless faults are injected"},
	{Name: "slo_miss_frac", Unit: "frac", Better: "lower", Kind: count, Moves: "1 - slo_ok_frac"},
	{Name: "fail_frac", Unit: "frac", Better: "lower", Kind: count, Moves: "1 - ok_frac; may not rise at all"},

	{Name: "simclock.sleeps_per_replica", Unit: "count", Better: "lower", Kind: count, Moves: "wall_s, cpu_s_per_kreplica on fleet-small and heavy-tail; no simulated metric"},
	{Name: "simclock.advances_per_replica", Unit: "count", Better: "lower", Kind: count, Moves: "wall_s, cpu_s_per_kreplica; no simulated metric"},
	{Name: "simclock.spawned_per_replica", Unit: "count", Better: "lower", Kind: count, Moves: "wall_s, allocs_per_replica; no simulated metric"},

	{Name: "faas.invocations_per_replica", Unit: "count", Better: "lower", Kind: count, Moves: "usd_per_gb, delay_p99_s on heavy-tail"},
	{Name: "faas.cold_frac", Unit: "frac", Better: "lower", Kind: count, Moves: "delay_p99_s before delay_p50_s on heavy-tail"},
	{Name: "faas.peak_instances", Unit: "count", Better: "lower", Kind: count, Moves: "delay_p99_s under quota on fleet-small"},
	{Name: "faas.crashes", Unit: "count", Better: "lower", Kind: count, Moves: "delay_p99_s, ok_frac on chaos-mixed"},

	{Name: "kvstore.reads_per_replica", Unit: "count", Better: "lower", Kind: count, Moves: "kv_ops_per_replica, usd_per_gb"},
	{Name: "kvstore.writes_per_replica", Unit: "count", Better: "lower", Kind: count, Moves: "kv_ops_per_replica: pool claims on heavy-tail, lock only on fleet-small"},
	{Name: "kvstore.throttled", Unit: "count", Better: "lower", Kind: count, Moves: "delay_p99_s"},
	{Name: "kvstore.op_p99_s", Unit: "s", Better: "lower", Kind: count, Moves: "delay_p50_s on fleet-small (quota waits excluded)"},

	{Name: "objstore.puts_per_replica", Unit: "count", Better: "lower", Kind: count, Moves: "wall_s on fleet-small, usd_per_gb"},
	{Name: "objstore.gets_per_replica", Unit: "count", Better: "lower", Kind: count, Moves: "wall_s on backfill-scrub (heads and list pages count here)"},
	{Name: "objstore.lists", Unit: "count", Better: "lower", Kind: count, Moves: "wall_s, usd_per_gb on backfill-scrub (LIST dollars / $5e-6 a page)"},
	{Name: "objstore.failures", Unit: "count", Better: "lower", Kind: count, Moves: "ok_frac on chaos-mixed"},
	{Name: "objstore.notify_dropped", Unit: "count", Better: "lower", Kind: count, Moves: "ok_frac on chaos-mixed"},

	{Name: "netsim.wan_bytes_per_user_byte", Unit: "ratio", Better: "lower", Kind: count, Moves: "usd_per_gb; wasted work under hedging and retry on chaos-mixed"},
	{Name: "netsim.legs_per_replica", Unit: "count", Better: "lower", Kind: count, Moves: "wall_s on heavy-tail"},

	{Name: "engine.tasks_ok", Unit: "count", Better: "higher", Kind: count, Moves: "ok_frac"},
	{Name: "engine.tasks_deduped_frac", Unit: "frac", Better: "higher", Kind: count, Moves: "kv_ops_per_replica, usd_per_gb"},
	{Name: "engine.retries_per_kreplica", Unit: "count", Better: "lower", Kind: count, Moves: "delay_p99_s, slo_ok_frac on chaos-mixed; 0 on fleet-small"},
	{Name: "engine.parts_hedged_frac", Unit: "frac", Better: "lower", Kind: count, Moves: "delay_p99_s against usd_per_gb on heavy-tail; 0 on fleet-small"},
	{Name: "engine.breaker_opens", Unit: "count", Better: "lower", Kind: count, Moves: "delay_p99_s on chaos-mixed"},
	{Name: "engine.dlq", Unit: "count", Better: "lower", Kind: count, Moves: "ok_frac on chaos-mixed"},
	{Name: "engine.redriven", Unit: "count", Better: "lower", Kind: count, Moves: "drain_s on chaos-mixed"},
	{Name: "engine.recovery_resumed", Unit: "count", Better: "higher", Kind: count, Moves: "usd_per_gb on chaos-mixed (resume beats restart)"},
	{Name: "engine.pending_at_end", Unit: "count", Better: "lower", Kind: count, Moves: "ok_frac, slo_ok_frac"},

	{Name: "fleet.admits", Unit: "count", Better: "higher", Kind: count, Moves: "driver.replicas on fleet-small; 0 elsewhere"},
	{Name: "fleet.defers_frac", Unit: "frac", Better: "lower", Kind: count, Moves: "delay_p99_s on fleet-small"},
	{Name: "fleet.starved", Unit: "count", Better: "lower", Kind: count, Moves: "delay_p99_s on fleet-small"},
	{Name: "fleet.forced", Unit: "count", Better: "lower", Kind: count, Moves: "quota integrity on fleet-small"},
	{Name: "fleet.batch_mean", Unit: "count", Better: "higher", Kind: count, Moves: "wall_s on fleet-small"},
	{Name: "fleet.sched_wait_p99_s", Unit: "s", Better: "lower", Kind: count, Moves: "delay_p99_s on fleet-small"},
	{Name: "fleet.quota_fn_wait_p99_s", Unit: "s", Better: "lower", Kind: count, Moves: "delay_p99_s on fleet-small"},
	{Name: "fleet.quota_kv_wait_p99_s", Unit: "s", Better: "lower", Kind: count, Moves: "delay_p50_s on fleet-small"},

	{Name: "antientropy.rounds", Unit: "count", Better: "lower", Kind: count, Moves: "drain_s on backfill-scrub and chaos-mixed"},
	{Name: "antientropy.repairs", Unit: "count", Better: "lower", Kind: count, Moves: "usd_per_gb on backfill-scrub"},
	{Name: "antientropy.digest_bytes_per_key", Unit: "B", Better: "lower", Kind: count, Moves: "usd_per_gb on backfill-scrub"},
	{Name: "antientropy.unclean_rules", Unit: "count", Better: "lower", Kind: count, Moves: "ok_frac on chaos-mixed"},

	{Name: "logger.refreshes", Unit: "count", Better: "lower", Kind: count, Moves: "delay_p50_s through plan choice on heavy-tail"},
	{Name: "chaos.injected", Unit: "count", Better: "higher", Kind: count, Moves: "fault load; fixed by the seed on chaos-mixed, 0 elsewhere"},

	{Name: "usd.egress_frac", Unit: "frac", Better: "lower", Kind: count, Moves: "usd_per_gb (its egress share)"},
	{Name: "usd.fn_frac", Unit: "frac", Better: "lower", Kind: count, Moves: "usd_per_gb (function invocations and compute)"},
	{Name: "usd.kv_frac", Unit: "frac", Better: "lower", Kind: count, Moves: "usd_per_gb (KV reads and writes)"},
	{Name: "usd.obj_frac", Unit: "frac", Better: "lower", Kind: count, Moves: "usd_per_gb (object-store requests)"},

	// Traced run: the exact partition of summed virtual replication delay.
	{Name: "crit.notify_frac", Unit: "frac", Better: "lower", Kind: tracedSim, Moves: "delay_p50_s"},
	{Name: "crit.invoke_frac", Unit: "frac", Better: "lower", Kind: tracedSim, Moves: "delay_p50_s"},
	{Name: "crit.queued_frac", Unit: "frac", Better: "lower", Kind: tracedSim, Moves: "delay_p99_s"},
	{Name: "crit.startup_frac", Unit: "frac", Better: "lower", Kind: tracedSim, Moves: "delay_p99_s"},
	{Name: "crit.postpone_frac", Unit: "frac", Better: "lower", Kind: tracedSim, Moves: "delay_p99_s"},
	{Name: "crit.setup_frac", Unit: "frac", Better: "lower", Kind: tracedSim, Moves: "delay_p50_s"},
	{Name: "crit.transfer_frac", Unit: "frac", Better: "lower", Kind: tracedSim, Moves: "delay_p50_s, delay_p99_s on heavy-tail"},
	{Name: "crit.stall_frac", Unit: "frac", Better: "lower", Kind: tracedSim, Moves: "delay_p99_s on chaos-mixed"},
	{Name: "crit.objstore_frac", Unit: "frac", Better: "lower", Kind: tracedSim, Moves: "delay_p50_s on fleet-small"},
	{Name: "crit.kv_frac", Unit: "frac", Better: "lower", Kind: tracedSim, Moves: "delay_p50_s"},
	{Name: "crit.changelog_frac", Unit: "frac", Better: "lower", Kind: tracedSim, Moves: "delay_p50_s (0: no workload enables changelogs)"},
	{Name: "crit.backoff_frac", Unit: "frac", Better: "lower", Kind: tracedSim, Moves: "delay_p99_s on chaos-mixed"},
	{Name: "crit.hedge_frac", Unit: "frac", Better: "lower", Kind: tracedSim, Moves: "delay_p99_s on heavy-tail"},
	{Name: "crit.scrub_frac", Unit: "frac", Better: "lower", Kind: tracedSim, Moves: "drain_s on backfill-scrub"},
	{Name: "crit.idle_frac", Unit: "frac", Better: "lower", Kind: tracedSim, Moves: "delay_p50_s (scheduler queue and quota waits land here)"},
	{Name: "trace.spans_per_replica", Unit: "count", Better: "lower", Kind: tracedSim, Moves: "trace.overhead_frac"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower", Kind: tracedCPU, Moves: "wall_s with tracing on"},

	// Traced run: flat CPU samples bucketed by the leaf function's package.
	{Name: "host.simclock_cpu_frac", Unit: "frac", Better: "lower", Kind: tracedCPU, Moves: "wall_s, cpu_s_per_kreplica"},
	{Name: "host.runtime_sched_cpu_frac", Unit: "frac", Better: "lower", Kind: tracedCPU, Moves: "wall_s, cpu_s_per_kreplica on fleet-small and heavy-tail"},
	{Name: "host.runtime_gc_cpu_frac", Unit: "frac", Better: "lower", Kind: tracedCPU, Moves: "cpu_s_per_kreplica with allocs_per_replica"},
	{Name: "host.runtime_other_cpu_frac", Unit: "frac", Better: "lower", Kind: tracedCPU, Moves: "cpu_s_per_kreplica"},
	{Name: "host.engine_cpu_frac", Unit: "frac", Better: "lower", Kind: tracedCPU, Moves: "wall_s on heavy-tail"},
	{Name: "host.objstore_cpu_frac", Unit: "frac", Better: "lower", Kind: tracedCPU, Moves: "wall_s on fleet-small and backfill-scrub"},
	{Name: "host.kvstore_cpu_frac", Unit: "frac", Better: "lower", Kind: tracedCPU, Moves: "wall_s on heavy-tail"},
	{Name: "host.faas_cpu_frac", Unit: "frac", Better: "lower", Kind: tracedCPU, Moves: "wall_s on heavy-tail"},
	{Name: "host.netsim_cpu_frac", Unit: "frac", Better: "lower", Kind: tracedCPU, Moves: "wall_s on heavy-tail"},
	{Name: "host.fleet_cpu_frac", Unit: "frac", Better: "lower", Kind: tracedCPU, Moves: "wall_s on fleet-small; 0 on heavy-tail"},
	{Name: "host.planner_cpu_frac", Unit: "frac", Better: "lower", Kind: tracedCPU, Moves: "wall_s on heavy-tail (sizes not memoised)"},
	{Name: "host.telemetry_cpu_frac", Unit: "frac", Better: "lower", Kind: tracedCPU, Moves: "trace.overhead_frac"},
	{Name: "host.antientropy_cpu_frac", Unit: "frac", Better: "lower", Kind: tracedCPU, Moves: "wall_s on backfill-scrub"},
	{Name: "host.trace_cpu_frac", Unit: "frac", Better: "lower", Kind: tracedCPU, Moves: "wall_s (replay loop)"},
	{Name: "host.bench_cpu_frac", Unit: "frac", Better: "lower", Kind: tracedCPU, Moves: "the benchmark's own driver and sinks"},
	{Name: "host.other_cpu_frac", Unit: "frac", Better: "lower", Kind: tracedCPU, Moves: "wall_s"},

	// Isolated layer drivers: multiply by the count above for a layer's
	// expected share of wall_s.
	{Name: "micro.simclock.handoff_ns", Unit: "ns", Better: "lower", Kind: micro, Moves: "wall_s x simclock.sleeps_per_replica"},
	{Name: "micro.simclock.handoff_allocs", Unit: "count", Better: "lower", Kind: micro, Moves: "allocs_per_replica"},
	{Name: "micro.simclock.timer_ns", Unit: "ns", Better: "lower", Kind: micro, Moves: "wall_s x simclock.spawned_per_replica"},
	{Name: "micro.kvstore.op_ns", Unit: "ns", Better: "lower", Kind: micro, Moves: "wall_s x kv_ops_per_replica"},
	{Name: "micro.objstore.put_ns", Unit: "ns", Better: "lower", Kind: micro, Moves: "wall_s x objstore.puts_per_replica"},
	{Name: "micro.objstore.head_ns", Unit: "ns", Better: "lower", Kind: micro, Moves: "wall_s x objstore.gets_per_replica"},
	{Name: "micro.objstore.scan_ns_per_key", Unit: "ns", Better: "lower", Kind: micro, Moves: "wall_s on backfill-scrub"},
	{Name: "micro.faas.invoke_ns", Unit: "ns", Better: "lower", Kind: micro, Moves: "wall_s x faas.invocations_per_replica"},
	{Name: "micro.netsim.move_ns", Unit: "ns", Better: "lower", Kind: micro, Moves: "wall_s x netsim.legs_per_replica"},
	{Name: "micro.planner.plan_ns", Unit: "ns", Better: "lower", Kind: micro, Moves: "wall_s on heavy-tail"},
	{Name: "micro.planner.plan_memo_ns", Unit: "ns", Better: "lower", Kind: micro, Moves: "wall_s on fleet-small"},
	{Name: "micro.fleet.pump_ns", Unit: "ns", Better: "lower", Kind: micro, Moves: "wall_s x fleet.admits"},
	{Name: "micro.fleet.quota_ns", Unit: "ns", Better: "lower", Kind: micro, Moves: "wall_s x faas.invocations_per_replica on fleet-small"},
	{Name: "micro.engine.tracker_ns", Unit: "ns", Better: "lower", Kind: micro, Moves: "wall_s on fleet-small"},
	{Name: "micro.engine.single_ns", Unit: "ns", Better: "lower", Kind: micro, Moves: "wall_s on fleet-small"},
	{Name: "micro.engine.single_allocs", Unit: "count", Better: "lower", Kind: micro, Moves: "allocs_per_replica on fleet-small"},
	{Name: "micro.engine.dist_ns_per_part", Unit: "ns", Better: "lower", Kind: micro, Moves: "wall_s on heavy-tail"},
	{Name: "micro.engine.dist_allocs_per_part", Unit: "count", Better: "lower", Kind: micro, Moves: "allocs_per_replica on heavy-tail"},
	{Name: "micro.telemetry.span_ns", Unit: "ns", Better: "lower", Kind: micro, Moves: "trace.overhead_frac x trace.spans_per_replica"},
	{Name: "micro.telemetry.span_off_ns", Unit: "ns", Better: "lower", Kind: micro, Moves: "wall_s (tracing off)"},
	{Name: "micro.telemetry.counter_ns", Unit: "ns", Better: "lower", Kind: micro, Moves: "wall_s"},
	{Name: "micro.trace.generate_ns_per_op", Unit: "ns", Better: "lower", Kind: micro, Moves: "setup_s"},
	{Name: "micro.antientropy.merkle_ns_per_key", Unit: "ns", Better: "lower", Kind: micro, Moves: "wall_s on backfill-scrub"},
}

func metricByName(name string) (metric, bool) {
	for _, m := range metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}
