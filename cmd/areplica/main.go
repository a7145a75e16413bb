// Command areplica is a CLI for the simulated AReplica deployment: it
// stands up the three-cloud world, deploys a replication rule, drives a
// workload against the source bucket, and reports per-object replication
// delays and itemized cost — the simulation equivalent of the paper's
// public CLI.
//
// Examples:
//
//	areplica -src aws:us-east-1 -dst azure:eastus -size 128MB -count 5
//	areplica -src gcp:us-east1 -dst aws:eu-west-1 -slo 30s -replay 10m -rate 60
//	areplica -size 64MB -count 3 -trace trace.json -metrics metrics.txt
//	areplica -chaos mixed@7 -count 20 -metrics metrics.txt
//	areplica -chaos notify-flaky@3 -scrub 30s -count 12
//	areplica -crashpoint after-checkpoint -size 64MB -count 1 -v
//	areplica -fleet topology.json -replay 5m -status
//	areplica -chaos list
//	areplica -regions
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/chaos"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// options holds the parsed command line.
type options struct {
	src, dst, size              string
	count                       int
	slo                         time.Duration
	replay                      time.Duration
	rate                        float64
	traceOut, metricsOut        string
	chaos, crashPoint           string
	scrub                       time.Duration
	status                      bool
	eventsOut, promOut          string
	lagSLO                      time.Duration
	critpath                    bool
	retain                      string
	retainSeed                  uint64
	fleet                       string
	regions, showStats, verbose bool
}

// newFlagSet defines every areplica flag on a fresh set bound to o.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("areplica", flag.ExitOnError)
	fs.StringVar(&o.src, "src", "aws:us-east-1", "source region (<provider>:<region>)")
	fs.StringVar(&o.dst, "dst", "azure:eastus", "destination region")
	fs.StringVar(&o.size, "size", "16MB", "object size for -count mode (e.g. 512KB, 16MB, 1GB)")
	fs.IntVar(&o.count, "count", 3, "number of objects to replicate")
	fs.DurationVar(&o.slo, "slo", 0, "replication SLO (0 = fastest plan)")
	fs.DurationVar(&o.replay, "replay", 0, "replay a synthetic IBM-COS-like trace of this duration instead of -count mode")
	fs.Float64Var(&o.rate, "rate", 60, "trace request rate (ops/minute)")
	fs.StringVar(&o.traceOut, "trace", "", "write per-task spans as Chrome trace_event JSON to this file (chrome://tracing, Perfetto)")
	fs.StringVar(&o.metricsOut, "metrics", "", "write the run's aggregate metrics (counters + latency histograms) to this file")
	fs.StringVar(&o.chaos, "chaos", "", "arm a chaos profile after deployment (name[@seed], e.g. mixed@7; 'list' shows profiles)")
	fs.StringVar(&o.crashPoint, "crashpoint", "", "crash a function instance once at this data-plane step (e.g. after-checkpoint, after-part-2, before-complete-mpu)")
	fs.DurationVar(&o.scrub, "scrub", 0, "run anti-entropy scrubbing at this cadence (e.g. 30s; 0 = off)")
	fs.BoolVar(&o.status, "status", false, "print the rule's health table (lag watermarks, burn rates, alerts) at the end")
	fs.StringVar(&o.eventsOut, "events", "", "write the structured SLO alert log as JSONL to this file")
	fs.StringVar(&o.promOut, "prom", "", "write the run's metrics in Prometheus text format to this file")
	fs.DurationVar(&o.lagSLO, "lag-slo", 0, "monitored replication-lag objective per event (0 = 30s default)")
	fs.BoolVar(&o.critpath, "critpath", false, "print the critical-path delay attribution across replicated tasks")
	fs.StringVar(&o.retain, "retain", "all", "trace retention policy: all (keep every trace), auto (anomalies + 1-in-16 head sample), or 1/N (anomalies + 1-in-N)")
	fs.Uint64Var(&o.retainSeed, "retain-seed", 0, "seed phasing the head-sample counter of -retain auto|1/N")
	fs.StringVar(&o.fleet, "fleet", "", "deploy a multi-rule fleet from this JSON topology file (rules, fanout, chains, mesh, quotas) instead of a single rule")
	fs.BoolVar(&o.regions, "regions", false, "list available regions and exit")
	fs.BoolVar(&o.showStats, "stats", false, "print a per-region activity snapshot at the end")
	fs.BoolVar(&o.verbose, "v", false, "print per-object delays")
	return fs
}

// singleRuleOnly names the single-rule workload and diagnostics flags. A
// fleet topology file owns rule placement, quotas and scheduling, and
// these would silently apply to none of its rules, so passing any of them
// alongside -fleet is an error, not a hint.
var singleRuleOnly = []string{
	"src", "dst", "size", "count", "slo", "chaos", "crashpoint",
	"scrub", "lag-slo", "critpath", "trace", "retain", "retain-seed",
}

func main() {
	var o options
	fs := newFlagSet(&o)
	_ = fs.Parse(os.Args[1:]) // ExitOnError: Parse exits instead of returning an error

	sim := areplica.NewSim()
	if o.regions {
		for _, r := range sim.Regions() {
			fmt.Println(r)
		}
		return
	}
	if o.chaos == "list" {
		for _, n := range chaos.Names() {
			fmt.Println(n)
		}
		return
	}
	if o.fleet != "" {
		var conflicting []string
		fs.Visit(func(f *flag.Flag) {
			if slices.Contains(singleRuleOnly, f.Name) {
				conflicting = append(conflicting, "-"+f.Name)
			}
		})
		if len(conflicting) > 0 {
			fatal(fmt.Errorf("-fleet is incompatible with %s (single-rule workload and diagnostics flags); configure rules, quotas and scheduling in %s instead",
				strings.Join(conflicting, ", "), o.fleet))
		}
		runFleet(sim, o.fleet, o.replay, o.rate, fleetOutput{
			status: o.status, verbose: o.verbose, stats: o.showStats,
			metricsOut: o.metricsOut, promOut: o.promOut, eventsOut: o.eventsOut,
		})
		return
	}

	var chaosProf chaos.Profile
	if o.chaos != "" {
		var err error
		if chaosProf, err = chaos.Parse(o.chaos); err != nil {
			fatal(err)
		}
	}
	if o.crashPoint != "" {
		// Compose with -chaos when both are given; alone it is a pure
		// crash-point profile (the injector fires exactly once).
		if chaosProf.Name == "" {
			chaosProf.Name = "crash-point"
		}
		chaosProf.CrashPoint = o.crashPoint
	}
	size, err := parseSize(o.size)
	if err != nil {
		fatal(err)
	}

	const srcBucket, dstBucket = "data", "data-replica"
	if err := sim.CreateBucket(o.src, srcBucket); err != nil {
		fatal(err)
	}
	if err := sim.CreateBucket(o.dst, dstBucket); err != nil {
		fatal(err)
	}

	fmt.Printf("profiling %s -> %s ...\n", o.src, o.dst)
	rep, err := sim.Deploy(areplica.Rule{
		SrcRegion: o.src, SrcBucket: srcBucket,
		DstRegion: o.dst, DstBucket: dstBucket,
		SLO: o.slo, Scrub: o.scrub > 0, ScrubCadence: o.scrub,
		Monitor: true, LagTarget: o.lagSLO,
	})
	if err != nil {
		fatal(err)
	}
	profilingCost := sim.CostTotal()
	profiledItems := sim.CostBreakdown()

	// Tracing starts after Deploy so exports cover the workload's
	// replication tasks, not the one-time profiling phase (-critpath
	// needs the spans too).
	retention, err := parseRetain(o.retain, o.retainSeed)
	if err != nil {
		fatal(err)
	}
	if o.traceOut != "" || o.critpath {
		sim.World().Tracer.SetPolicy(retention)
		sim.World().Tracer.Enable()
	}
	// Chaos arms after Deploy too: profiling fits a clean model, and
	// partition windows are anchored at the workload's start.
	if chaosProf.Enabled() {
		label := o.chaos
		if label == "" {
			label = chaosProf.Name
		}
		if chaosProf.CrashPoint != "" {
			label += " (crash at " + chaosProf.CrashPoint + ")"
		}
		fmt.Printf("arming chaos profile %s\n", label)
		sim.World().SetChaos(chaosProf)
	}
	if o.scrub > 0 {
		if err := rep.StartScrub(); err != nil {
			fatal(err)
		}
		fmt.Printf("scrubbing every %s\n", o.scrub)
	}

	// Under chaos the source PUT itself can be refused; retry with backoff
	// like any SDK client (a no-op without injection).
	put := func(key string, size int64) error {
		var err error
		for attempt := 0; attempt < 8; attempt++ {
			if attempt > 0 {
				sim.Sleep(250 * time.Millisecond << uint(attempt-1))
			}
			if _, err = sim.PutObject(o.src, srcBucket, key, size); err == nil {
				return nil
			}
		}
		return err
	}

	if o.replay > 0 {
		ops := trace.Generate(trace.DefaultConfig(o.replay, o.rate))
		fmt.Printf("replaying %d trace operations over %s (virtual time)...\n", len(ops), o.replay)
		w := sim.World()
		trace.Replay(w.Clock, ops, func(op trace.Op) {
			if op.Type == trace.OpDelete {
				_ = sim.DeleteObject(o.src, srcBucket, op.Key)
				return
			}
			if err := put(op.Key, op.Size); err != nil {
				fatal(err)
			}
			rep.PollMonitor()
		})
	} else {
		fmt.Printf("replicating %d x %s objects...\n", o.count, o.size)
		for i := 0; i < o.count; i++ {
			key := fmt.Sprintf("object-%03d", i)
			if err := put(key, size); err != nil {
				fatal(err)
			}
			if chaosProf.Enabled() {
				// Space writes out so scheduled partition windows land
				// mid-workload instead of after it.
				sim.Sleep(2 * time.Second)
			}
			// Burn rates re-evaluate between writes so fault windows where
			// nothing completes still alert.
			rep.PollMonitor()
		}
	}
	sim.Wait()
	rep.PollMonitor()

	if chaosProf.Enabled() && rep.DLQSize() > 0 {
		// Operator recovery: redrive the dead-letter queue once and let the
		// re-dispatched events converge.
		fmt.Printf("redriving %d dead-lettered events...\n", rep.RedriveDLQ())
		sim.Wait()
	}
	var scrubRep areplica.ScrubReport
	if o.scrub > 0 {
		// Final anti-entropy pass: prove convergence with a clean Merkle
		// exchange, repairing whatever the notifications missed.
		if scrubRep, err = rep.ScrubUntilClean(); err != nil {
			fatal(err)
		}
		sim.Wait()
	}

	records := rep.Records()
	if len(records) == 0 {
		fatal(fmt.Errorf("no replications completed"))
	}
	delays := make([]float64, len(records))
	for i, r := range records {
		delays[i] = r.Delay.Seconds()
		if o.verbose {
			fmt.Printf("  %-24s %10s  %8.2fs\n", r.Key, byteSize(r.Size), r.Delay.Seconds())
		}
	}

	fmt.Printf("\nreplicated %d objects (pending %d)\n", len(records), rep.Pending())
	fmt.Printf("delay: p50 %.2fs  p99 %.2fs  max %.2fs\n",
		stats.Percentile(delays, 50), stats.Percentile(delays, 99), stats.Percentile(delays, 100))
	if o.slo > 0 {
		within := 0
		for _, d := range delays {
			if d <= o.slo.Seconds() {
				within++
			}
		}
		fmt.Printf("SLO %s attainment: %.2f%%\n", o.slo, 100*float64(within)/float64(len(delays)))
	}
	fmt.Printf("\ncost (excluding one-time profiling of $%.4f):\n", profilingCost)
	bd := sim.CostBreakdown()
	var items []string
	for k := range bd {
		if bd[k]-profiledItems[k] > 0 {
			items = append(items, k)
		}
	}
	sort.Strings(items)
	var total float64
	for _, k := range items {
		v := bd[k] - profiledItems[k]
		fmt.Printf("  %-12s $%.6f\n", k, v)
		total += v
	}
	fmt.Printf("  %-12s $%.6f\n", "total", total)

	if chaosProf.Enabled() {
		m := sim.World().Metrics
		fmt.Printf("\nchaos %s: injected %d faults; engine retries %d, hedged parts %d, breaker opens %d, degraded plans %d, redrives %d, dlq %d\n",
			o.chaos,
			m.Counter("chaos.injected").Value(),
			m.Counter("engine.retries").Value(),
			m.Counter("engine.parts.hedged").Value(),
			m.Counter("engine.breaker_open").Value(),
			m.Counter("engine.breaker.degraded").Value(),
			m.Counter("engine.dlq.redriven").Value(),
			rep.DLQSize())
	}

	if o.scrub > 0 {
		m := sim.World().Metrics
		fmt.Printf("\nscrub cadence %s: %d rounds, %d divergent keys found, repairs %d dispatched / %d redriven, %d SLO violations, %d digest bytes (final round clean=%v)\n",
			o.scrub,
			m.Counter("antientropy.rounds").Value(),
			m.Counter("antientropy.divergent_keys").Value(),
			m.Counter("antientropy.repair.dispatched").Value(),
			m.Counter("antientropy.repair.redriven").Value(),
			m.Counter("antientropy.slo_violations").Value(),
			m.Counter("antientropy.digest.bytes").Value(),
			scrubRep.Clean)
	}

	if o.critpath {
		fmt.Printf("\ncritical-path attribution (%d tasks):\n", len(records))
		agg := telemetry.Aggregate(sim.World().Tracer.CriticalPaths())
		if err := agg.WriteText(os.Stdout); err != nil {
			fatal(err)
		}
	}

	if o.status {
		fmt.Println()
		if err := sim.WriteHealthTable(os.Stdout, rep); err != nil {
			fatal(err)
		}
		if n := sim.EventCount(); n > 0 && o.eventsOut == "" {
			fmt.Printf("%d SLO alert events (write them with -events)\n", n)
		}
	}

	if o.showStats {
		fmt.Println()
		sim.World().Snapshot().Print(os.Stdout)
	}

	if o.traceOut != "" || o.critpath {
		fmt.Println("\ntrace retention:")
		if err := sim.World().Tracer.WriteRetentionSummary(os.Stdout); err != nil {
			fatal(err)
		}
	}

	if o.traceOut != "" {
		if err := writeFile(o.traceOut, sim.World().Tracer.WriteChromeTrace); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote trace to %s\n", o.traceOut)
	}
	if o.metricsOut != "" {
		if err := writeFile(o.metricsOut, sim.World().Metrics.WriteText); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote metrics to %s\n", o.metricsOut)
	}
	if o.promOut != "" {
		if err := writeFile(o.promOut, sim.WriteMetricsProm); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote prometheus metrics to %s\n", o.promOut)
	}
	if o.eventsOut != "" {
		if err := writeFile(o.eventsOut, sim.WriteEvents); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d alert events to %s\n", sim.EventCount(), o.eventsOut)
	}
}

// auditFleet returns the fleet run's cost net of profiling, read before
// the convergence audit bills its own LIST requests, then the audit's
// diverged and audited key counts.
func auditFleet(sim *areplica.Sim, fl *areplica.Fleet, profilingCost float64) (cost float64, diverged, audited int) {
	cost = sim.CostTotal() - profilingCost
	diverged, audited, err := fl.Diverged()
	if err != nil {
		fatal(err)
	}
	return cost, diverged, audited
}

// fleetOutput bundles the output flags the fleet mode honors.
type fleetOutput struct {
	status, verbose, stats         bool
	metricsOut, promOut, eventsOut string
}

// runFleet deploys a topology file's rules under the shared control
// plane, replays a synthetic trace across every source bucket, and
// reports convergence, per-rule fairness and shared-quota utilization.
func runFleet(sim *areplica.Sim, path string, replayDur time.Duration, ratePerMin float64, out fleetOutput) {
	tf, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	rules, opts, err := areplica.LoadFleetTopology(tf)
	tf.Close()
	if err != nil {
		fatal(err)
	}

	fmt.Printf("deploying fleet of %d rules from %s ...\n", len(rules), path)
	fl, err := sim.DeployFleet(rules, opts)
	if err != nil {
		fatal(err)
	}
	profilingCost := sim.CostTotal()

	// Entry points: every distinct source bucket, in deployment order.
	// Keys shard to one stable entry each and carry a per-entry prefix, so
	// every key has exactly one writing site even in active-active meshes.
	type entry struct{ region, bucket, prefix string }
	var entries []entry
	seen := make(map[string]bool)
	for i, r := range rules {
		id := r.SrcRegion + "/" + r.SrcBucket
		if seen[id] {
			continue
		}
		seen[id] = true
		entries = append(entries, entry{r.SrcRegion, r.SrcBucket, fmt.Sprintf("e%02d/", i)})
	}

	if replayDur <= 0 {
		replayDur = 2 * time.Minute
	}
	ops := trace.Generate(trace.DefaultConfig(replayDur, ratePerMin))
	for i := range ops {
		// The fleet scenario stresses the control plane, not bulk
		// transfer: clamp object sizes to the inline-plan regime.
		if ops[i].Size > 4<<20 {
			ops[i].Size = 4 << 20
		}
	}
	fmt.Printf("replaying %d trace operations over %s across %d entry buckets...\n",
		len(ops), replayDur, len(entries))
	trace.Replay(sim.World().Clock, ops, func(op trace.Op) {
		h := fnv.New32a()
		h.Write([]byte(op.Key))
		e := entries[int(h.Sum32()%uint32(len(entries)))]
		key := e.prefix + op.Key
		if op.Type == trace.OpDelete {
			_ = sim.DeleteObject(e.region, e.bucket, key)
			return
		}
		if _, err := sim.PutObject(e.region, e.bucket, key, op.Size); err != nil {
			fatal(err)
		}
	})
	sim.Wait()
	for i := 0; i < 3 && fl.DLQTotal() > 0; i++ {
		fmt.Printf("redriving %d dead-lettered events...\n", fl.RedriveAll())
		sim.Wait()
	}
	fl.PollMonitors()

	cost, diverged, audited := auditFleet(sim, fl, profilingCost)
	fmt.Printf("\nfleet: %d rules, %d pending, %d dead-lettered; audit %d/%d keys converged\n",
		fl.Size(), fl.PendingTotal(), fl.DLQTotal(), audited-diverged, audited)

	var admits, defers, starved, quotaWaits int64
	for _, st := range fl.SchedStats() {
		admits += st.Admits
		defers += st.Defers
		starved += st.Starved
		quotaWaits += st.QuotaWaits
	}
	bs := fl.BatchStats()
	fmt.Printf("scheduler: %d admits, %d defers, %d starvation marks, %d quota waits; %d batches (mean %.1f)\n",
		admits, defers, starved, quotaWaits, bs.Batches, bs.MeanSize)
	if lanes := fl.QuotaStats(); len(lanes) > 0 {
		fmt.Printf("%-10s %-18s %5s %10s %7s %7s\n", "provider", "region", "cap", "max_infl", "forced", "util")
		for _, l := range lanes {
			fmt.Printf("%-10s %-18s %5d %10d %7d %6.1f%%\n",
				l.Lane.Provider, l.Lane.Region, l.Cap, l.MaxInflight, l.Forced, l.UtilizationPct)
		}
	}
	if out.verbose {
		fmt.Printf("\n%-56s %7s %7s %7s %7s %6s\n", "rule", "admits", "defers", "starve", "qwaits", "maxq")
		for _, st := range fl.SchedStats() {
			fmt.Printf("%-56s %7d %7d %7d %7d %6d\n",
				st.Rule, st.Admits, st.Defers, st.Starved, st.QuotaWaits, st.MaxQueue)
		}
	}
	fmt.Printf("cost (excluding one-time profiling of $%.4f): $%.4f\n", profilingCost, cost)

	if out.status {
		fmt.Println()
		if err := fl.WriteHealthTable(os.Stdout); err != nil {
			fatal(err)
		}
	}
	if out.stats {
		fmt.Println()
		sim.World().Snapshot().Print(os.Stdout)
	}
	if out.metricsOut != "" {
		if err := writeFile(out.metricsOut, sim.World().Metrics.WriteText); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote metrics to %s\n", out.metricsOut)
	}
	if out.promOut != "" {
		if err := writeFile(out.promOut, sim.WriteMetricsProm); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote prometheus metrics to %s\n", out.promOut)
	}
	if out.eventsOut != "" {
		if err := writeFile(out.eventsOut, sim.WriteEvents); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d alert events to %s\n", sim.EventCount(), out.eventsOut)
	}
}

// writeFile creates path and streams write into it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseRetain maps the -retain flag onto a telemetry.RetentionPolicy:
// "all" keeps every trace (nil policy, the legacy default), "auto" keeps
// anomalies plus a 1-in-16 head sample, and "1/N" sets the head-sample
// rate explicitly.
func parseRetain(mode string, seed uint64) (*telemetry.RetentionPolicy, error) {
	switch mode {
	case "", "all":
		return nil, nil
	case "auto":
		return telemetry.NewSampledPolicy(seed, 16), nil
	}
	if rest, ok := strings.CutPrefix(mode, "1/"); ok {
		n, err := strconv.Atoi(rest)
		if err == nil && n >= 1 {
			return telemetry.NewSampledPolicy(seed, n), nil
		}
	}
	return nil, fmt.Errorf("invalid -retain %q (want all, auto, or 1/N)", mode)
}

// parseSize parses "512KB", "16MB", "1GB", or plain bytes.
func parseSize(s string) (int64, error) {
	u := strings.ToUpper(strings.TrimSpace(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(u, "GB"):
		mult, u = 1<<30, strings.TrimSuffix(u, "GB")
	case strings.HasSuffix(u, "MB"):
		mult, u = 1<<20, strings.TrimSuffix(u, "MB")
	case strings.HasSuffix(u, "KB"):
		mult, u = 1<<10, strings.TrimSuffix(u, "KB")
	case strings.HasSuffix(u, "B"):
		u = strings.TrimSuffix(u, "B")
	}
	n, err := strconv.ParseInt(strings.TrimSpace(u), 10, 64)
	if err != nil || n <= 0 || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("invalid size %q", s)
	}
	return n * mult, nil
}

func byteSize(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "areplica:", err)
	os.Exit(1)
}
