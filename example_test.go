package areplica_test

import (
	"fmt"
	"time"

	areplica "repro"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Quickstart: replicate a handful of objects from AWS to Azure with
// AReplica and print their replication delays and the dollars spent.
// Everything runs on a virtual clock inside the process: the "30 seconds"
// of simulated replication finish in milliseconds of wall time.
//
//	go test -run Example_quickstart -v .
func Example_quickstart() {
	// A simulated three-cloud world (13 regions across AWS, Azure, GCP).
	sim := areplica.NewSim()

	// Buckets on both sides.
	sim.MustCreateBucket("aws:us-east-1", "photos")
	sim.MustCreateBucket("azure:eastus", "photos-replica")

	// Deploy AReplica: this profiles the path (startup parameters,
	// per-chunk transfer distributions, notification delay) and wires the
	// replication engine to the source bucket's notifications.
	rep, err := sim.Deploy(areplica.Rule{
		SrcRegion: "aws:us-east-1", SrcBucket: "photos",
		DstRegion: "azure:eastus", DstBucket: "photos-replica",
		SLO: 30 * time.Second, // plans must meet this at p99
	})
	if err != nil {
		panic(err)
	}

	// Write some objects: a small one, a medium one, and a large one that
	// will be replicated by many cooperating function instances.
	for _, obj := range []struct {
		key  string
		size int64
	}{
		{"cat.jpg", 2 << 20},     // 2 MB
		{"video.mp4", 200 << 20}, // 200 MB
		{"dataset.tar", 1 << 30}, // 1 GB
	} {
		if _, err := sim.PutObject("aws:us-east-1", "photos", obj.key, obj.size); err != nil {
			panic(err)
		}
	}

	// Run the simulation until all replication has drained.
	sim.Wait()

	fmt.Println("replication delays (from source PUT to destination availability):")
	for _, r := range rep.Records() {
		ok := "within SLO"
		if r.Delay > 30*time.Second {
			ok = "SLO MISS"
		}
		fmt.Printf("  %-14s %8.1f MB  %6.2fs  %s\n",
			r.Key, float64(r.Size)/(1<<20), r.Delay.Seconds(), ok)
	}

	// Verify the replicas are byte-identical (ETags match).
	for _, key := range []string{"cat.jpg", "video.mp4", "dataset.tar"} {
		src, _ := sim.HeadObject("aws:us-east-1", "photos", key)
		dst, err := sim.HeadObject("azure:eastus", "photos-replica", key)
		if err != nil || src.ETag != dst.ETag {
			panic(fmt.Sprintf("replica of %s does not match: %v", key, err))
		}
	}
	fmt.Println("all replicas verified (ETags match)")
	fmt.Printf("total simulated cloud spend: $%.4f\n", sim.CostTotal())
	// Output:
	// replication delays (from source PUT to destination availability):
	//   cat.jpg             2.0 MB    1.00s  within SLO
	//   video.mp4         200.0 MB    2.83s  within SLO
	//   dataset.tar      1024.0 MB   18.32s  within SLO
	// all replicas verified (ETags match)
	// total simulated cloud spend: $0.2458
}

// Disaster recovery: continuously mirror a production bucket across
// clouds, then drill a regional outage and measure what a failover to the
// replica would lose (the effective RPO). The scenario follows the
// paper's motivating use case (§1): region-wide outages are not rare, and
// cross-cloud replication guards against a provider-wide incident too.
func Example_disasterRecovery() {
	const (
		primary       = "gcp:us-east1"
		standby       = "aws:us-east-1" // a different *cloud*, not just region
		primaryBucket = "orders"
		standbyBucket = "orders-dr"
		slo           = 15 * time.Second
	)
	sim := areplica.NewSim()
	sim.MustCreateBucket(primary, primaryBucket)
	sim.MustCreateBucket(standby, standbyBucket)

	rep, err := sim.Deploy(areplica.Rule{
		SrcRegion: primary, SrcBucket: primaryBucket,
		DstRegion: standby, DstBucket: standbyBucket,
		SLO: slo, Percentile: 0.99,
	})
	if err != nil {
		panic(err)
	}

	// Production traffic: order snapshots written every few seconds, plus
	// occasional deletions of cancelled orders.
	written := map[string]string{} // key -> latest ETag at the primary
	sim.Go(func() {
		for i := 0; i < 40; i++ {
			key := fmt.Sprintf("order-%04d.json", i%12)
			info, err := sim.PutObject(primary, primaryBucket, key, int64(64<<10+(i*7919)%(4<<20)))
			if err != nil {
				panic(err)
			}
			written[key] = info.ETag
			if i%9 == 8 { // a cancellation
				del := fmt.Sprintf("order-%04d.json", (i-4)%12)
				if err := sim.DeleteObject(primary, primaryBucket, del); err != nil {
					panic(err)
				}
				delete(written, del)
			}
			sim.Sleep(2 * time.Second)
		}
	})

	// 50 seconds into the workload: the primary region "goes dark". At
	// that instant, how far behind is the standby?
	sim.Sleep(50 * time.Second)
	behind := rep.Pending()
	outageAt := sim.Now()
	fmt.Printf("OUTAGE DRILL at t+50s: %d write(s) not yet replicated (RPO exposure)\n", behind)

	// Let the remaining traffic and replication drain.
	sim.Wait()

	// Failover check: every surviving order must exist at the standby with
	// the primary's exact content.
	var missing, stale int
	for key, etag := range written {
		obj, err := sim.HeadObject(standby, standbyBucket, key)
		switch {
		case err != nil:
			missing++
		case obj.ETag != etag:
			stale++
		}
	}
	fmt.Printf("failover audit: %d orders checked, %d missing, %d stale\n", len(written), missing, stale)

	// Replication-lag report for the whole run.
	var worst time.Duration
	var sloMisses int
	for _, r := range rep.Records() {
		if r.Delay > worst {
			worst = r.Delay
		}
		if r.Delay > slo {
			sloMisses++
		}
	}
	fmt.Printf("writes replicated: %d, worst lag %.1fs, SLO misses %d\n",
		len(rep.Records()), worst.Seconds(), sloMisses)
	fmt.Printf("drill timestamp: %s (virtual)\n", outageAt.Format(time.RFC3339))
	fmt.Printf("cross-cloud DR spend: $%.4f\n", sim.CostTotal())
	// Output:
	// OUTAGE DRILL at t+50s: 0 write(s) not yet replicated (RPO exposure)
	// failover audit: 11 orders checked, 0 missing, 0 stale
	// writes replicated: 44, worst lag 3.3s, SLO misses 0
	// drill timestamp: 2026-01-01T00:03:50Z (virtual)
	// cross-cloud DR spend: $0.1839
}

// ML model distribution: push a multi-gigabyte model artifact from a
// training region to serving regions on three clouds at once — the
// emerging use case of §6 (global distribution of ML artifacts), where
// AReplica's burst parallelism shines. A changelog hint also shows the
// near-zero-cost path: promoting the evaluated candidate to "production"
// is a COPY, so only the hint crosses the wide area.
func Example_mlDistribution() {
	const (
		trainRegion = "aws:us-east-1"
		modelBucket = "models"
		modelSize   = int64(20) << 30 // a 20 GB checkpoint
	)
	serving := []struct{ region, bucket string }{
		{"aws:ap-northeast-1", "models-tokyo"},
		{"azure:uksouth", "models-london"},
		{"gcp:us-west1", "models-oregon"},
	}
	sim := areplica.NewSim()
	sim.MustCreateBucket(trainRegion, modelBucket)

	// One replication rule per serving region; they share one performance
	// model, so the source region is profiled once.
	reps := make([]*areplica.Replication, len(serving))
	for i, s := range serving {
		sim.MustCreateBucket(s.region, s.bucket)
		rep, err := sim.Deploy(areplica.Rule{
			SrcRegion: trainRegion, SrcBucket: modelBucket,
			DstRegion: s.region, DstBucket: s.bucket,
			SLO:       0, // fastest plan: deployment time is what matters
			Changelog: true,
		})
		if err != nil {
			panic(err)
		}
		reps[i] = rep
	}
	deployCostBase := sim.CostTotal() // profiling, excluded below

	// Training finishes: publish the candidate checkpoint.
	fmt.Printf("publishing %d GB checkpoint to %d regions on 3 clouds...\n",
		modelSize>>30, len(serving))
	candidate, err := sim.PutObject(trainRegion, modelBucket, "resnet-v42-candidate.bin", modelSize)
	if err != nil {
		panic(err)
	}
	sim.Wait()

	var slowest time.Duration
	for i, s := range serving {
		recs := reps[i].Records()
		d := recs[len(recs)-1].Delay
		if d > slowest {
			slowest = d
		}
		fmt.Printf("  %-22s available after %6.1fs\n", s.region, d.Seconds())
	}
	fmt.Printf("global rollout complete in %.1fs (worst region)\n", slowest.Seconds())
	fmt.Printf("distribution cost: $%.2f\n", sim.CostTotal()-deployCostBase)

	// Promotion: production points at the same bytes. Register the COPY
	// changelog with each rule so no region re-downloads 20 GB.
	preCost := sim.CostTotal()
	promoted, err := sim.CopyObject(trainRegion, modelBucket, "resnet-v42-candidate.bin", "resnet-production.bin")
	if err != nil {
		panic(err)
	}
	for _, rep := range reps {
		err := rep.RegisterCopy("resnet-production.bin", promoted.ETag,
			"resnet-v42-candidate.bin", candidate.ETag)
		if err != nil {
			panic(err)
		}
	}
	sim.Wait()

	for _, s := range serving {
		obj, err := sim.HeadObject(s.region, s.bucket, "resnet-production.bin")
		if err != nil || obj.ETag != promoted.ETag {
			panic(fmt.Sprintf("promotion missing at %s: %v", s.region, err))
		}
	}
	fmt.Printf("promotion propagated via changelogs for $%.6f (vs $%.2f for full copies)\n",
		sim.CostTotal()-preCost, preCost-deployCostBase)
	// Output:
	// publishing 20 GB checkpoint to 3 regions on 3 clouds...
	//   aws:ap-northeast-1     available after    7.2s
	//   azure:uksouth          available after    6.6s
	//   gcp:us-west1           available after    5.9s
	// global rollout complete in 7.2s (worst region)
	// distribution cost: $4.08
	// promotion propagated via changelogs for $0.000038 (vs $4.08 for full copies)
}

// Trace replay: drive AReplica with a bursty, production-like object
// storage workload (the synthetic stand-in for the IBM COS traces) and
// report tail replication delay against the SLO — a small-scale version
// of the paper's Figure 23 experiment.
func Example_traceReplay() {
	const (
		src, dst = "aws:us-east-1", "aws:us-east-2"
		slo      = 10 * time.Second
	)
	sim := areplica.NewSim()
	sim.MustCreateBucket(src, "tenant")
	sim.MustCreateBucket(dst, "tenant-replica")

	rep, err := sim.Deploy(areplica.Rule{
		SrcRegion: src, SrcBucket: "tenant",
		DstRegion: dst, DstBucket: "tenant-replica",
		SLO: slo, Percentile: 0.99,
	})
	if err != nil {
		panic(err)
	}

	// A 15-minute busy-tenant trace: skewed sizes, bursty minute rates.
	ops := trace.Generate(trace.DefaultConfig(15*time.Minute, 120))
	var puts, small int
	var bytes int64
	for _, op := range ops {
		if op.Type == trace.OpPut {
			puts++
			bytes += op.Size
			if op.Size <= 1<<20 {
				small++
			}
		}
	}
	fmt.Printf("replaying %d ops (%d PUT / %d DELETE, %.2f GB, %.0f%% PUTs <= 1MB)\n",
		len(ops), puts, len(ops)-puts, float64(bytes)/(1<<30), 100*float64(small)/float64(puts))

	trace.Replay(sim.World().Clock, ops, func(op trace.Op) {
		if op.Type == trace.OpDelete {
			_ = sim.DeleteObject(src, "tenant", op.Key) // a never-written key is a no-op
			return
		}
		if _, err := sim.PutObject(src, "tenant", op.Key, op.Size); err != nil {
			panic(err)
		}
	})
	sim.Wait()

	records := rep.Records()
	delays := make([]float64, len(records))
	within := 0
	for i, r := range records {
		delays[i] = r.Delay.Seconds()
		if r.Delay <= slo {
			within++
		}
	}
	fmt.Printf("resolved %d replications (pending %d)\n", len(records), rep.Pending())
	fmt.Printf("delay: p50 %.2fs  p99 %.2fs  p99.99 %.2fs  max %.2fs\n",
		stats.Percentile(delays, 50), stats.Percentile(delays, 99),
		stats.Percentile(delays, 99.99), stats.Percentile(delays, 100))
	fmt.Printf("SLO %s attainment: %.2f%%\n", slo, 100*float64(within)/float64(len(records)))
	fmt.Printf("total spend: $%.4f\n", sim.CostTotal())
	// Output:
	// replaying 2763 ops (2654 PUT / 109 DELETE, 42.13 GB, 82% PUTs <= 1MB)
	// resolved 2708 replications (pending 0)
	// delay: p50 0.71s  p99 4.99s  p99.99 6.90s  max 6.91s
	// SLO 10s attainment: 100.00%
	// total spend: $0.9530
}

// Content delivery: replicate a media library toward the regions where
// users actually are, then compare user-visible read latency and repeated
// egress cost against serving everything from the origin — the paper's
// §2 motivation for cross-cloud/region bucket replication.
func Example_contentDelivery() {
	const origin = "aws:us-east-1"
	// Edge sites on other clouds/continents, each with its local user base.
	edges := []struct{ region, bucket, users string }{
		{"aws:eu-west-1", "media-eu", "Dublin"},
		{"gcp:asia-northeast1", "media-asia", "Tokyo"},
		{"azure:westus2", "media-west", "Seattle"},
	}
	sim := areplica.NewSim()
	sim.MustCreateBucket(origin, "media")

	// Deploy one replication rule per edge, sharing profiling work.
	for _, e := range edges {
		sim.MustCreateBucket(e.region, e.bucket)
		if _, err := sim.Deploy(areplica.Rule{
			SrcRegion: origin, SrcBucket: "media",
			DstRegion: e.region, DstBucket: e.bucket,
			SLO: 30 * time.Second,
		}); err != nil {
			panic(err)
		}
	}

	// Publish the library: a handful of 4-32 MB assets.
	assets := []string{"trailer.mp4", "keyart.png", "episode-01.m4s", "episode-02.m4s"}
	for i, key := range assets {
		if _, err := sim.PutObject(origin, "media", key, int64(4+(i*9)%28)<<20); err != nil {
			panic(err)
		}
	}
	sim.Wait() // replicas converge

	// Each edge's users fetch every asset twice — once from the origin
	// (the pre-replication world) and once from their local replica.
	fmt.Printf("%-10s %-22s %14s %14s %9s\n", "users", "nearest replica", "origin read", "local read", "speedup")
	costBefore := sim.CostTotal()
	var originEgress float64
	for _, e := range edges {
		var fromOrigin, fromEdge time.Duration
		for _, key := range assets {
			d, err := sim.ReadObject(e.region, origin, "media", key)
			if err != nil {
				panic(err)
			}
			fromOrigin += d
		}
		originEgress += sim.CostTotal() - costBefore - originEgress
		for _, key := range assets {
			d, err := sim.ReadObject(e.region, e.region, e.bucket, key)
			if err != nil {
				panic(err)
			}
			fromEdge += d
		}
		fmt.Printf("%-10s %-22s %13.2fs %13.2fs %8.1fx\n",
			e.users, e.region, fromOrigin.Seconds(), fromEdge.Seconds(),
			float64(fromOrigin)/float64(fromEdge))
	}

	// Repeated origin reads keep paying egress; local reads are free.
	fmt.Printf("\negress paid for one origin-read round: $%.4f; local reads: $0 per round thereafter\n", originEgress)
	fmt.Printf("one-time replication spend (incl. profiling): $%.4f\n", costBefore)
	// Output:
	// users      nearest replica           origin read     local read   speedup
	// Dublin     aws:eu-west-1                   2.03s          0.44s      4.6x
	// Tokyo      gcp:asia-northeast1             4.87s          0.58s      8.4x
	// Seattle    azure:westus2                   2.12s          0.46s      4.6x
	//
	// egress paid for one origin-read round: $0.0137; local reads: $0 per round thereafter
	// one-time replication spend (incl. profiling): $0.3230
}

// Active-active: two regions both accept writes and mirror each other.
// Replica writes carry an origin tag, so the opposite rule never
// re-replicates them — no ping-pong — while application writes from
// either side converge everywhere (the multi-region active-active
// architecture the paper's introduction cites as a replication use case).
func Example_activeActive() {
	const (
		east, eastBucket = "aws:us-east-1", "sessions-east"
		west, westBucket = "gcp:us-west1", "sessions-west"
	)
	sim := areplica.NewSim()
	sim.MustCreateBucket(east, eastBucket)
	sim.MustCreateBucket(west, westBucket)

	deploy := func(srcR, srcB, dstR, dstB string) *areplica.Replication {
		rep, err := sim.Deploy(areplica.Rule{
			SrcRegion: srcR, SrcBucket: srcB,
			DstRegion: dstR, DstBucket: dstB,
			SLO: 15 * time.Second,
		})
		if err != nil {
			panic(err)
		}
		return rep
	}
	e2w := deploy(east, eastBucket, west, westBucket)
	w2e := deploy(west, westBucket, east, eastBucket)

	// Two independent writer populations, sharded by key prefix so writes
	// never conflict (the standard active-active discipline).
	writes := 0
	writer := func(region, bucket, prefix string) {
		for i := 0; i < 12; i++ {
			key := fmt.Sprintf("%s/session-%03d.json", prefix, i)
			if _, err := sim.PutObject(region, bucket, key, 256<<10); err != nil {
				panic(err)
			}
			writes++
			sim.Sleep(2 * time.Second)
		}
	}
	sim.Go(func() { writer(east, eastBucket, "us") })
	sim.Go(func() { writer(west, westBucket, "eu") })
	sim.Wait()

	// Audit: both sides hold all 24 sessions, and neither rule replicated
	// more than its side's 12 application writes (no loops).
	for _, side := range []struct{ region, bucket string }{
		{east, eastBucket}, {west, westBucket},
	} {
		count := 0
		for i := 0; i < 12; i++ {
			for _, prefix := range []string{"us", "eu"} {
				key := fmt.Sprintf("%s/session-%03d.json", prefix, i)
				if _, err := sim.HeadObject(side.region, side.bucket, key); err == nil {
					count++
				}
			}
		}
		fmt.Printf("%-22s holds %d/24 sessions\n", side.region, count)
	}
	fmt.Printf("east->west: %s\n", e2w.Summary())
	fmt.Printf("west->east: %s\n", w2e.Summary())
	fmt.Printf("replicated writes: %d + %d (application writes: %d; replica writes were not re-replicated)\n",
		len(e2w.Records()), len(w2e.Records()), writes)
	// Output:
	// aws:us-east-1          holds 24/24 sessions
	// gcp:us-west1           holds 24/24 sessions
	// east->west: resolved=12 pending=0 dlq=0 p50=1.31s p99=1.70s p99.99=1.71s max=1.71s slo=100.00%
	// west->east: resolved=12 pending=0 dlq=0 p50=1.16s p99=1.73s p99.99=1.75s max=1.75s slo=100.00%
	// replicated writes: 12 + 12 (application writes: 24; replica writes were not re-replicated)
}
