package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"time"

	areplica "repro"
	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/objstore"
	"repro/internal/simrand"
	"repro/internal/trace"
)

// The sizes below fix what one iteration of each workload replays at
// -scale 1. They are chosen so an iteration's measured window is about two
// seconds on the 2-core reference box, which lets a run of run_seconds
// take the median over several iterations. Changing any of them changes
// every number the benchmark reports: do it only in a `benchmark` issue
// and regenerate bench/inputs.json and bench/results/reference.json.
const (
	fleetRules      = 1000
	fleetOps        = 12000
	fleetRatePerMin = 180 // the fleet-day rate: ~260 k operations a day
	fleetMaxSize    = 4 << 20

	tailOps        = 700
	tailRatePerMin = 600 // ~4 % of operations are in the tail: one every few seconds
	tailMinSize    = 16 << 20

	chaosOps        = 2500
	chaosRatePerMin = 3000 // dense enough that the 30 s partition hits hundreds of writes
	chaosMinSize    = 1 << 20
	chaosMaxSize    = 256 << 20
	chaosPutTries   = 8
	maxRedrives     = 3

	backfillKeys    = 36000
	backfillMaxSize = 1 << 20
	tamperFrac      = 0.02

	profileRounds = 6
	sloHeadline   = 10 * time.Second // the paper's sub-10-second promise
)

const (
	awsEast   = "aws:us-east-1"
	azureEast = "azure:eastus"
	gcpEast   = "gcp:us-east1"
	gcpEU     = "gcp:europe-west6"
)

// workload is one benchmark input family. build is the set-up (world,
// rules, trace, pre-population); the returned testbed's run is the measured
// window.
type workload struct {
	name  string
	why   string
	build func(seed uint64, scale float64) (*testbed, error)
}

var workloads = []workload{
	{"fleet-small", "1000 rules, objects up to 4 MB: every write takes the single-function path, so simclock hand-off, fleet scheduler/quota, tracker, objstore put+notify and KV lock ops do the work", buildFleetSmall},
	{"heavy-tail", "three cross-cloud rules fed only the tail of 16 MB and up: the distributed part pool, leases, hedging and lanes that fleet-small never runs; no fleet scheduler", buildHeavyTail},
	{"chaos-mixed", "the same three rules under mixed chaos with scrub: retry, breaker, lease reclaim, resume, DLQ and repair, so a happy-path gain that costs recovery shows", buildChaosMixed},
	{"backfill-scrub", "objects exist before deploy, then replicas are damaged: List/Scan/Head, Merkle builds and Backfill/Repair dispatch instead of put+notify", buildBackfillScrub},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// bucketRef names one bucket; prefix scopes the keys an entry point writes.
type bucketRef struct {
	region, bucket, prefix string
}

// pair is one (source, destination) bucket pair the audit compares.
type pair struct {
	src, dst bucketRef
}

// testbed is one built iteration: the simulated clouds, the deployed rules,
// the generated operations and the measured window over them.
type testbed struct {
	sim   *areplica.Sim
	fleet *areplica.Fleet // nil unless the workload deploys a fleet
	// faults marks a workload that injects faults: residual divergence and
	// duplicate final writes are then counted, not gate failures.
	faults bool
	reps   []*areplica.Replication
	pairs  []pair
	sinks  []*sink

	ops    int    // operations the driver will attempt
	digest uint64 // FNV-64a over the generated op list
	run    func(w *testbed, out *driverStats)
}

// driverStats is what the one driving actor observes about its own load.
type driverStats struct {
	attempted  int           // PUT/DELETE operations issued (incl. pre-population)
	exhausted  int           // operations that failed every retry
	retried    int           // operations that needed at least one retry
	userBytes  int64         // bytes of user data the rules must replicate
	genLate    time.Duration // worst issue lateness against the trace timestamp
	lastWrite  time.Time     // virtual instant of the last source write (or of SyncExisting)
	redriven   int
	scrubRound int
	unclean    int // rules whose scrub did not reach a clean round
}

// sink subscribes to one destination bucket, counting replicas (final
// writes landed by a rule) and detecting duplicate final writes: a new
// version whose content equals the one already current. The clock runs one
// actor at a time, so it needs no lock.
type sink struct {
	ref      bucketRef
	replicas int64
	dups     int
	dupKey   string
	last     map[string]sinkVer
}

type sinkVer struct {
	seq  uint64
	etag string
}

func (s *sink) observe(ev objstore.Event) {
	cur := s.last[ev.Key]
	if ev.Seq <= cur.seq {
		return // a re-delivered notification, not a new write
	}
	if ev.Type != objstore.EventPut {
		s.last[ev.Key] = sinkVer{seq: ev.Seq} // deleted: any content may follow
		return
	}
	if ev.Origin != "" {
		s.replicas++
	}
	if ev.ETag != "" && cur.etag == ev.ETag {
		s.dups++
		s.dupKey = ev.Key
	}
	s.last[ev.Key] = sinkVer{seq: ev.Seq, etag: ev.ETag}
}

// watch subscribes one sink per distinct destination bucket of pairs.
func (w *testbed) watch() error {
	seen := make(map[bucketRef]bool)
	for _, p := range w.pairs {
		ref := bucketRef{region: p.dst.region, bucket: p.dst.bucket}
		if seen[ref] {
			continue
		}
		seen[ref] = true
		rid, err := cloud.ParseRegionID(ref.region)
		if err != nil {
			return err
		}
		s := &sink{ref: ref, last: make(map[string]sinkVer)}
		if err := w.sim.World().Region(rid).Obj.Subscribe(ref.bucket, s.observe); err != nil {
			return fmt.Errorf("subscribe %s/%s: %w", ref.region, ref.bucket, err)
		}
		w.sinks = append(w.sinks, s)
	}
	return nil
}

// digestOps folds the generated op list and its routing into one FNV-64a
// value, so a change to internal/trace or to a topology builder cannot
// silently change what a workload replays.
func digestOps(ops []trace.Op, route func(key string) bucketRef) uint64 {
	h := fnv.New64a()
	for _, op := range ops {
		t := route(op.Key)
		fmt.Fprintf(h, "%d|%s|%s%s|%d|%s/%s\n", op.At, op.Type, t.prefix, op.Key, op.Size, t.region, t.bucket)
	}
	return h.Sum64()
}

func keyShard(key string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// replay issues ops open-loop in virtual time: each operation runs in its
// own clock actor at its trace timestamp, whatever the system's backlog.
// Failed operations retry up to tries times with exponential backoff.
func (w *testbed) replay(ops []trace.Op, route func(key string) bucketRef, tries int, out *driverStats) {
	clock := w.sim.World().Clock
	start := clock.Now()
	trace.Replay(clock, ops, func(op trace.Op) {
		if late := clock.Now().Sub(start.Add(op.At)); late > out.genLate {
			out.genLate = late
		}
		t := route(op.Key)
		key := t.prefix + op.Key
		out.attempted++
		var err error
		for try := 0; try < tries; try++ {
			if try == 1 {
				out.retried++
			}
			if try > 0 {
				clock.Sleep(250 * time.Millisecond << uint(try-1))
			}
			if op.Type == trace.OpDelete {
				err = w.sim.DeleteObject(t.region, t.bucket, key)
			} else {
				_, err = w.sim.PutObject(t.region, t.bucket, key, op.Size)
			}
			if err == nil {
				break
			}
		}
		if err != nil {
			out.exhausted++
			return
		}
		if op.Type == trace.OpPut {
			out.userBytes += op.Size
		}
	})
	out.lastWrite = start.Add(ops[len(ops)-1].At)
}

// scaled shrinks a count for tests; the floor keeps tiny scales meaningful.
func scaled(n int, scale float64, floor int) int {
	return max(int(float64(n)*scale), floor)
}

// sizeLaw is the trace generator's PUT-size law as a sorted table of
// draws. It is the same for every seed: a seed decides which operation
// gets which size, not which sizes exist.
var sizeLaw = sync.OnceValue(func() []int64 {
	rng := simrand.New("bench-size-law")
	law := make([]int64, 200_000)
	for i := range law {
		law[i] = trace.SampleSize(rng)
	}
	sort.Slice(law, func(i, j int) bool { return law[i] < law[j] })
	return law
})

// stratified returns n sizes that are the n-quantiles of the size law
// restricted to [lo, hi], in an order rng picks. Every seed therefore
// writes the same multiset of sizes, which keeps bytes, parts and dollars
// per run steady across seeds; an independent draw per object would let a
// handful of gigabyte objects decide a run's totals.
func stratified(lo, hi int64, n int, rng *rand.Rand) []int64 {
	law := sizeLaw()
	band := law[sort.Search(len(law), func(i int) bool { return law[i] >= lo }):sort.Search(len(law), func(i int) bool { return law[i] > hi })]
	out := make([]int64, n)
	for i, p := range rng.Perm(n) {
		out[i] = band[int((float64(p)+0.5)/float64(n)*float64(len(band)))]
	}
	return out
}

// generate returns the first n operations of the seeded bursty trace whose
// PUT sizes fall in [lo, hi] (with the DELETEs of keys such PUTs wrote), so
// burst timing, key popularity and the PUT/DELETE mix come from the trace;
// the sizes are then re-dealt by stratified and passed through shape.
func generate(name string, seed uint64, n int, ratePerMin float64, lo, hi int64, shape func(int64) int64) []trace.Op {
	var ops []trace.Op
	for span := time.Duration(float64(n)/ratePerMin*float64(time.Minute)) + time.Minute; len(ops) < n; span *= 2 {
		cfg := trace.DefaultConfig(span, ratePerMin)
		cfg.Seed = fmt.Sprintf("bench-%s-%d", name, seed)
		ops = sizeBand(trace.Generate(cfg), lo, hi)
	}
	ops = ops[:n]
	puts := 0
	for _, op := range ops {
		if op.Type == trace.OpPut {
			puts++
		}
	}
	sizes := stratified(lo, hi, puts, simrand.New("bench-sizes", name, fmt.Sprint(seed)))
	for i := range ops {
		if ops[i].Type == trace.OpPut {
			ops[i].Size = shape(sizes[0])
			sizes = sizes[1:]
		}
	}
	return ops
}

func asIs(size int64) int64 { return size }

// fleetTopology is the fleet-day mix at n rules: 16-way fan-outs on three
// quarters of the budget (sources cycling three east regions, the first
// group weight 2), two 3-hop chains, one 3-region mesh at priority 1 and
// direct pairs filling the rest. It returns the rules and the buckets user
// writes enter through.
func fleetTopology(n int) ([]areplica.FleetRule, []bucketRef, error) {
	regions := []string{awsEast, azureEast, gcpEast}
	var rules []areplica.FleetRule
	var entries []bucketRef

	const fanWidth = 16
	fanGroups := max(n*3/4/fanWidth, 1)
	for g := 0; g < fanGroups; g++ {
		src, bucket := regions[g%3], fmt.Sprintf("fan-%03d", g)
		var dsts []areplica.FleetDst
		for i := 0; i < fanWidth; i++ {
			dsts = append(dsts, areplica.FleetDst{
				Region: regions[(g+1+i%2)%3],
				Bucket: fmt.Sprintf("%s-dst-%02d", bucket, i),
			})
		}
		fan, err := areplica.FanOut(src, bucket, dsts...)
		if err != nil {
			return nil, nil, err
		}
		if g == 0 {
			for i := range fan {
				fan[i].Weight = 2
			}
		}
		rules = append(rules, fan...)
		entries = append(entries, bucketRef{region: src, bucket: bucket})
	}
	for ci, order := range [][]string{
		{regions[0], regions[1], regions[2]},
		{regions[1], regions[2], regions[0]},
	} {
		bucket := fmt.Sprintf("chain-%c", 'a'+ci)
		hops := make([]areplica.FleetHop, len(order))
		for i, r := range order {
			hops[i] = areplica.FleetHop{Region: r, Bucket: bucket}
		}
		chain, err := areplica.Chain(hops...)
		if err != nil {
			return nil, nil, err
		}
		rules = append(rules, chain...)
		entries = append(entries, bucketRef{region: order[0], bucket: bucket})
	}
	mesh, err := areplica.FullMesh("mesh", regions...)
	if err != nil {
		return nil, nil, err
	}
	for i := range mesh {
		mesh[i].Priority = 1
	}
	rules = append(rules, mesh...)
	for i, r := range regions {
		entries = append(entries, bucketRef{region: r, bucket: "mesh", prefix: fmt.Sprintf("site%d/", i)})
	}
	for i := 0; len(rules) < n; i++ {
		src, dst := regions[i%3], regions[(i%3+1+i/3%2)%3] // all six ordered pairs in turn
		bucket := fmt.Sprintf("dir-%03d", i)
		rules = append(rules, areplica.FleetRule{
			SrcRegion: src, SrcBucket: bucket,
			DstRegion: dst, DstBucket: bucket + "-replica",
		})
		entries = append(entries, bucketRef{region: src, bucket: bucket})
	}
	return rules, entries, nil
}

// quantize rounds a size up to the next power of two (floor 64 KB, clamped
// to limit), so the planner's fastest-plan memo serves nearly every write.
func quantize(size, limit int64) int64 {
	q := int64(64 << 10)
	for q < size && q < limit {
		q <<= 1
	}
	return min(q, limit)
}

func buildFleetSmall(seed uint64, scale float64) (*testbed, error) {
	nRules := scaled(fleetRules, scale, 60)
	rules, entries, err := fleetTopology(nRules)
	if err != nil {
		return nil, err
	}
	w := &testbed{sim: areplica.NewSim()}
	w.fleet, err = w.sim.DeployFleet(rules, areplica.FleetOptions{
		FaaSConcurrency: 256,
		KVOpsPerSec:     20000,
		LaneSlots:       64,
		ProfileRounds:   profileRounds,
	})
	if err != nil {
		return nil, err
	}
	w.reps = w.fleet.Replications()
	for _, r := range rules {
		w.pairs = append(w.pairs, pair{
			src: bucketRef{region: r.SrcRegion, bucket: r.SrcBucket},
			dst: bucketRef{region: r.DstRegion, bucket: r.DstBucket},
		})
	}
	if err := w.watch(); err != nil {
		return nil, err
	}

	ops := generate("fleet-small", seed, scaled(fleetOps, scale, 300), fleetRatePerMin, 1, 1<<62,
		func(size int64) int64 { return quantize(size, fleetMaxSize) })
	route := func(key string) bucketRef { return entries[keyShard(key, len(entries))] }
	w.ops, w.digest = len(ops), digestOps(ops, route)
	w.run = func(w *testbed, out *driverStats) {
		w.replay(ops, route, 1, out)
		w.sim.Wait()
		for i := 0; i < maxRedrives && w.fleet.DLQTotal() > 0; i++ {
			out.redriven += w.fleet.RedriveAll()
			w.sim.Wait()
		}
	}
	return w, nil
}

// tailRules are three asymmetric cross-cloud pairs, one per source vendor.
var tailRules = []pair{
	{bucketRef{region: awsEast, bucket: "tail-a"}, bucketRef{region: gcpEU, bucket: "tail-a-replica"}},
	{bucketRef{region: azureEast, bucket: "tail-b"}, bucketRef{region: awsEast, bucket: "tail-b-replica"}},
	{bucketRef{region: gcpEast, bucket: "tail-c"}, bucketRef{region: azureEast, bucket: "tail-c-replica"}},
}

// deployTailRules deploys the three single rules without a fleet.
func deployTailRules(w *testbed, scrub bool) error {
	for _, p := range tailRules {
		w.sim.MustCreateBucket(p.src.region, p.src.bucket)
		w.sim.MustCreateBucket(p.dst.region, p.dst.bucket)
		rep, err := w.sim.Deploy(areplica.Rule{
			SrcRegion: p.src.region, SrcBucket: p.src.bucket,
			DstRegion: p.dst.region, DstBucket: p.dst.bucket,
			Scrub:         scrub,
			ProfileRounds: profileRounds,
		})
		if err != nil {
			return err
		}
		w.reps = append(w.reps, rep)
		w.pairs = append(w.pairs, p)
	}
	return w.watch()
}

// sizeBand keeps the trace's PUTs whose size lies in [lo, hi] and the
// DELETEs of keys such a PUT has already written, preserving burst timing.
func sizeBand(ops []trace.Op, lo, hi int64) []trace.Op {
	written := make(map[string]bool)
	var out []trace.Op
	for _, op := range ops {
		switch {
		case op.Type == trace.OpPut && op.Size >= lo && op.Size <= hi:
			written[op.Key] = true
			out = append(out, op)
		case op.Type == trace.OpDelete && written[op.Key]:
			delete(written, op.Key)
			out = append(out, op)
		}
	}
	return out
}

func routeTail(key string) bucketRef { return tailRules[keyShard(key, len(tailRules))].src }

func buildHeavyTail(seed uint64, scale float64) (*testbed, error) {
	w := &testbed{sim: areplica.NewSim()}
	if err := deployTailRules(w, false); err != nil {
		return nil, err
	}
	ops := generate("heavy-tail", seed, scaled(tailOps, scale, 12), tailRatePerMin, tailMinSize, 1<<62, asIs)
	w.ops, w.digest = len(ops), digestOps(ops, routeTail)
	w.run = func(w *testbed, out *driverStats) {
		w.replay(ops, routeTail, 1, out)
		w.sim.Wait()
	}
	return w, nil
}

func buildChaosMixed(seed uint64, scale float64) (*testbed, error) {
	w := &testbed{sim: areplica.NewSim(), faults: true}
	if err := deployTailRules(w, true); err != nil {
		return nil, err
	}
	// At least 150 operations, so that writes still arrive while the
	// partition (20 s to 50 s after arming) is up.
	ops := generate("chaos-mixed", seed, scaled(chaosOps, scale, 150), chaosRatePerMin, chaosMinSize, chaosMaxSize, asIs)
	prof, err := chaos.Parse(fmt.Sprintf("mixed@%d", seed))
	if err != nil {
		return nil, err
	}
	w.ops, w.digest = len(ops), digestOps(ops, routeTail)
	w.run = func(w *testbed, out *driverStats) {
		// Chaos arms after deploy so profiling fits a clean model, and stays
		// armed through redrive and scrub: recovery runs under fault too.
		w.sim.World().SetChaos(prof)
		w.replay(ops, routeTail, chaosPutTries, out)
		w.sim.Wait()
		for i := 0; i < maxRedrives; i++ {
			n := 0
			for _, rep := range w.reps {
				n += rep.RedriveDLQ()
			}
			if n == 0 {
				break
			}
			out.redriven += n
			w.sim.Wait()
		}
		w.scrubAll(out)
		w.sim.Wait()
		w.sim.World().SetChaos(chaos.Profile{}) // the audit itself must not fail
	}
	return w, nil
}

// scrubAll runs every rule's scrubber until clean (or its round cap).
func (w *testbed) scrubAll(out *driverStats) {
	for _, rep := range w.reps {
		r, err := rep.ScrubUntilClean()
		out.scrubRound += r.Rounds
		if err != nil || !r.Clean {
			out.unclean++
		}
	}
}

func buildBackfillScrub(seed uint64, scale float64) (*testbed, error) {
	w := &testbed{sim: areplica.NewSim()}
	p := pair{
		bucketRef{region: awsEast, bucket: "archive"},
		bucketRef{region: gcpEast, bucket: "archive-replica"},
	}
	w.sim.MustCreateBucket(p.src.region, p.src.bucket)
	w.sim.MustCreateBucket(p.dst.region, p.dst.bucket)

	// The op list is: one PUT per pre-existing key at time 0, then the
	// damage done to the replica bucket once backfill has converged.
	n := scaled(backfillKeys, scale, 200)
	rng := simrand.New("bench-backfill", fmt.Sprint(seed))
	var ops []trace.Op
	for i, size := range stratified(1, 1<<62, n, rng) {
		ops = append(ops, trace.Op{Type: trace.OpPut, Key: fmt.Sprintf("obj-%06d", i), Size: min(size, backfillMaxSize)})
	}
	var damage []trace.Op
	for i := 0; i < int(float64(n)*tamperFrac); i++ {
		victim := ops[rng.Intn(n)]
		switch i % 3 {
		case 0: // replica lost
			damage = append(damage, trace.Op{At: 1, Type: trace.OpDelete, Key: victim.Key})
		case 1: // replica overwritten with other content
			damage = append(damage, trace.Op{At: 1, Type: trace.OpPut, Key: victim.Key, Size: victim.Size + 1})
		case 2: // orphan the source never held
			damage = append(damage, trace.Op{At: 1, Type: trace.OpPut, Key: fmt.Sprintf("orphan-%06d", i), Size: 1 + rng.Int63n(backfillMaxSize)})
		}
	}
	w.digest = digestOps(append(ops[:n:n], damage...), func(string) bucketRef { return p.src })
	w.ops = n

	var pre driverStats
	if err := populate(w, p.src, ops, &pre); err != nil {
		return nil, err
	}
	rep, err := w.sim.Deploy(areplica.Rule{
		SrcRegion: p.src.region, SrcBucket: p.src.bucket,
		DstRegion: p.dst.region, DstBucket: p.dst.bucket,
		Scrub:         true,
		ProfileRounds: profileRounds,
	})
	if err != nil {
		return nil, err
	}
	w.reps, w.pairs = []*areplica.Replication{rep}, []pair{p}
	if err := w.watch(); err != nil {
		return nil, err
	}
	w.run = func(w *testbed, out *driverStats) {
		*out = pre
		out.lastWrite = w.sim.Now()
		if _, err := rep.SyncExisting(); err != nil {
			panic(err) // no chaos is armed: a listing failure here is a bug
		}
		w.sim.Wait()
		if err := populate(w, p.dst, damage, &driverStats{}); err != nil {
			panic(err)
		}
		w.scrubAll(out)
		w.sim.Wait()
	}
	return w, nil
}

// populate applies ops to one bucket directly from the driving actor.
func populate(w *testbed, b bucketRef, ops []trace.Op, out *driverStats) error {
	for _, op := range ops {
		out.attempted++
		if op.Type == trace.OpDelete {
			if err := w.sim.DeleteObject(b.region, b.bucket, op.Key); err != nil {
				return err
			}
			continue
		}
		if _, err := w.sim.PutObject(b.region, b.bucket, op.Key, op.Size); err != nil {
			return err
		}
		out.userBytes += op.Size
	}
	return nil
}
