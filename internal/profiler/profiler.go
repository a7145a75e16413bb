// Package profiler implements AReplica's offline performance profiler
// (§4, §5.3): when a new platform or region is onboarded, it runs
// instrumented invocations and transfers against the (simulated) clouds
// and fits the model's parameters — I, D, P per execution region; S, C,
// C' per (src, dst, loc) path; and the notification delay T_n per source
// region — as Normal distributions over the collected samples.
//
// The profiler measures the exact sequences the engine executes, so the
// fitted model predicts the engine rather than an idealization of it.
package profiler

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/faas"
	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/simrand"
	"repro/internal/stats"
	"repro/internal/world"
)

// Profiler collects performance samples from a world.
type Profiler struct {
	W *world.World
	// Rounds is the number of samples per parameter (default 12).
	Rounds int
	// ChunksPerRound is how many chunk transfers each path round times.
	ChunksPerRound int
	// PartSize is the chunk size c being profiled.
	PartSize int64
}

// New returns a Profiler with the default sampling effort.
func New(w *world.World) *Profiler {
	return &Profiler{W: w, Rounds: 12, ChunksPerRound: 4, PartSize: model.DefaultChunk}
}

// ProfileLoc measures the function-startup parameters of one region.
func (p *Profiler) ProfileLoc(loc cloud.RegionID) model.LocParams {
	svc := p.W.Region(loc)
	clock := p.W.Clock
	root := p.W.Tracer.StartTrace("profile "+string(loc), "profile-loc")
	defer root.End()

	// I: the caller-side async invocation API latency.
	var iSamples []float64
	for r := 0; r < p.Rounds; r++ {
		group := clock.NewGroup(1)
		t0 := clock.Now()
		svc.Fn.InvokeSpan(root, 1, func(*faas.Ctx) { group.Done() })
		iSamples = append(iSamples, clock.Since(t0).Seconds())
		group.Wait()
	}
	iDist := stats.FitNormal(iSamples)

	// D: cold-start readiness of a single invocation, net of I.
	var dSamples []float64
	for r := 0; r < p.Rounds; r++ {
		svc.Fn.FlushWarm()
		group := clock.NewGroup(1)
		t0 := clock.Now()
		var ready time.Duration
		svc.Fn.InvokeSpan(root, 1, func(*faas.Ctx) {
			ready = clock.Since(t0)
			group.Done()
		})
		group.Wait()
		d := ready.Seconds() - iDist.Mu
		if d < 0.001 {
			d = 0.001
		}
		dSamples = append(dSamples, d)
	}
	dDist := stats.FitNormal(dSamples)

	// P: scheduler postponement when a wave of cold instances scales out.
	const wave = 8
	var pSamples []float64
	for r := 0; r < p.Rounds; r++ {
		svc.Fn.FlushWarm()
		group := clock.NewGroup(wave)
		var mu sync.Mutex
		var maxReady time.Duration
		t0 := clock.Now()
		svc.Fn.InvokeSpan(root, wave, func(*faas.Ctx) {
			mu.Lock()
			if d := clock.Since(t0); d > maxReady {
				maxReady = d
			}
			mu.Unlock()
			group.Done()
		})
		group.Wait()
		v := maxReady.Seconds() - float64(wave)*iDist.Mu - dDist.Mu
		if v < 0 {
			v = 0
		}
		pSamples = append(pSamples, v)
	}

	return model.LocParams{I: iDist, D: dDist, P: stats.FitNormal(pSamples)}
}

// profileBuckets ensures the scratch buckets exist and returns their names.
func (p *Profiler) profileBuckets(src, dst *world.Services) (string, string) {
	sb := "areplica-profile-" + string(src.Region.ID())
	db := "areplica-profile-" + string(dst.Region.ID())
	// Ignore "already exists": re-profiling reuses the scratch buckets.
	_ = src.Obj.CreateBucket(sb, false)
	if dst != src {
		_ = dst.Obj.CreateBucket(db, false)
	}
	return sb, db
}

// ProfilePath measures S, C and C' of one (src, dst, loc) path by running
// instrumented replicator rounds at loc: each round cold-starts a fresh
// instance (sampling inter-instance variability), pays the client setup,
// and times chunk transfers both without (C) and with (C') the part-pool
// KV accesses.
func (p *Profiler) ProfilePath(src, dst, loc cloud.RegionID) model.PathParams {
	srcSvc := p.W.Region(src)
	dstSvc := p.W.Region(dst)
	locSvc := p.W.Region(loc)
	clock := p.W.Clock
	root := p.W.Tracer.StartTrace(fmt.Sprintf("profile %s->%s@%s", src, dst, loc), "profile-path")
	defer root.End()

	sb, db := p.profileBuckets(srcSvc, dstSvc)
	size := int64(p.ChunksPerRound) * p.PartSize
	seed := simrand.Seed("profile-obj", string(src), string(dst), string(loc))
	key := fmt.Sprintf("probe-%s-%s", dst, loc)
	if _, err := srcSvc.Obj.Put(sb, key, objstore.BlobOfSize(size, uint64(seed))); err != nil {
		panic(fmt.Sprintf("profiler: seeding probe object: %v", err))
	}

	var mu sync.Mutex
	var sSamples []float64
	var cGroups, cpGroups [][]float64        // one group per instance (round)
	var cpDownGroups, cpUpGroups [][]float64 // C' split at the leg boundary

	for r := 0; r < p.Rounds; r++ {
		r := r
		locSvc.Fn.FlushWarm() // fresh instance per round: new multiplier
		group := clock.NewGroup(1)
		locSvc.Fn.InvokeSpan(root, 1, func(ctx *faas.Ctx) {
			defer group.Done()
			rng := simrand.NewIndexed(r, "profiler", string(src), string(dst), string(loc))
			downScale := ctx.BandwidthScaleFor(srcSvc.Region.Provider)
			upScale := ctx.BandwidthScaleFor(dstSvc.Region.Provider)

			// S: client setup plus the whole-object request round-trips.
			t0 := clock.Now()
			p.W.SetupSleep(srcSvc.Region, dstSvc.Region, rng)
			_, _, err := srcSvc.Obj.GetRange(sb, key, 0, size)
			s := clock.Since(t0).Seconds()
			if err != nil {
				return
			}

			// C: per-chunk time in single-function mode (two legs).
			var cs []float64
			for i := 0; i < p.ChunksPerRound; i++ {
				t1 := clock.Now()
				p.W.MoveBytes(srcSvc.Region, ctx.Region, ctx.Region.Provider, p.PartSize, downScale, rng)
				p.W.MoveBytes(ctx.Region, dstSvc.Region, ctx.Region.Provider, p.PartSize, upScale, rng)
				cs = append(cs, clock.Since(t1).Seconds())
			}

			// C': per-chunk time under the part pool — claim, ranged GET,
			// two legs, part upload, completion update.
			taskKey := fmt.Sprintf("probe-task-%s-%s-%d", dst, loc, r)
			mpu, err := dstSvc.Obj.CreateMultipart(db, taskKey)
			if err != nil {
				return
			}
			// The midpoint between the two legs splits each C' sample
			// into its download stage (claim + ranged GET + src→loc leg)
			// and upload stage (loc→dst leg + part upload + completion),
			// fitting the pipelined data plane's max(down, up) prediction.
			var cps, downs, ups []float64
			for i := 0; i < p.ChunksPerRound; i++ {
				t1 := clock.Now()
				idx := locSvc.KV.Increment("areplica-profile", taskKey, "next", 1) - 1
				off := (idx % int64(p.ChunksPerRound)) * p.PartSize
				blob, _, err := srcSvc.Obj.GetRange(sb, key, off, p.PartSize)
				if err != nil {
					return
				}
				p.W.MoveBytes(srcSvc.Region, ctx.Region, ctx.Region.Provider, p.PartSize, downScale, rng)
				tMid := clock.Now()
				p.W.MoveBytes(ctx.Region, dstSvc.Region, ctx.Region.Provider, p.PartSize, upScale, rng)
				if _, err := dstSvc.Obj.UploadPart(mpu, i+1, blob); err != nil {
					return
				}
				locSvc.KV.Increment("areplica-profile", taskKey, "done", 1)
				cps = append(cps, clock.Since(t1).Seconds())
				downs = append(downs, tMid.Sub(t1).Seconds())
				ups = append(ups, clock.Since(tMid).Seconds())
			}
			dstSvc.Obj.AbortMultipart(mpu)

			mu.Lock()
			sSamples = append(sSamples, s)
			cGroups = append(cGroups, cs)
			cpGroups = append(cpGroups, cps)
			cpDownGroups = append(cpDownGroups, downs)
			cpUpGroups = append(cpUpGroups, ups)
			mu.Unlock()
		})
		group.Wait()
	}

	if len(sSamples) == 0 {
		panic("profiler: no path samples collected")
	}
	return model.PathParams{
		S:      stats.FitNormal(sSamples),
		C:      model.FitChunkTime(cGroups),
		Cp:     model.FitChunkTime(cpGroups),
		CpDown: model.FitChunkTime(cpDownGroups),
		CpUp:   model.FitChunkTime(cpUpGroups),
	}
}

// ProfileNotify measures the notification delivery delay T_n of a source
// region by putting probe objects into an instrumented bucket.
func (p *Profiler) ProfileNotify(src cloud.RegionID) stats.Normal {
	svc := p.W.Region(src)
	clock := p.W.Clock
	root := p.W.Tracer.StartTrace("profile notify "+string(src), "profile-notify")
	defer root.End()
	bucketName := "areplica-profile-notify-" + string(src)
	_ = svc.Obj.CreateBucket(bucketName, false)

	var mu sync.Mutex
	deliveries := make(map[string]time.Time)
	if err := svc.Obj.Subscribe(bucketName, func(ev objstore.Event) {
		mu.Lock()
		deliveries[ev.ETag] = clock.Now()
		mu.Unlock()
	}); err != nil {
		panic(fmt.Sprintf("profiler: subscribing: %v", err))
	}

	var samples []float64
	for r := 0; r < p.Rounds; r++ {
		res, err := svc.Obj.Put(bucketName, "probe", objstore.BlobOfSize(1024, uint64(r)+1))
		if err != nil {
			panic(fmt.Sprintf("profiler: probe put: %v", err))
		}
		putDone := clock.Now()
		// Wait for this probe's delivery.
		for {
			mu.Lock()
			at, ok := deliveries[res.ETag]
			mu.Unlock()
			if ok {
				samples = append(samples, at.Sub(putDone).Seconds())
				break
			}
			clock.Sleep(10 * time.Millisecond)
		}
	}
	return stats.FitNormal(samples)
}

// FitRuleWithRelays profiles everything a replication rule needs — both
// execution regions, both path variants, and the source's notification
// delay — and installs the results into m. Each optional overlay relay
// region (§6's extension) also gets startup parameters and a (src, dst,
// relay) path fit. Already-profiled regions and paths are skipped, so
// fitting many rules shares work.
func (p *Profiler) FitRuleWithRelays(m *model.Model, src, dst cloud.RegionID, relays []cloud.RegionID) {
	locs := append([]cloud.RegionID{src, dst}, relays...)
	for _, loc := range locs {
		if _, ok := m.Loc(loc); !ok {
			m.SetLoc(loc, p.ProfileLoc(loc))
		}
		key := model.PathKey{Src: src, Dst: dst, Loc: loc}
		if _, ok := m.Path(key); !ok {
			m.SetPath(key, p.ProfilePath(src, dst, loc))
		}
	}
	if m.Notify(src).Mu == 0 {
		m.SetNotify(src, p.ProfileNotify(src))
	}
}
