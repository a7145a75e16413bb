package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/baselines"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/objstore"
)

// Cell is one table entry: mean replication delay and per-object cost.
type Cell struct {
	DelayS  float64
	CostUSD float64
	Valid   bool
}

// TableResult reproduces one of Tables 1-3: replication delay and cost
// from one source region to nine destinations at three object sizes, for
// AReplica, Skyplane, and the applicable proprietary service.
type TableResult struct {
	Source   cloud.RegionID
	Dests    []cloud.RegionID
	Sizes    []int64
	PropName string // "S3RTC", "AZRep", or "" when no proprietary baseline

	// Indexed [sizeIdx][destIdx].
	AReplica [][]Cell
	Skyplane [][]Cell
	Prop     [][]Cell
}

// TableConfig parameterizes a table run.
type TableConfig struct {
	Source cloud.RegionID
	Sizes  []int64
	Rounds int // measurements averaged per cell
	Quick  bool
}

func (c *TableConfig) defaults() {
	if len(c.Sizes) == 0 {
		c.Sizes = []int64{1 * MB, 128 * MB, 1 * GB}
		if c.Quick {
			c.Sizes = []int64{1 * MB, 128 * MB}
		}
	}
	if c.Rounds <= 0 {
		c.Rounds = 3
		if c.Quick {
			c.Rounds = 1
		}
	}
}

// RunTable regenerates one of Tables 1-3.
func RunTable(cfg TableConfig) *TableResult {
	cfg.defaults()
	w := newWorld("table")
	m := model.New()
	dests := destinationsFor(cfg.Source)
	if cfg.Quick {
		dests = dests[:3]
	}

	res := &TableResult{Source: cfg.Source, Dests: dests, Sizes: cfg.Sizes}
	switch cloud.MustLookup(cfg.Source).Provider {
	case cloud.AWS:
		res.PropName = "S3RTC"
	case cloud.Azure:
		res.PropName = "AZRep"
	}
	res.AReplica = newGrid(len(cfg.Sizes), len(dests))
	res.Skyplane = newGrid(len(cfg.Sizes), len(dests))
	res.Prop = newGrid(len(cfg.Sizes), len(dests))

	for di, dst := range dests {
		srcB := fmt.Sprintf("tbl-src-%d", di)
		dstB := fmt.Sprintf("tbl-dst-%d", di)
		mustCreate(w, cfg.Source, srcB, false)
		mustCreate(w, dst, dstB, false)
		svc := deployService(w, m, engine.Rule{
			Src: cfg.Source, Dst: dst, SrcBucket: srcB, DstBucket: dstB,
			SLO: 0, // fastest plan, as in §8.1
		}, core.Options{ProfileRounds: profileRounds(cfg.Quick)})

		skySrcB := fmt.Sprintf("sky-src-%d", di)
		skyDstB := fmt.Sprintf("sky-dst-%d", di)
		mustCreate(w, cfg.Source, skySrcB, false)
		mustCreate(w, dst, skyDstB, false)
		sky := baselines.NewSkyplane(w, cfg.Source, dst, skySrcB, skyDstB, 1, 0)
		if err := w.Region(cfg.Source).Obj.Subscribe(skySrcB, sky.HandleEvent); err != nil {
			panic(err)
		}

		var propHandle func(sizeIdx, round int) (float64, float64)
		srcProv := cloud.MustLookup(cfg.Source).Provider
		dstProv := cloud.MustLookup(dst).Provider
		if srcProv == dstProv && (srcProv == cloud.AWS || srcProv == cloud.Azure) {
			propSrcB := fmt.Sprintf("prop-src-%d", di)
			propDstB := fmt.Sprintf("prop-dst-%d", di)
			mustCreate(w, cfg.Source, propSrcB, true) // versioning required
			mustCreate(w, dst, propDstB, true)
			var handler func(ev objstore.Event)
			var lastDelay func() float64
			if srcProv == cloud.AWS {
				rtc, err := baselines.NewS3RTC(w, cfg.Source, dst, propSrcB, propDstB)
				if err != nil {
					panic(err)
				}
				handler = rtc.HandleEvent
				lastDelay = func() float64 { return lastDelaySeconds(rtc.Tracker) }
			} else {
				az, err := baselines.NewAZRep(w, cfg.Source, dst, propSrcB, propDstB)
				if err != nil {
					panic(err)
				}
				handler = az.HandleEvent
				lastDelay = func() float64 { return lastDelaySeconds(az.Tracker) }
			}
			if err := w.Region(cfg.Source).Obj.Subscribe(propSrcB, handler); err != nil {
				panic(err)
			}
			propHandle = func(sizeIdx, round int) (float64, float64) {
				size := cfg.Sizes[sizeIdx]
				cost := costDelta(w, func() {
					putObject(w, cfg.Source, propSrcB, fmt.Sprintf("o-%d", sizeIdx), size, round)
				})
				return lastDelay(), cost
			}
		}

		for si, size := range cfg.Sizes {
			var aDelay, aCost, sDelay, sCost, pDelay, pCost float64
			for r := 0; r < cfg.Rounds; r++ {
				key := fmt.Sprintf("o-%d", si)
				aCost += costDelta(w, func() {
					putObject(w, cfg.Source, srcB, key, size, r)
				})
				aDelay += lastDelaySeconds(svc.Engine.Tracker)

				sCost += costDelta(w, func() {
					putObject(w, cfg.Source, skySrcB, key, size, r)
				})
				sDelay += lastDelaySeconds(sky.Tracker)

				if propHandle != nil {
					d, c := propHandle(si, r)
					pDelay += d
					pCost += c
				}
			}
			k := float64(cfg.Rounds)
			res.AReplica[si][di] = Cell{DelayS: aDelay / k, CostUSD: aCost / k, Valid: true}
			res.Skyplane[si][di] = Cell{DelayS: sDelay / k, CostUSD: sCost / k, Valid: true}
			if propHandle != nil {
				res.Prop[si][di] = Cell{DelayS: pDelay / k, CostUSD: pCost / k, Valid: true}
			}
		}
	}
	return res
}

// Tables returns every valid cell as a row, then the delay reduction
// versus the best baseline as a size x destination grid (printed only).
func (t *TableResult) Tables() []Table {
	cells := Table{
		Name:  "table_" + stem(t.Source),
		Title: fmt.Sprintf("Replication delay and cost from %s", t.Source),
		Cols:  []Col{{"size_bytes", "%d"}, {"dest", "%s"}, {"system", "%s"}, {"delay_s", "%.1f"}, {"cost_usd", "%.5f"}},
	}
	grid := Table{
		Title: "Delay reduction vs the best baseline (fraction)",
		Cols:  []Col{{"size", "%s"}},
	}
	for _, d := range t.Dests {
		grid.Cols = append(grid.Cols, Col{string(d), "%.3f"})
	}
	add := func(si, di int, system string, c Cell) {
		if c.Valid {
			cells.Add(t.Sizes[si], t.Dests[di], system, c.DelayS, c.CostUSD)
		}
	}
	for si, size := range t.Sizes {
		reduction := []any{fmtSize(size)}
		for di := range t.Dests {
			add(si, di, "areplica", t.AReplica[si][di])
			add(si, di, "skyplane", t.Skyplane[si][di])
			add(si, di, t.PropName, t.Prop[si][di])
			reduction = append(reduction, t.DelayReduction(si, di))
		}
		grid.Add(reduction...)
	}
	return []Table{cells, grid}
}

// DelayReduction returns AReplica's delay reduction versus the best
// baseline for a cell, as a fraction (0.9 = 90% faster).
func (t *TableResult) DelayReduction(sizeIdx, destIdx int) float64 {
	best := t.Skyplane[sizeIdx][destIdx].DelayS
	if t.Prop[sizeIdx][destIdx].Valid && t.Prop[sizeIdx][destIdx].DelayS < best {
		best = t.Prop[sizeIdx][destIdx].DelayS
	}
	if best <= 0 || math.IsNaN(best) {
		return 0
	}
	return 1 - t.AReplica[sizeIdx][destIdx].DelayS/best
}

func newGrid(rows, cols int) [][]Cell {
	g := make([][]Cell, rows)
	for i := range g {
		g[i] = make([]Cell, cols)
	}
	return g
}

func profileRounds(quick bool) int {
	if quick {
		return 6
	}
	return 12
}

// BulkPair is one row of Figure 16: 100 GB bulk replication.
type BulkPair struct {
	Src, Dst cloud.RegionID

	AReplicaS    float64
	AReplicaCost float64
	AReplicaN    int
	SkyplaneS    float64
	SkyplaneCost float64
}

// BulkResult reproduces Figure 16.
type BulkResult struct {
	SizeBytes int64
	Pairs     []BulkPair
}

// RunFig16 measures bulk replication of one large object (100 GB; 10 GB in
// quick mode) for representative region pairs, AReplica vs Skyplane with
// eight VMs per region.
func RunFig16(quick bool) *BulkResult {
	size := 100 * GB
	if quick {
		size = 10 * GB
	}
	pairs := [][2]cloud.RegionID{
		{"aws:us-east-1", "aws:ca-central-1"},
		{"aws:us-east-1", "azure:eastus"},
		{"aws:us-east-1", "gcp:asia-northeast1"},
		{"azure:eastus", "aws:ap-northeast-1"},
		{"gcp:us-east1", "azure:uksouth"},
		{"gcp:us-east1", "gcp:asia-northeast1"},
	}
	if quick {
		pairs = pairs[:2]
	}
	res := &BulkResult{SizeBytes: size}
	for pi, pr := range pairs {
		w := newWorld("fig16")
		m := model.New()
		src, dst := pr[0], pr[1]
		srcB, dstB := "bulk-src", "bulk-dst"
		mustCreate(w, src, srcB, false)
		mustCreate(w, dst, dstB, false)

		var planN int
		svc := deployService(w, m, engine.Rule{
			Src: src, Dst: dst, SrcBucket: srcB, DstBucket: dstB, SLO: 0,
		}, core.Options{
			ProfileRounds: profileRounds(quick),
			OnTaskDone:    func(r engine.TaskResult) { planN = r.Plan.N },
		})
		_ = svc

		var aDelay float64
		aCost := costDelta(w, func() {
			putObject(w, src, srcB, "bulk.bin", size, pi)
		})
		aDelay = lastDelaySeconds(svc.Engine.Tracker)

		skySrcB, skyDstB := "sky-bulk-src", "sky-bulk-dst"
		mustCreate(w, src, skySrcB, false)
		mustCreate(w, dst, skyDstB, false)
		sky := baselines.NewSkyplane(w, src, dst, skySrcB, skyDstB, 8, time.Minute)
		putObject(w, src, skySrcB, "bulk.bin", size, pi)
		var skyDur time.Duration
		skyCost := costDelta(w, func() {
			var err error
			skyDur, err = sky.ReplicateBulk("bulk.bin", size)
			if err != nil {
				panic(err)
			}
			sky.Shutdown()
		})

		res.Pairs = append(res.Pairs, BulkPair{
			Src: src, Dst: dst,
			AReplicaS: aDelay, AReplicaCost: aCost, AReplicaN: planN,
			SkyplaneS: skyDur.Seconds(), SkyplaneCost: skyCost,
		})
	}
	return res
}

// Tables returns Figure 16's two panels as rows.
func (b *BulkResult) Tables() []Table {
	t := Table{
		Name:  "fig16_bulk",
		Title: fmt.Sprintf("Bulk replication of a %s object (Figure 16)", fmtSize(b.SizeBytes)),
		Cols: []Col{{"src", "%s"}, {"dst", "%s"}, {"areplica_s", "%.1f"}, {"areplica_cost", "%.3f"},
			{"areplica_n", "%d"}, {"skyplane_s", "%.1f"}, {"skyplane_cost", "%.3f"}},
	}
	for _, p := range b.Pairs {
		t.Add(p.Src, p.Dst, p.AReplicaS, p.AReplicaCost, p.AReplicaN, p.SkyplaneS, p.SkyplaneCost)
	}
	return []Table{t}
}
