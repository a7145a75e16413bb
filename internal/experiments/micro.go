package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/baselines"
	"repro/internal/cloud"
	"repro/internal/faas"
	"repro/internal/netsim"
	"repro/internal/simrand"
)

// Fig4Result reproduces Figure 4: the time and cost breakdown of Skyplane
// replicating a 10 MB object from AWS us-east-1 to us-east-2.
type Fig4Result struct {
	Breakdown baselines.Breakdown
	Costs     map[string]float64 // vm:compute, net:egress, obj:*
}

// RunFig4 measures one cold Skyplane transfer.
func RunFig4() *Fig4Result {
	w := newWorld("fig4")
	src, dst := cloud.RegionID("aws:us-east-1"), cloud.RegionID("aws:us-east-2")
	mustCreate(w, src, "src", false)
	mustCreate(w, dst, "dst", false)
	sky := baselines.NewSkyplane(w, src, dst, "src", "dst", 1, 0)
	putObject(w, src, "src", "obj", 10*MB, 0)

	before := w.Meter.Breakdown()
	bd, err := sky.ReplicateMeasured("obj", 10*MB)
	if err != nil {
		panic(err)
	}
	w.Clock.Quiesce()
	after := w.Meter.Breakdown()
	costs := make(map[string]float64)
	for k, v := range after {
		if d := v - before[k]; d > 0 {
			costs[k] = d
		}
	}
	return &Fig4Result{Breakdown: bd, Costs: costs}
}

// Tables returns the two breakdown panels (printed only).
func (r *Fig4Result) Tables() []Table {
	total := r.Breakdown.Total()
	times := Table{
		Title: "Skyplane 10MB aws:us-east-1 -> aws:us-east-2 (Figure 4a, time)",
		Cols:  []Col{{"component", "%s"}, {"seconds", "%.2f"}, {"share_pct", "%.1f"}},
	}
	add := func(component string, d time.Duration) {
		times.Add(component, d.Seconds(), 100*float64(d)/float64(total))
	}
	add("VM provisioning", r.Breakdown.Provisioning)
	add("Container startup", r.Breakdown.Container)
	add("Data transfer", r.Breakdown.Transfer)
	add("Others", r.Breakdown.Others)
	add("total", total)
	var sum float64
	for _, k := range sortedKeys(r.Costs) {
		sum += r.Costs[k]
	}
	costs := Table{
		Title: "Skyplane 10MB aws:us-east-1 -> aws:us-east-2 (Figure 4b, cost)",
		Cols:  []Col{{"item", "%s"}, {"usd", "%.6f"}},
	}
	costs.Add("VM", r.Costs["vm:compute"])
	costs.Add("Data transfer", r.Costs["net:egress"])
	costs.Add("Storage requests", r.Costs["obj:put"]+r.Costs["obj:get"])
	costs.Add("total", sum)
	return []Table{times, costs}
}

// Fig6Point is one configuration's measured bandwidth on one link.
type Fig6Point struct {
	MemMB        int
	VCPU         float64
	Remote       cloud.RegionID
	DownloadMBps float64
	UploadMBps   float64
}

// Fig6Result reproduces Figure 6: download/upload bandwidth versus
// function configuration for each platform.
type Fig6Result struct {
	Panels map[cloud.RegionID][]Fig6Point // keyed by execution region
}

// RunFig6 sweeps function configurations on the three platforms' east-US
// regions against representative remote regions.
func RunFig6(quick bool) *Fig6Result {
	res := &Fig6Result{Panels: make(map[cloud.RegionID][]Fig6Point)}
	rounds := 5
	if quick {
		rounds = 2
	}
	type sweep struct {
		exec    cloud.RegionID
		mems    []int
		cpus    []float64
		remotes []cloud.RegionID
	}
	sweeps := []sweep{
		{exec: "aws:us-east-1", mems: []int{128, 256, 512, 1024, 2048, 4096, 8192},
			remotes: []cloud.RegionID{"aws:ca-central-1", "azure:uksouth", "gcp:us-east1"}},
		{exec: "azure:eastus", mems: []int{2048, 4096},
			remotes: []cloud.RegionID{"aws:us-east-1", "azure:uksouth", "gcp:us-east1"}},
		{exec: "gcp:us-east1", mems: []int{1024}, cpus: []float64{1, 2, 4, 8},
			remotes: []cloud.RegionID{"aws:us-east-1", "azure:uksouth", "gcp:us-west1"}},
	}
	for _, sw := range sweeps {
		cpus := sw.cpus
		if cpus == nil {
			cpus = []float64{0}
		}
		for _, mem := range sw.mems {
			for _, cpu := range cpus {
				for _, remote := range sw.remotes {
					down, up := measureLinkBandwidth(sw.exec, remote, mem, cpu, rounds)
					res.Panels[sw.exec] = append(res.Panels[sw.exec], Fig6Point{
						MemMB: mem, VCPU: cpu, Remote: remote,
						DownloadMBps: down, UploadMBps: up,
					})
				}
			}
		}
	}
	return res
}

// measureLinkBandwidth runs single-function transfers of 64 MB each way
// between exec and remote under a specific configuration and returns the
// mean achieved MiB/s.
func measureLinkBandwidth(exec, remote cloud.RegionID, memMB int, vcpu float64, rounds int) (down, up float64) {
	w := newWorld("fig6")
	execRegion := cloud.MustLookup(exec)
	cfg := faas.DefaultConfig(execRegion.Provider)
	cfg.MemMB = memMB
	if vcpu > 0 {
		cfg.VCPU = vcpu
	}
	w.SetFnConfig(exec, cfg)
	svc := w.Region(exec)
	remoteRegion := cloud.MustLookup(remote)
	const bytes = 64 * MB

	var mu sync.Mutex
	var downSum, upSum float64
	for r := 0; r < rounds; r++ {
		r := r
		svc.Fn.FlushWarm()
		group := w.Clock.NewGroup(1)
		svc.Fn.Invoke(1, func(ctx *faas.Ctx) {
			defer group.Done()
			rng := simrand.NewIndexed(r, "fig6", string(exec), string(remote), fmt.Sprint(memMB, vcpu))
			scale := ctx.BandwidthScaleFor(remoteRegion.Provider)
			d := w.MoveBytes(remoteRegion, execRegion, execRegion.Provider, bytes, scale, rng)
			u := w.MoveBytes(execRegion, remoteRegion, execRegion.Provider, bytes, scale, rng)
			mu.Lock()
			downSum += float64(bytes) / netsim.MiB / d.Seconds()
			upSum += float64(bytes) / netsim.MiB / u.Seconds()
			mu.Unlock()
		})
		group.Wait()
	}
	w.Clock.Quiesce()
	return downSum / float64(rounds), upSum / float64(rounds)
}

// Tables returns Figure 6's three panels as one table (printed only).
func (r *Fig6Result) Tables() []Table {
	t := Table{
		Title: "Bandwidth vs function configuration (Figure 6, MiB/s)",
		Cols: []Col{{"exec", "%s"}, {"mem_mb", "%d"}, {"vcpu", "%.0f"}, {"remote", "%s"},
			{"down_mibps", "%.1f"}, {"up_mibps", "%.1f"}},
	}
	for _, exec := range []cloud.RegionID{"aws:us-east-1", "azure:eastus", "gcp:us-east1"} {
		for _, p := range r.Panels[exec] {
			t.Add(exec, p.MemMB, p.VCPU, p.Remote, p.DownloadMBps, p.UploadMBps)
		}
	}
	return []Table{t}
}

// Fig7Series is aggregate bandwidth versus function count for one link.
type Fig7Series struct {
	Label  string
	Counts []int
	MBps   []float64
}

// Fig7Result reproduces Figure 7: near-linear aggregate bandwidth scaling.
type Fig7Result struct {
	Series []Fig7Series
}

// RunFig7 measures aggregate bandwidth for fast and slow links on each
// platform as the function count grows 1..64.
func RunFig7(quick bool) *Fig7Result {
	counts := []int{1, 2, 4, 8, 16, 32, 64}
	if quick {
		counts = []int{1, 4, 16}
	}
	links := []struct {
		label        string
		exec, remote cloud.RegionID
		upload       bool
	}{
		{"AWS download (ca-central-1)", "aws:us-east-1", "aws:ca-central-1", false},
		{"AWS upload (ap-northeast-1)", "aws:us-east-1", "aws:ap-northeast-1", true},
		{"Azure download (uksouth)", "azure:eastus", "azure:uksouth", false},
		{"Azure upload (southeastasia)", "azure:eastus", "azure:southeastasia", true},
		{"GCP download (us-west1)", "gcp:us-east1", "gcp:us-west1", false},
		{"GCP upload (asia-northeast1)", "gcp:us-east1", "gcp:asia-northeast1", true},
	}
	res := &Fig7Result{}
	for _, link := range links {
		series := Fig7Series{Label: link.label, Counts: counts}
		for _, n := range counts {
			series.MBps = append(series.MBps, aggregateBandwidth(link.exec, link.remote, link.upload, n))
		}
		res.Series = append(res.Series, series)
	}
	return res
}

// aggregateBandwidth runs n concurrent single-leg transfers and sums the
// per-instance achieved bandwidth.
func aggregateBandwidth(exec, remote cloud.RegionID, upload bool, n int) float64 {
	w := newWorld("fig7")
	execRegion := cloud.MustLookup(exec)
	remoteRegion := cloud.MustLookup(remote)
	svc := w.Region(exec)
	const bytes = 64 * MB

	var mu sync.Mutex
	var agg float64
	group := w.Clock.NewGroup(n)
	idx := 0
	svc.Fn.Invoke(n, func(ctx *faas.Ctx) {
		defer group.Done()
		mu.Lock()
		i := idx
		idx++
		mu.Unlock()
		rng := simrand.NewIndexed(i, "fig7", string(exec), string(remote), fmt.Sprint(upload, n))
		from, to := remoteRegion, execRegion
		if upload {
			from, to = execRegion, remoteRegion
		}
		d := w.MoveBytes(from, to, execRegion.Provider, bytes, ctx.BandwidthScaleFor(remoteRegion.Provider), rng)
		mu.Lock()
		agg += float64(bytes) / netsim.MiB / d.Seconds()
		mu.Unlock()
	})
	group.Wait()
	w.Clock.Quiesce()
	return agg
}

// Tables returns the scaling series.
func (r *Fig7Result) Tables() []Table {
	t := Table{
		Name:  "fig7_scaling",
		Title: "Aggregate bandwidth vs number of functions (Figure 7, MiB/s)",
		Cols:  []Col{{"link", "%s"}, {"functions", "%d"}, {"aggregate_mibps", "%.0f"}},
	}
	for _, s := range r.Series {
		for i, n := range s.Counts {
			t.Add(s.Label, n, s.MBps[i])
		}
	}
	return []Table{t}
}

// Fig9Sample is one timed transfer by one instance.
type Fig9Sample struct {
	AtSeconds float64
	MBps      float64
}

// Fig9Result reproduces Figure 9: per-instance bandwidth over time for
// five concurrently running instances on the same path.
type Fig9Result struct {
	Instances map[string][]Fig9Sample
}

// RunFig9 runs five instances repeatedly transferring chunks from AWS
// us-east-1 to Azure eastus for a minute.
func RunFig9() *Fig9Result {
	w := newWorld("fig9")
	exec := cloud.MustLookup("aws:us-east-1")
	remote := cloud.MustLookup("azure:eastus")
	svc := w.Region("aws:us-east-1")
	res := &Fig9Result{Instances: make(map[string][]Fig9Sample)}
	var mu sync.Mutex

	const chunk = 64 * MB
	start := w.Clock.Now()
	group := w.Clock.NewGroup(5)
	svc.Fn.Invoke(5, func(ctx *faas.Ctx) {
		defer group.Done()
		rng := simrand.New("fig9", ctx.Instance.ID)
		for w.Clock.Since(start) < time.Minute {
			d := w.MoveBytes(exec, remote, exec.Provider, chunk, ctx.BandwidthScaleFor(remote.Provider), rng)
			mu.Lock()
			res.Instances[ctx.Instance.ID] = append(res.Instances[ctx.Instance.ID], Fig9Sample{
				AtSeconds: w.Clock.Since(start).Seconds(),
				MBps:      float64(chunk) / netsim.MiB / d.Seconds(),
			})
			mu.Unlock()
		}
	})
	group.Wait()
	w.Clock.Quiesce()
	return res
}

// Tables returns every timed transfer (exported only), then per-instance
// mean bandwidth and the spread across instances (printed only).
func (r *Fig9Result) Tables() []Table {
	instance := Col{"instance", "%s"}
	raw := Table{Name: "fig9_instances", Cols: []Col{instance, {"at_s", "%.1f"}, {"mibps", "%.1f"}}}
	means := Table{
		Title: "Per-instance bandwidth, aws:us-east-1 -> azure:eastus (Figure 9, MiB/s)",
		Cols:  []Col{instance, {"mean_mibps", "%.1f"}, {"transfers", "%d"}},
	}
	lo, hi := 1e18, 0.0
	for _, id := range sortedKeys(r.Instances) {
		samples := r.Instances[id]
		var sum float64
		for _, s := range samples {
			raw.Add(id, s.AtSeconds, s.MBps)
			sum += s.MBps
		}
		mean := sum / float64(len(samples))
		lo, hi = min(lo, mean), max(hi, mean)
		means.Add(id, mean, len(samples))
	}
	means.Notes = []string{fmt.Sprintf("spread: slowest %.1f vs fastest %.1f (%.1fx)", lo, hi, hi/lo)}
	return []Table{raw, means}
}
