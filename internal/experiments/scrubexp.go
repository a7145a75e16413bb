package experiments

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/oracle"
)

// ScrubConfig configures the anti-entropy cadence sweep.
type ScrubConfig struct {
	// Cadences are the scrub intervals to sweep (default 15s/30s/60s/120s;
	// quick mode 20s/60s). A no-scrub baseline row always runs first.
	Cadences []time.Duration
	// Objects is the number of source writes per scenario (default 32;
	// quick mode 12).
	Objects int
	// Profile is a chaos spec ("notify-flaky@7"); empty uses a built-in
	// lossy profile (25% notification loss, 5% duplication) so that
	// notification-driven replication alone visibly fails to converge.
	Profile string
	Quick   bool
}

// ScrubPoint is one row of the sweep: what a scrub cadence buys (residual
// divergence, divergence age) and what it costs (digest traffic, dollars).
// The "off" row is the baseline divergence the lossy workload produces.
type ScrubPoint struct {
	Cadence            string // "off" for the no-scrub baseline
	ConvergencePct     float64
	ResidualDivergence int // missing + stale + orphaned keys at the final audit
	Rounds             int64
	DigestBytes        int64
	DupFinalWrites     int
	ScrubCostUSD       float64 // marginal cost vs the no-scrub baseline

	CadenceS          float64
	Objects           int
	Converged         int
	RepairsDispatched int64
	RepairsRedriven   int64
	RepairsDeduped    int64
	SLOViolations     int64   // repairs older than the declared divergence SLO (2x cadence)
	RepairAgeP50S     float64 // divergence age when the scrubber repaired it
	RepairAgeMaxS     float64
	TotalCostUSD      float64
	CostOverheadPct   float64
}

// ScrubResult is the divergence-vs-cadence-vs-cost curve.
type ScrubResult struct {
	Profile string
	Points  []ScrubPoint
}

// RunScrub replays an identical lossy-notification workload once without
// anti-entropy and once per scrub cadence, with the scrubber's periodic
// loop running alongside the writes. The baseline row shows how far
// notification-driven replication alone diverges; each cadence row shows
// the residual divergence going to zero, the divergence age the cadence
// bounds, and the digest/repair dollars it costs. Deterministic per
// profile seed: the same config yields byte-identical tables.
func RunScrub(cfg ScrubConfig) (*ScrubResult, error) {
	cadences := cfg.Cadences
	if len(cadences) == 0 {
		cadences = []time.Duration{15 * time.Second, 30 * time.Second, 60 * time.Second, 120 * time.Second}
		if cfg.Quick {
			cadences = []time.Duration{20 * time.Second, 60 * time.Second}
		}
	}
	objects := cfg.Objects
	if objects <= 0 {
		objects = 32
		if cfg.Quick {
			objects = 12
		}
	}
	prof := chaos.Profile{
		Name: "notify-lossy", Seed: "scrub",
		NotifyLossRate: 0.25, NotifyDupRate: 0.05,
	}
	if cfg.Profile != "" {
		var err error
		if prof, err = chaos.Parse(cfg.Profile); err != nil {
			return nil, err
		}
	}

	res := &ScrubResult{Profile: prof.Name}
	base, err := runScrubScenario(prof, 0, objects, cfg.Quick)
	if err != nil {
		return nil, err
	}
	res.Points = append(res.Points, base)
	for _, cad := range cadences {
		pt, err := runScrubScenario(prof, cad, objects, cfg.Quick)
		if err != nil {
			return nil, err
		}
		pt.ScrubCostUSD = pt.TotalCostUSD - base.TotalCostUSD
		if base.TotalCostUSD > 0 {
			pt.CostOverheadPct = (pt.TotalCostUSD/base.TotalCostUSD - 1) * 100
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// runScrubScenario runs one cadence's scenario on a fresh world. Cadence 0
// is the no-scrub baseline.
func runScrubScenario(prof chaos.Profile, cadence time.Duration, objects int, quick bool) (ScrubPoint, error) {
	label := "off"
	if cadence > 0 {
		label = fmt.Sprintf("%ds", int(cadence.Seconds()))
	}
	w := newWorld("scrub-" + label)
	src, dst := AWSEast, AzureEast
	srcBucket, dstBucket := "scrub-src", "scrub-dst"
	mustCreate(w, src, srcBucket, true)
	mustCreate(w, dst, dstBucket, true)

	svc := deployService(w, model.New(), engine.Rule{
		Src: src, Dst: dst, SrcBucket: srcBucket, DstBucket: dstBucket,
	}, core.Options{
		ProfileRounds: profileRounds(quick),
		EnableScrub:   cadence > 0,
		ScrubCadence:  cadence,
		DivergenceSLO: 2 * cadence,
	})

	// Duplicate-final-write audit.
	dupWatch, err := oracle.Watch(w.Region(dst).Obj, dstBucket)
	if err != nil {
		return ScrubPoint{}, err
	}

	w.SetChaos(prof)
	cost := costDelta(w, func() {
		// Writes 2s apart; the periodic scrub loop runs alongside them, so
		// the divergence-age histogram reflects the cadence, not just a
		// single post-hoc sweep.
		for i := 0; i < objects; i++ {
			key := fmt.Sprintf("obj-%03d", i)
			putObjectRetrying(w, src, srcBucket, key, []int64{256 * 1024, MB, 4 * MB}[i%3], i)
			if i == 0 && svc.Scrubber != nil {
				svc.Scrubber.Start()
			}
			w.Clock.Sleep(2 * time.Second)
		}
		w.Clock.Quiesce()
		// The periodic loop self-terminates after two clean rounds; if it
		// exited before late drops appeared, a driver-paced pass finishes
		// the job (still under chaos).
		if svc.Scrubber == nil {
			return
		}
		d, err := oracle.Compare(w.Region(src).Obj, srcBucket, w.Region(dst).Obj, dstBucket, "")
		if err != nil {
			panic(err)
		}
		if d.Residual() > 0 {
			if _, _, err := svc.Scrubber.RunUntilClean(); err != nil {
				panic(err)
			}
			w.Clock.Quiesce()
		}
	})
	w.SetChaos(chaos.Profile{})

	diff, err := oracle.Compare(w.Region(src).Obj, srcBucket, w.Region(dst).Obj, dstBucket, "")
	if err != nil {
		return ScrubPoint{}, err
	}
	pct := 100.0
	if diff.Keys > 0 {
		pct = 100 * float64(diff.Converged) / float64(diff.Keys)
	}

	ageHist := w.Metrics.Histogram("antientropy.divergence.age.seconds")
	ageP50, ageMax := 0.0, 0.0
	if ageHist.Count() > 0 {
		ageP50, ageMax = ageHist.Quantile(0.5), ageHist.Max()
	}
	return ScrubPoint{
		Cadence:            label,
		ConvergencePct:     pct,
		ResidualDivergence: diff.Residual(),
		Rounds:             w.Metrics.Counter("antientropy.rounds").Value(),
		DigestBytes:        w.Metrics.Counter("antientropy.digest.bytes").Value(),
		DupFinalWrites:     dupWatch.Duplicates(),
		CadenceS:           cadence.Seconds(),
		Objects:            diff.Keys,
		Converged:          diff.Converged,
		RepairsDispatched:  w.Metrics.Counter("antientropy.repair.dispatched").Value(),
		RepairsRedriven:    w.Metrics.Counter("antientropy.repair.redriven").Value(),
		RepairsDeduped:     w.Metrics.Counter("antientropy.repair.deduped").Value(),
		SLOViolations:      w.Metrics.Counter("antientropy.slo_violations").Value(),
		RepairAgeP50S:      ageP50,
		RepairAgeMaxS:      ageMax,
		TotalCostUSD:       cost,
	}, nil
}

// Tables returns the sweep, one row per cadence.
func (r *ScrubResult) Tables() []Table {
	t := Table{
		Name:  "scrub_cadence",
		Title: fmt.Sprintf("Anti-entropy: scrub cadence x residual divergence/age/cost (profile %s)", r.Profile),
		Cols: []Col{{"cadence", "%s"}, {"cadence_s", "%.0f"}, {"objects", "%d"}, {"converged", "%d"},
			{"convergence_pct", "%.1f"}, {"residual_divergence", "%d"}, {"rounds", "%d"},
			{"repairs_dispatched", "%d"}, {"repairs_redriven", "%d"}, {"repairs_deduped", "%d"},
			{"slo_violations", "%d"}, {"digest_bytes", "%d"}, {"repair_age_p50_s", "%.1f"},
			{"repair_age_max_s", "%.1f"}, {"dup_final_writes", "%d"}, {"total_cost_usd", "%.4f"},
			{"scrub_cost_usd", "%.4f"}, {"cost_overhead_pct", "%.1f"}},
	}
	for _, p := range r.Points {
		t.Add(p.Cadence, p.CadenceS, p.Objects, p.Converged, p.ConvergencePct, p.ResidualDivergence, p.Rounds,
			p.RepairsDispatched, p.RepairsRedriven, p.RepairsDeduped, p.SLOViolations, p.DigestBytes,
			p.RepairAgeP50S, p.RepairAgeMaxS, p.DupFinalWrites, p.TotalCostUSD, p.ScrubCostUSD, p.CostOverheadPct)
	}
	return []Table{t}
}
