package experiments

import (
	"fmt"
	"sync"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/stats"
)

// OverlayResult is the §6 extension ablation: direct one-sided execution
// versus a serverless overlay relay on a trans-continental path.
type OverlayResult struct {
	Src, Dst, Relay cloud.RegionID
	SizeBytes       int64

	DirectS, RelayS       float64 // mean replication time
	DirectCost, RelayCost float64 // mean per-object cost
	RelayChosen           bool    // did the planner actually pick the relay?
}

// RunOverlayAblation replicates a 1 GB object over a weak direct path
// with and without a relay candidate. Executing at the relay moves the
// long haul onto a faster platform, but the second cross-region hop adds
// an egress charge — the time/cost trade-off §6 describes for overlay
// networks.
func RunOverlayAblation(quick bool) *OverlayResult {
	rounds := 6
	if quick {
		rounds = 3
	}
	// GCP -> Azure is the weakest direct pairing (both executors are
	// slower and the GCP<->Azure peering quirk bites); an AWS relay next
	// door to the source runs the long haul on AWS's faster, steadier
	// functions.
	src := cloud.RegionID("gcp:us-east1")
	dst := cloud.RegionID("azure:southeastasia")
	relay := cloud.RegionID("aws:us-east-1")
	const size = 1 * GB

	run := func(relays []cloud.RegionID) (float64, float64, bool) {
		w := newWorld("overlay")
		m := model.New()
		mustCreate(w, src, "src", false)
		mustCreate(w, dst, "dst", false)
		var mu sync.Mutex
		var times []float64
		relayChosen := false
		svc := deployService(w, m, engine.Rule{
			Src: src, Dst: dst, SrcBucket: "src", DstBucket: "dst", SLO: 0,
		}, core.Options{
			Relays:        relays,
			ProfileRounds: profileRounds(quick),
			OnTaskDone: func(r engine.TaskResult) {
				mu.Lock()
				times = append(times, r.ExecSeconds())
				if r.Plan.Loc != src && r.Plan.Loc != dst {
					relayChosen = true
				}
				mu.Unlock()
			},
		})
		_ = svc
		var cost float64
		for r := 0; r < rounds; r++ {
			cost += costDelta(w, func() {
				putObject(w, src, "src", "obj", size, r)
			})
		}
		return stats.Mean(times), cost / float64(rounds), relayChosen
	}

	res := &OverlayResult{Src: src, Dst: dst, Relay: relay, SizeBytes: size}
	res.DirectS, res.DirectCost, _ = run(nil)
	res.RelayS, res.RelayCost, res.RelayChosen = run([]cloud.RegionID{relay})
	return res
}

// Tables returns the trade-off (printed only).
func (r *OverlayResult) Tables() []Table {
	t := Table{
		Title: fmt.Sprintf("Serverless overlay relay ablation (§6 extension), %s %s -> %s via %s",
			fmtSize(r.SizeBytes), r.Src, r.Dst, r.Relay),
		Cols: []Col{{"path", "%s"}, {"seconds", "%.1f"}, {"usd_per_object", "%.4f"}, {"relay_chosen", "%v"}},
	}
	t.Add("direct", r.DirectS, r.DirectCost, false)
	t.Add("with relay", r.RelayS, r.RelayCost, r.RelayChosen)
	if r.RelayS > 0 {
		t.Notes = []string{fmt.Sprintf("speedup %.2fx at %.2fx the cost", r.DirectS/r.RelayS, r.RelayCost/r.DirectCost)}
	}
	return []Table{t}
}
