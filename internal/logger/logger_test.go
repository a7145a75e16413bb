package logger

import (
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/stats"
)

const (
	src = cloud.RegionID("aws:us-east-1")
	dst = cloud.RegionID("gcp:us-east1")
)

func fitted() *model.Model {
	m := model.New()
	m.SetLoc(src, model.LocParams{I: stats.N(0.01, 0.002), D: stats.N(0.3, 0.05), P: stats.N(0.1, 0.02)})
	m.SetPath(model.PathKey{Src: src, Dst: dst, Loc: src},
		model.PathParams{S: stats.N(0.3, 0.05),
			C:  model.ChunkTime{Mu: 0.1, Between: 0.015, Within: 0.015},
			Cp: model.ChunkTime{Mu: 0.11, Between: 0.015, Within: 0.015}})
	return m
}

func result(predMean, actual float64) engine.TaskResult {
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	return engine.TaskResult{
		Key: "k", Size: 64 << 20, OK: true,
		Plan:  planner.Plan{N: 4, Loc: src, EstMean: predMean},
		Start: start,
		End:   start.Add(time.Duration(actual * float64(time.Second))),
	}
}

func TestAccuratePredictionsNoRefresh(t *testing.T) {
	m := fitted()
	lg := New(m, src, dst)
	before, _ := m.Path(model.PathKey{Src: src, Dst: dst, Loc: src})
	for i := 0; i < 50; i++ {
		lg.Observe(result(2.0, 2.05)) // within 3% of the prediction
	}
	if st := lg.Stats(); st.Refreshes != 0 || st.Observed != 50 {
		t.Fatalf("stats = %+v", st)
	}
	after, _ := m.Path(model.PathKey{Src: src, Dst: dst, Loc: src})
	if before != after {
		t.Fatal("parameters changed without deviation")
	}
}

func TestPersistentDeviationTriggersRefresh(t *testing.T) {
	m := fitted()
	lg := New(m, src, dst)
	before, _ := m.Path(model.PathKey{Src: src, Dst: dst, Loc: src})
	// The link got 2x slower than the model believes.
	for i := 0; i < 20; i++ {
		lg.Observe(result(2.0, 4.0))
	}
	st := lg.Stats()
	if st.Refreshes == 0 {
		t.Fatal("persistent 2x deviation should refresh the model")
	}
	after, _ := m.Path(model.PathKey{Src: src, Dst: dst, Loc: src})
	if after.C.Mu <= before.C.Mu {
		t.Fatalf("C should scale up: %v -> %v", before.C.Mu, after.C.Mu)
	}
	if after.Cp.Mu <= before.Cp.Mu || after.S.Mu <= before.S.Mu {
		t.Fatal("Cp and S should scale up too")
	}
}

func TestSpeedupAlsoRefreshes(t *testing.T) {
	m := fitted()
	lg := New(m, src, dst)
	before, _ := m.Path(model.PathKey{Src: src, Dst: dst, Loc: src})
	for i := 0; i < 20; i++ {
		lg.Observe(result(4.0, 2.0)) // link got faster
	}
	after, _ := m.Path(model.PathKey{Src: src, Dst: dst, Loc: src})
	if after.C.Mu >= before.C.Mu {
		t.Fatal("C should scale down after persistent speedup")
	}
}

func TestTransientSpikeDoesNotRefresh(t *testing.T) {
	m := fitted()
	lg := New(m, src, dst)
	// One bad task among accurate ones: the EWMA should absorb it.
	for i := 0; i < 6; i++ {
		lg.Observe(result(2.0, 2.0))
	}
	lg.Observe(result(2.0, 8.0))
	for i := 0; i < 6; i++ {
		lg.Observe(result(2.0, 2.0))
	}
	if st := lg.Stats(); st.Refreshes != 0 {
		t.Fatalf("transient spike refreshed the model: %+v", st)
	}
}

func TestSkipsNonTasks(t *testing.T) {
	lg := New(fitted(), src, dst)
	r := result(2.0, 4.0)
	r.OK = false
	lg.Observe(r)
	r = result(2.0, 4.0)
	r.Changelog = true
	lg.Observe(r)
	r = result(0, 4.0) // no prediction
	lg.Observe(r)
	if st := lg.Stats(); st.Observed != 0 {
		t.Fatalf("ineligible results observed: %+v", st)
	}
}

func TestRefreshOnUnknownPathIsSafe(t *testing.T) {
	m := fitted()
	lg := New(m, src, dst)
	r := result(2.0, 8.0)
	r.Plan.Loc = cloud.RegionID("azure:eastus") // no params for this loc
	for i := 0; i < 20; i++ {
		lg.Observe(r)
	}
	// Must not panic; refresh against a missing path is a no-op.
}
