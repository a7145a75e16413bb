package engine

import (
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/planner"
	"repro/internal/simclock"
	"repro/internal/telemetry"
)

var breakerEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// TestBreakerTripsAtThreshold: consecutive infrastructure failures open
// the breaker; while open, allow() denies the distributed path.
func TestBreakerTripsAtThreshold(t *testing.T) {
	reg := telemetry.NewRegistry()
	clk := simclock.New(breakerEpoch)
	b := newBreaker(clk, reg)

	for i := 0; i < 2; i++ {
		b.failure()
		if !b.allow() {
			t.Fatalf("breaker opened after %d failures, threshold is 3", i+1)
		}
	}
	b.failure()
	if b.allow() {
		t.Fatal("breaker still closed at the threshold")
	}
	if got := reg.Counter("engine.breaker_open").Value(); got != 1 {
		t.Fatalf("engine.breaker_open = %d, want 1", got)
	}
	if got := reg.Gauge("engine.breaker.is_open").Value(); got != 1 {
		t.Fatalf("engine.breaker.is_open = %v, want 1", got)
	}
}

// TestBreakerSuccessResetsCount: a success between failures clears the
// consecutive-failure count, so sporadic faults never trip it.
func TestBreakerSuccessResetsCount(t *testing.T) {
	b := newBreaker(simclock.New(breakerEpoch), nil)
	for i := 0; i < 10; i++ {
		b.failure()
		b.failure()
		b.success()
	}
	if !b.allow() {
		t.Fatal("breaker opened despite successes resetting the count")
	}
}

// TestBreakerHalfOpenProbe: after the cooldown the first attempt probes;
// a probe failure re-opens immediately, a probe success closes.
func TestBreakerHalfOpenProbe(t *testing.T) {
	clk := simclock.New(breakerEpoch)
	b := newBreaker(clk, nil)
	for i := 0; i < breakerThreshold; i++ {
		b.failure()
	}

	clk.Go(func() { clk.Sleep(30 * time.Second) })
	clk.Quiesce()
	if b.allow() {
		t.Fatal("breaker closed before the cooldown elapsed")
	}

	clk.Go(func() { clk.Sleep(31 * time.Second) })
	clk.Quiesce()
	if !b.allow() {
		t.Fatal("breaker denied the half-open probe")
	}
	b.failure() // probe failed: re-open on ONE failure, not the threshold
	if b.allow() {
		t.Fatal("failed probe did not re-open the breaker")
	}

	clk.Go(func() { clk.Sleep(61 * time.Second) })
	clk.Quiesce()
	if !b.allow() {
		t.Fatal("breaker denied the second probe")
	}
	b.success()
	if !b.allow() {
		t.Fatal("successful probe did not close the breaker")
	}
	b.failure() // closed again: single failures tolerated up to threshold
	if !b.allow() {
		t.Fatal("closed breaker opened on a single failure")
	}
}

// TestSetGaugesSumAcrossRules: the Set-style gauges are per-rule levels,
// so with two rules on one registry the plain-name aggregate must be
// their sum — one rule's Set(0) must not erase what another still holds.
func TestSetGaugesSumAcrossRules(t *testing.T) {
	reg := telemetry.NewRegistry()
	clk := simclock.New(breakerEpoch)
	a := newBreaker(clk, reg, telemetry.L("rule", "a"))
	b := newBreaker(clk, reg, telemetry.L("rule", "b"))
	open := reg.Gauge("engine.breaker.is_open")
	for i := 0; i < breakerThreshold; i++ {
		a.failure()
	}
	b.success()
	if open.Value() != 1 {
		t.Fatalf("is_open = %d after b's success, want a's open breaker still counted", open.Value())
	}
	for i := 0; i < breakerThreshold; i++ {
		b.failure()
	}
	a.success()
	if open.Value() != 1 || open.Max() != 2 {
		t.Fatalf("is_open = %d (max %d), want 1 open now and 2 at the peak", open.Value(), open.Max())
	}

	// Two engines on one world: A parks one event, B parks two.
	fa := newFixture(t, func(r *Rule) { r.ForceN = 1 })
	w := fa.w
	ruleB := Rule{Src: srcID, Dst: dstID, SrcBucket: "src-b", DstBucket: "dst-b", ForceN: 1}
	if err := w.Region(srcID).Obj.CreateBucket(ruleB.SrcBucket, false); err != nil {
		t.Fatal(err)
	}
	if err := w.Region(dstID).Obj.CreateBucket(ruleB.DstBucket, false); err != nil {
		t.Fatal(err)
	}
	engB := New(w, planner.New(model.New()), ruleB)
	if err := w.Region(srcID).Obj.Subscribe(ruleB.SrcBucket, engB.HandleEvent); err != nil {
		t.Fatal(err)
	}
	failObjRequests(w, dstID, 1.0)
	fa.put(t, "k", 1<<20, 1)
	for i, key := range []string{"k1", "k2"} {
		if _, err := w.Region(srcID).Obj.Put(ruleB.SrcBucket, key, objstore.BlobOfSize(1<<20, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	w.Clock.Quiesce()
	depth := w.Metrics.Gauge("engine.dlq.depth")
	if depth.Value() != 3 {
		t.Fatalf("dlq.depth = %d, want 3 (A parked %d, B parked %d)", depth.Value(), len(fa.eng.DLQ()), len(engB.DLQ()))
	}
	w.Region(dstID).Obj.SetChaos(nil)
	engB.RedriveDLQ()
	if depth.Value() != 1 {
		t.Fatalf("dlq.depth = %d after B's redrive, want A's parked event still counted", depth.Value())
	}
	w.Clock.Quiesce()
}
