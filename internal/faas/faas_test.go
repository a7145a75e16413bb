package faas

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/simclock"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func newPlatform(t testing.TB, provider cloud.Provider) (*simclock.Clock, *Platform, *pricing.Meter) {
	t.Helper()
	var region cloud.Region
	switch provider {
	case cloud.AWS:
		region = cloud.MustLookup("aws:us-east-1")
	case cloud.Azure:
		region = cloud.MustLookup("azure:eastus")
	default:
		region = cloud.MustLookup("gcp:us-east1")
	}
	clk := simclock.New(epoch)
	meter := pricing.NewMeter()
	p := New(clk, region, netsim.New(), meter, DefaultConfig(provider))
	return clk, p, meter
}

func TestInvokeRunsAllHandlers(t *testing.T) {
	clk, p, _ := newPlatform(t, cloud.AWS)
	var ran atomic.Int32
	p.Invoke(10, func(ctx *Ctx) {
		ran.Add(1)
		ctx.Clock.Sleep(time.Second)
	})
	clk.Quiesce()
	if ran.Load() != 10 {
		t.Fatalf("ran %d of 10", ran.Load())
	}
	if st := p.Stats(); st.Invocations != 10 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInvokePaysSerialAPILatency(t *testing.T) {
	clk, p, _ := newPlatform(t, cloud.AWS)
	start := clk.Now()
	p.Invoke(50, func(ctx *Ctx) {})
	callerDone := clk.Since(start)
	clk.Quiesce()
	// I ~ 8ms per call, so 50 calls should cost the caller roughly 0.4 s.
	if callerDone < 150*time.Millisecond || callerDone > 2*time.Second {
		t.Fatalf("caller paid %v for 50 invokes, want ~0.4s", callerDone)
	}
}

func TestColdThenWarmStarts(t *testing.T) {
	clk, p, _ := newPlatform(t, cloud.AWS)
	var first, second time.Duration
	start := clk.Now()
	done := clk.NewEvent()
	p.Invoke(1, func(ctx *Ctx) { first = ctx.Clock.Since(start); done.Trigger() })
	done.Wait()
	clk.Quiesce()

	start2 := clk.Now()
	done2 := clk.NewEvent()
	p.Invoke(1, func(ctx *Ctx) { second = ctx.Clock.Since(start2); done2.Trigger() })
	done2.Wait()
	clk.Quiesce()

	if second >= first {
		t.Fatalf("warm start (%v) should beat cold start (%v)", second, first)
	}
	st := p.Stats()
	if st.ColdStarts != 1 || st.WarmStarts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWarmInstanceKeepsItsMultiplier(t *testing.T) {
	clk, p, _ := newPlatform(t, cloud.Azure)
	var mu sync.Mutex
	mults := map[string][]float64{}
	for i := 0; i < 3; i++ {
		p.Invoke(1, func(ctx *Ctx) {
			mu.Lock()
			mults[ctx.Instance.ID] = append(mults[ctx.Instance.ID], ctx.Instance.BwMult)
			mu.Unlock()
		})
		clk.Quiesce()
	}
	if len(mults) != 1 {
		t.Fatalf("expected one reused instance, got %d: %v", len(mults), mults)
	}
	for _, ms := range mults {
		for _, m := range ms[1:] {
			if m != ms[0] {
				t.Fatal("multiplier changed across warm reuses")
			}
		}
	}
}

func TestWarmPoolExpiry(t *testing.T) {
	clk, p, _ := newPlatform(t, cloud.AWS)
	p.Invoke(1, func(ctx *Ctx) {})
	clk.Quiesce()
	clk.Sleep(p.Config().KeepWarm + time.Minute)
	p.Invoke(1, func(ctx *Ctx) {})
	clk.Quiesce()
	st := p.Stats()
	if st.ColdStarts != 2 || st.WarmStarts != 0 {
		t.Fatalf("expired warm instance should not be reused: %+v", st)
	}
}

func TestInstanceMultipliersVary(t *testing.T) {
	clk, p, _ := newPlatform(t, cloud.Azure)
	var mu sync.Mutex
	var mults []float64
	p.Invoke(64, func(ctx *Ctx) {
		mu.Lock()
		mults = append(mults, ctx.Instance.BwMult)
		mu.Unlock()
		ctx.Clock.Sleep(time.Second) // hold instances so all 64 are distinct
	})
	clk.Quiesce()
	lo, hi := mults[0], mults[0]
	for _, m := range mults {
		if m < lo {
			lo = m
		}
		if m > hi {
			hi = m
		}
	}
	if hi/lo < 1.5 {
		t.Fatalf("instance spread %.2fx too tight for Azure", hi/lo)
	}
}

func TestSchedulerPostponementOnGCP(t *testing.T) {
	// Average first-instance readiness over several fresh platforms: GCP
	// (5s scheduler rounds) must be visibly slower to scale out than AWS.
	avgStart := func(provider cloud.Provider) time.Duration {
		var total time.Duration
		const rounds = 10
		for r := 0; r < rounds; r++ {
			clk := simclock.New(epoch.Add(time.Duration(r) * time.Hour))
			region := cloud.MustLookup("aws:us-east-1")
			if provider == cloud.GCP {
				region = cloud.MustLookup("gcp:us-east1")
			}
			p := New(clk, region, netsim.New(), pricing.NewMeter(), DefaultConfig(provider))
			start := clk.Now()
			var mu sync.Mutex
			var maxReady time.Duration
			p.Invoke(8, func(ctx *Ctx) {
				mu.Lock()
				if d := ctx.Clock.Since(start); d > maxReady {
					maxReady = d
				}
				mu.Unlock()
			})
			clk.Quiesce()
			total += maxReady
		}
		return total / rounds
	}
	aws, gcp := avgStart(cloud.AWS), avgStart(cloud.GCP)
	if gcp <= aws {
		t.Fatalf("GCP scale-out (%v) should be slower than AWS (%v)", gcp, aws)
	}
}

func TestConcurrencyLimitThrottles(t *testing.T) {
	clk, p, _ := newPlatform(t, cloud.AWS)
	cfg := DefaultConfig(cloud.AWS)
	cfg.MaxConcurrency = 4
	p = New(clk, cloud.MustLookup("aws:us-east-1"), netsim.New(), pricing.NewMeter(), cfg)
	var concurrent, peak atomic.Int32
	p.Invoke(16, func(ctx *Ctx) {
		c := concurrent.Add(1)
		for {
			old := peak.Load()
			if c <= old || peak.CompareAndSwap(old, c) {
				break
			}
		}
		ctx.Clock.Sleep(time.Second)
		concurrent.Add(-1)
	})
	clk.Quiesce()
	if peak.Load() > 4 {
		t.Fatalf("peak concurrency %d exceeded limit 4", peak.Load())
	}
	if st := p.Stats(); st.MaxConcurrent > 4 {
		t.Fatalf("stats peak %d exceeded limit", st.MaxConcurrent)
	}
}

func TestBillingPerGBSecond(t *testing.T) {
	clk, p, m := newPlatform(t, cloud.AWS)
	p.Invoke(1, func(ctx *Ctx) { ctx.Clock.Sleep(10 * time.Second) })
	clk.Quiesce()
	got := m.Item("fn:compute")
	want := pricing.FnComputeCost(cloud.AWS, 1.0, 10*time.Second) // 1 GB config
	if got < want*0.99 || got > want*1.2 {
		t.Fatalf("compute cost %v, want about %v", got, want)
	}
	if m.Item("fn:invoke") != pricing.BookFor(cloud.AWS).FnInvocation {
		t.Fatalf("invoke fee = %v", m.Item("fn:invoke"))
	}
}

func TestExecLimitTimeout(t *testing.T) {
	clk, p, m := newPlatform(t, cloud.AWS)
	p.Invoke(1, func(ctx *Ctx) { ctx.Clock.Sleep(20 * time.Minute) }) // over the 15 min cap
	clk.Quiesce()
	if st := p.Stats(); st.Timeouts != 1 {
		t.Fatalf("timeouts = %d", st.Timeouts)
	}
	capCost := pricing.FnComputeCost(cloud.AWS, 1.0, 15*time.Minute)
	if got := m.Item("fn:compute"); got > capCost*1.01 {
		t.Fatalf("billed %v beyond the execution cap %v", got, capCost)
	}
}

func TestBandwidthScaleCombinesConfigAndInstance(t *testing.T) {
	clk, _, _ := newPlatform(t, cloud.AWS)
	cfg := DefaultConfig(cloud.AWS)
	cfg.MemMB = 512 // half the sweet spot
	p := New(clk, cloud.MustLookup("aws:us-east-1"), netsim.New(), pricing.NewMeter(), cfg)
	var scale, mult float64
	p.Invoke(1, func(ctx *Ctx) { scale, mult = ctx.BandwidthScale(), ctx.Instance.BwMult })
	clk.Quiesce()
	if want := mult * 0.5; scale < want*0.99 || scale > want*1.01 {
		t.Fatalf("scale = %v, want %v (mult %v x 0.5)", scale, want, mult)
	}
}
