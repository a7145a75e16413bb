package objstore

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/pricing"
	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// chaosStore builds a store with the given profile armed and telemetry on.
func chaosStore(t *testing.T, p chaos.Profile) (*simclock.Clock, *Store, *telemetry.Registry) {
	t.Helper()
	clk := simclock.New(epoch)
	reg := telemetry.NewRegistry()
	s := New(clk, cloud.MustLookup("aws:us-east-1"), pricing.NewMeter())
	s.SetTelemetry(reg)
	s.SetChaos(chaos.NewInjector(clk, p, reg))
	if err := s.CreateBucket("b", false); err != nil {
		t.Fatal(err)
	}
	return clk, s, reg
}

// TestChaosFailsEveryOpWithTelemetry: a rate-1 fail profile must refuse
// every operation class with ErrUnavailable and count each under its
// per-op failure counter (satellite: maybeFail covers all ops).
func TestChaosFailsEveryOpWithTelemetry(t *testing.T) {
	_, s, reg := chaosStore(t, chaos.Profile{Name: "t", ObjFailRate: 1})

	calls := map[string]func() error{
		OpPut:       func() error { _, err := s.Put("b", "k", BlobOfSize(100, 1)); return err },
		OpGet:       func() error { _, err := s.Get("b", "k"); return err },
		OpGetRange:  func() error { _, _, err := s.GetRange("b", "k", 0, 10); return err },
		OpDelete:    func() error { return s.Delete("b", "k") },
		OpCopy:      func() error { _, err := s.Copy("b", "k", "b", "k2", ""); return err },
		OpList:      func() error { _, err := s.List("b"); return err },
		OpMpuCreate: func() error { _, err := s.CreateMultipart("b", "k"); return err },
	}
	for op, call := range calls {
		if err := call(); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("%s under rate-1 chaos returned %v, want ErrUnavailable", op, err)
		}
		if got := reg.Counter("objstore.failures." + op).Value(); got < 1 {
			t.Fatalf("objstore.failures.%s = %d, want >= 1", op, got)
		}
	}
	if s.Stats().Failures < int64(len(calls)) {
		t.Fatalf("Stats().Failures = %d, want >= %d", s.Stats().Failures, len(calls))
	}
}

// TestChaosSlowRequestsConsumeClock: slow-request injection adds latency
// on the virtual clock without failing the request.
func TestChaosSlowRequestsConsumeClock(t *testing.T) {
	clk, s, _ := chaosStore(t, chaos.Profile{
		Name: "t", ObjSlowRate: 1, ObjSlowMax: 800 * time.Millisecond,
	})
	_, base, _ := chaosStore(t, chaos.Profile{})

	var slow, fast time.Duration
	clk.Go(func() {
		start := clk.Now()
		if _, err := s.Put("b", "k", BlobOfSize(100, 1)); err != nil {
			t.Errorf("slow put failed: %v", err)
		}
		slow = clk.Now().Sub(start)
	})
	clk.Quiesce()
	bclk := base.clock
	bclk.Go(func() {
		start := bclk.Now()
		if _, err := base.Put("b", "k", BlobOfSize(100, 1)); err != nil {
			t.Errorf("baseline put failed: %v", err)
		}
		fast = bclk.Now().Sub(start)
	})
	bclk.Quiesce()
	if slow <= fast {
		t.Fatalf("slow-injected put (%v) not slower than baseline (%v)", slow, fast)
	}
}

// TestChaosMultipartVanishes: a vanished upload surfaces as
// ErrNoSuchUpload on the next part operation, like a lifecycle abort.
func TestChaosMultipartVanishes(t *testing.T) {
	_, s, _ := chaosStore(t, chaos.Profile{Name: "t", ObjMpuVanishRate: 1})
	id, err := s.CreateMultipart("b", "k")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.UploadPart(id, 1, BlobOfSize(100, 1)); !errors.Is(err, ErrNoSuchUpload) {
		t.Fatalf("UploadPart on vanished MPU = %v, want ErrNoSuchUpload", err)
	}
}

// TestChaosNotificationLossAndDuplication exercises delivery chaos at the
// store level: loss drops the event entirely, duplication delivers it
// twice, both counted.
func TestChaosNotificationLossAndDuplication(t *testing.T) {
	clk, s, reg := chaosStore(t, chaos.Profile{Name: "t", NotifyLossRate: 1})
	var mu sync.Mutex
	got := 0
	if err := s.Subscribe("b", func(Event) { mu.Lock(); got++; mu.Unlock() }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("b", "k", BlobOfSize(100, 1)); err != nil {
		t.Fatal(err)
	}
	clk.Quiesce()
	if got != 0 {
		t.Fatalf("%d notifications delivered under rate-1 loss, want 0", got)
	}
	if s.Stats().NotifyDropped != 1 || reg.Counter("objstore.notify.dropped").Value() != 1 {
		t.Fatalf("dropped stats = %d, want 1", s.Stats().NotifyDropped)
	}

	clk2, s2, reg2 := chaosStore(t, chaos.Profile{Name: "t", NotifyDupRate: 1})
	got2 := 0
	if err := s2.Subscribe("b", func(Event) { mu.Lock(); got2++; mu.Unlock() }); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Put("b", "k", BlobOfSize(100, 1)); err != nil {
		t.Fatal(err)
	}
	clk2.Quiesce()
	if got2 != 2 {
		t.Fatalf("%d deliveries under rate-1 duplication, want 2", got2)
	}
	if s2.Stats().NotifyDuped != 1 || reg2.Counter("objstore.notify.duplicated").Value() != 1 {
		t.Fatalf("duplicated stats = %d, want 1", s2.Stats().NotifyDuped)
	}
}

// TestStoreInjectorFailsOnlyItsStoreAndHeals pins what tests rely on when
// they arm one store's faults: an injector with ObjFailRate 1 set on a
// single store fails every request that goes through maybeFail with
// ErrUnavailable and counts each in Stats().Failures; a store in another
// region on the same clock is untouched; SetChaos(nil) heals the store.
func TestStoreInjectorFailsOnlyItsStoreAndHeals(t *testing.T) {
	clk := simclock.New(epoch)
	reg := telemetry.NewRegistry()
	meter := pricing.NewMeter()
	down := New(clk, cloud.MustLookup("aws:us-east-1"), meter)
	up := New(clk, cloud.MustLookup("gcp:us-east1"), meter)

	type request struct {
		op   string
		call func() error
	}
	// requests sets up a key and two uploads on s, then returns one
	// request per maybeFail call site, in an order that succeeds on a
	// healthy store.
	requests := func(s *Store) []request {
		if err := s.CreateBucket("b", false); err != nil {
			t.Fatal(err)
		}
		var done, aborted string
		clk.Go(func() {
			if _, err := s.Put("b", "k", BlobOfSize(100, 1)); err != nil {
				t.Error(err)
			}
			var err error
			if done, err = s.CreateMultipart("b", "m"); err != nil {
				t.Error(err)
			}
			if _, err = s.UploadPart(done, 1, BlobOfSize(100, 2)); err != nil {
				t.Error(err)
			}
			if aborted, err = s.CreateMultipart("b", "a"); err != nil {
				t.Error(err)
			}
		})
		clk.Quiesce()
		blob := BlobOfSize(100, 3)
		return []request{
			{"put", func() error { _, err := s.Put("b", "k2", blob); return err }},
			{"get", func() error { _, err := s.Get("b", "k"); return err }},
			{"head", func() error { _, err := s.Head("b", "k"); return err }},
			{"get_range", func() error { _, _, err := s.GetRange("b", "k", 0, 10); return err }},
			{"copy", func() error { _, err := s.Copy("b", "k", "b", "k3", ""); return err }},
			{"compose", func() error { _, err := s.ComposeWithOrigin("b", "k4", []string{"k", "k2"}, nil, ""); return err }},
			{"list", func() error { _, _, err := s.ListPage("b", "", "", 10); return err }},
			{"mpu_create", func() error { _, err := s.CreateMultipart("b", "m2"); return err }},
			{"mpu_upload", func() error { _, err := s.UploadPart(done, 2, blob); return err }},
			{"mpu_head", func() error { _, err := s.HeadMultipart(done); return err }},
			{"mpu_list", func() error { _, _, err := s.ListMultipartsPage("b", ""); return err }},
			{"mpu_complete", func() error { _, err := s.CompleteMultipart(done); return err }},
			{"mpu_abort", func() error { return s.AbortMultipart(aborted) }},
			{"delete", func() error { return s.Delete("b", "k") }},
		}
	}
	downReqs, upReqs := requests(down), requests(up)

	down.SetChaos(chaos.NewInjector(clk, chaos.Profile{Name: "down", ObjFailRate: 1}, reg))
	clk.Go(func() {
		for i, r := range downReqs {
			if err := r.call(); !errors.Is(err, ErrUnavailable) {
				t.Errorf("%s on the armed store = %v, want ErrUnavailable", r.op, err)
			}
			if got, want := down.Stats().Failures, int64(i+1); got != want {
				t.Errorf("after %s, Stats().Failures = %d, want %d", r.op, got, want)
			}
		}
		for _, r := range upReqs {
			if err := r.call(); err != nil {
				t.Errorf("%s on the other region's store = %v, want nil", r.op, err)
			}
		}
	})
	clk.Quiesce()
	if got := up.Stats().Failures; got != 0 {
		t.Fatalf("the other region's store counted %d failures, want 0", got)
	}

	down.SetChaos(nil)
	clk.Go(func() {
		for _, r := range downReqs {
			if err := r.call(); err != nil {
				t.Errorf("%s after SetChaos(nil) = %v, want nil", r.op, err)
			}
		}
	})
	clk.Quiesce()
	if got, want := down.Stats().Failures, int64(len(downReqs)); got != want {
		t.Fatalf("healed store counted %d failures, want %d", got, want)
	}
}
