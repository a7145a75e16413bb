package fleet

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/simclock"
)

var (
	epoch    = time.Unix(0, 0)
	testLane = LaneID{Provider: "aws", Region: "us-east-1"}
)

func ruleStats(s *Scheduler) map[string]RuleStats {
	out := make(map[string]RuleStats)
	for _, st := range s.RuleStats() {
		out[st.Rule] = st
	}
	return out
}

// TestSchedulerAdmissionOrder: one lane, everything queued before the
// first pump. Admission goes by priority class, then by fair share (a
// rule's vruntime grows with each admission, so a rule with two queued
// dispatches yields to its class-mates after the first), then by rule ID.
func TestSchedulerAdmissionOrder(t *testing.T) {
	clk := simclock.New(epoch)
	s := NewScheduler(clk, nil, nil, SchedConfig{})
	for _, r := range []struct {
		id       string
		priority int
	}{{"lo-b", 0}, {"lo-a", 0}, {"hi-z", 1}, {"hi-y", 1}} {
		if err := s.Register(r.id, "dst", testLane, 1, r.priority); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Register("lo-a", "dst", testLane, 1, 0); err == nil {
		t.Error("registering a rule twice succeeded")
	}
	var order []string
	for _, id := range []string{"lo-a", "lo-a", "lo-b", "hi-z", "hi-y"} {
		s.Submit(id, func(done func()) {
			order = append(order, id)
			done()
		})
	}
	clk.Quiesce()
	if want := []string{"hi-y", "hi-z", "lo-a", "lo-b", "lo-a"}; !reflect.DeepEqual(order, want) {
		t.Errorf("admission order %v, want %v", order, want)
	}
}

// TestSchedulerFairShareUnderSaturation: two rules with deep backlogs
// share a three-slot lane whose dispatches each hold a slot for a second.
// The lane never runs more than LaneSlots at once, and while both rules
// stay backlogged the weight-2 rule is admitted twice as often.
func TestSchedulerFairShareUnderSaturation(t *testing.T) {
	const slots, backlog = 3, 200
	clk := simclock.New(epoch)
	s := NewScheduler(clk, nil, nil, SchedConfig{LaneSlots: slots})
	for id, weight := range map[string]float64{"w1": 1, "w2": 2} {
		if err := s.Register(id, "dst", testLane, weight, 0); err != nil {
			t.Fatal(err)
		}
	}
	running, peak, ran := 0, 0, 0
	for i := 0; i < backlog; i++ {
		for _, id := range []string{"w1", "w2"} {
			s.Submit(id, func(done func()) {
				running++
				peak = max(peak, running)
				clk.Sleep(time.Second)
				running--
				ran++
				done()
			})
		}
	}

	clk.Sleep(time.Minute) // ~180 admissions: both rules still have work queued
	st := ruleStats(s)
	w1, w2 := st["w1"].Admits, st["w2"].Admits
	if st["w1"].Queued == 0 || st["w2"].Queued == 0 {
		t.Fatalf("a backlog drained early (queued %d, %d): the lane was not saturated", st["w1"].Queued, st["w2"].Queued)
	}
	if w1 < 30 || w2 < 2*w1-2 || w2 > 2*w1+2 {
		t.Errorf("admits w1 = %d, w2 = %d; want w2 about 2x w1", w1, w2)
	}
	if st["w1"].Defers == 0 {
		t.Error("a backlogged rule was never counted deferred")
	}

	clk.Quiesce()
	if ran != 2*backlog {
		t.Errorf("ran %d dispatches, want %d", ran, 2*backlog)
	}
	if peak != slots {
		t.Errorf("peak concurrent dispatches = %d, want exactly LaneSlots = %d", peak, slots)
	}
	if bs := s.BatchStats(); bs.Admitted != 2*backlog || bs.Batches == 0 {
		t.Errorf("BatchStats = %+v, want %d admitted", bs, 2*backlog)
	}
}

// TestSchedulerStarvationMarks: a one-slot lane whose dispatches hold the
// slot for 10 s, with a 5 s starvation threshold. The second and third
// dispatch both outwait the threshold; each is marked once, however many
// pump rounds it then sits through.
func TestSchedulerStarvationMarks(t *testing.T) {
	clk := simclock.New(epoch)
	s := NewScheduler(clk, nil, nil, SchedConfig{LaneSlots: 1, StarveAfter: 5 * time.Second})
	for _, id := range []string{"slow", "quick"} {
		if err := s.Register(id, "dst", testLane, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		s.Submit("slow", func(done func()) {
			clk.Sleep(10 * time.Second)
			done()
		})
	}
	clk.Quiesce()
	s.Submit("quick", func(done func()) { done() })
	clk.Quiesce()

	st := ruleStats(s)
	if got := st["slow"].Starved; got != 2 {
		t.Errorf("slow rule starvation marks = %d, want 2 (one per event that outwaited the threshold)", got)
	}
	if got := st["quick"].Starved; got != 0 {
		t.Errorf("promptly admitted rule has %d starvation marks, want 0", got)
	}
	if got := st["slow"].MaxQueue; got != 3 {
		t.Errorf("slow rule MaxQueue = %d, want 3", got)
	}
}

// TestLedgerTicketsAreFIFO: waiters on a full lane poll on their own
// phases, so after the release the later arrivals poll first — and must
// still wait their turn behind the earlier ticket.
func TestLedgerTicketsAreFIFO(t *testing.T) {
	clk := simclock.New(epoch)
	l := NewLedger(clk, nil, QuotaConfig{FaaSConcurrency: 1})
	l.Acquire(testLane)
	if !l.Saturated(testLane) {
		t.Fatal("a full lane does not report saturated")
	}
	var order []string
	for _, name := range []string{"first", "second", "third"} {
		clk.Go(func() {
			l.Acquire(testLane)
			order = append(order, name)
			clk.Sleep(time.Second)
			l.Release(testLane)
		})
		clk.Sleep(20 * time.Millisecond)
	}
	l.Release(testLane) // at 60 ms: "second" and "third" poll before "first" does
	clk.Quiesce()

	if want := []string{"first", "second", "third"}; !reflect.DeepEqual(order, want) {
		t.Errorf("grant order %v, want %v", order, want)
	}
	st := l.Stats()
	if len(st) != 1 || st[0].MaxInflight != 1 || st[0].Forced != 0 || st[0].Inflight != 0 {
		t.Errorf("lane stats %+v, want cap never exceeded, nothing forced, nothing held", st)
	}
}

// TestLedgerStallGuardForcesAdmission: a saturated lane that sees no
// release for the whole guard window lets its head waiter through, and
// counts it.
func TestLedgerStallGuardForcesAdmission(t *testing.T) {
	clk := simclock.New(epoch)
	l := NewLedger(clk, nil, QuotaConfig{FaaSConcurrency: 1})
	l.Acquire(testLane) // never released
	l.Acquire(testLane)
	if waited := clk.Since(epoch); waited <= stallGuard || waited > stallGuard+time.Second {
		t.Errorf("forced admission after %v, want just past the %v guard", waited, stallGuard)
	}
	if st := l.Stats(); len(st) != 1 || st[0].Forced != 1 || st[0].MaxInflight != 2 {
		t.Errorf("lane stats %+v, want 1 forced admission above the cap", st)
	}
}

// TestLedgerKVBucketRefillsOnVirtualTime: a 10 ops/s lane grants one
// second of burst for free, charges the next operation a tenth of a
// second, and is full again after a virtual second of idleness.
func TestLedgerKVBucketRefillsOnVirtualTime(t *testing.T) {
	clk := simclock.New(epoch)
	l := NewLedger(clk, nil, QuotaConfig{KVOpsPerSec: 10})
	spend := func(n int) time.Duration {
		start := clk.Now()
		for i := 0; i < n; i++ {
			l.WaitKV(testLane)
		}
		return clk.Since(start)
	}
	if d := spend(10); d != 0 {
		t.Errorf("the first second's burst took %v of virtual time, want 0", d)
	}
	if d := spend(1); d != 100*time.Millisecond {
		t.Errorf("one operation past the burst waited %v, want 100ms", d)
	}
	clk.Sleep(2 * time.Second)
	if d := spend(10); d != 0 {
		t.Errorf("after idling, a full burst took %v, want 0 (the bucket refills, capped at one second)", d)
	}
	if d := spend(5); d != 500*time.Millisecond {
		t.Errorf("five operations past the refilled burst waited %v, want 500ms", d)
	}

	var none *Ledger
	none.Acquire(testLane)
	none.WaitKV(testLane)
	none.Release(testLane)
	if none.Saturated(testLane) || none.Stats() != nil {
		t.Error("a nil ledger must admit everything and report nothing")
	}
	if got := fmt.Sprint(testLane); got != "aws/us-east-1" {
		t.Errorf("LaneID prints as %q", got)
	}
}
