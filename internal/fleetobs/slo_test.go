package fleetobs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/objstore"
	"repro/internal/telemetry"
)

// fixedClock is a hand-advanced stand-in for the virtual clock.
type fixedClock struct{ t time.Time }

func (c *fixedClock) now() time.Time               { return c.t }
func (c *fixedClock) advance(d time.Duration)      { c.t = c.t.Add(d) }
func at(base time.Time, d time.Duration) time.Time { return base.Add(d) }

func newHarness(lagTarget time.Duration) (*fixedClock, *engine.Tracker, *Monitor, *EventLog) {
	clk := &fixedClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
	tr := engine.NewTracker()
	log := NewEventLog()
	mon := NewMonitor(MonitorConfig{
		Rule:      "aws:us-east-1/src->azure:eastus/dst",
		Dest:      "azure:eastus",
		Now:       clk.now,
		LagTarget: lagTarget,
		Log:       log,
		Tracker:   tr,
		LagHist:   telemetry.NewHistogram(nil),
	})
	return clk, tr, mon, log
}

func put(tr *engine.Tracker, key string, seq uint64, t time.Time) {
	tr.OnSource(objstore.Event{Type: objstore.EventPut, Key: key, Seq: seq, Size: 1, Time: t})
}

// TestBurnRateOverduePending is the fault-window case: events arrive and
// nothing resolves. Once the pending events outlive the lag target, both
// windows burn and the monitor pages; after resolution it recovers.
func TestBurnRateOverduePending(t *testing.T) {
	clk, tr, mon, log := newHarness(5 * time.Second)
	base := clk.t

	put(tr, "a", 1, base)
	put(tr, "b", 2, base)
	mon.Poll() // fresh pending, not yet overdue
	if log.Len() != 0 {
		t.Fatalf("alert before target exceeded: %+v", log.Events())
	}

	clk.advance(30 * time.Second) // both pending events now 30s old, target 5s
	mon.Poll()
	if got := log.Len(); got != 1 {
		t.Fatalf("events after overdue poll = %d, want 1 (page)", got)
	}
	ev := log.Events()[0]
	if ev.Kind != "lag-burn" || ev.State != StatePage || ev.Severity != StatePage {
		t.Fatalf("unexpected event %+v", ev)
	}
	if ev.BurnShort < pageBurn || ev.BurnLong < pageBurn {
		t.Fatalf("burns %.1f/%.1f below page threshold", ev.BurnShort, ev.BurnLong)
	}
	if mon.AlertCount() != 1 {
		t.Fatalf("AlertCount = %d, want 1", mon.AlertCount())
	}
	if h := mon.Health(); h.State != StatePage || h.Backlog != 2 || h.OldestAgeS != 30 {
		t.Fatalf("health during fault = %+v", h)
	}

	// Repeated polls in the same state must not re-alert.
	clk.advance(time.Second)
	mon.Poll()
	if log.Len() != 1 {
		t.Fatalf("duplicate alert on unchanged state: %+v", log.Events())
	}

	// Resolution drains the backlog; the bad records age out of both
	// windows and the monitor emits a recovery event.
	tr.Resolve("a", 1, clk.t)
	tr.Resolve("b", 2, clk.t)
	clk.advance(10 * time.Minute)
	mon.Poll()
	evs := log.Events()
	last := evs[len(evs)-1]
	if last.State != StateOK || last.Severity != "info" {
		t.Fatalf("expected recovery event, got %+v", last)
	}
	if mon.AlertCount() != 1 {
		t.Fatalf("recovery should not count as an alert: %d", mon.AlertCount())
	}
}

// TestBurnRateResolvedBad covers slow-but-completing replication: enough
// resolved records over target within both windows trips the warn and
// page thresholds via the resolved path, no overdue pending needed.
func TestBurnRateResolvedBad(t *testing.T) {
	clk, tr, mon, _ := newHarness(time.Second)
	base := clk.t

	// 10 events, all resolving in 5s (> 1s target): bad fraction 1.0,
	// budget 0.01 → burn 100 in both windows → page.
	for i := 0; i < 10; i++ {
		put(tr, key(i), uint64(i+1), at(base, time.Duration(i)*time.Second))
	}
	clk.advance(15 * time.Second)
	for i := 0; i < 10; i++ {
		tr.Resolve(key(i), uint64(i+1), at(base, time.Duration(i+5)*time.Second).Add(5*time.Second))
	}
	mon.Poll()
	if h := mon.Health(); h.State != StatePage {
		t.Fatalf("state = %s, want page (burns %.1f/%.1f)", h.State, h.BurnShort, h.BurnLong)
	}
}

func key(i int) string { return string(rune('a' + i)) }

func TestDLQAndDivergenceSignals(t *testing.T) {
	clk, tr, _, _ := newHarness(0)
	_ = tr
	depth := 0
	var violations int64
	log := NewEventLog()
	mon := NewMonitor(MonitorConfig{
		Rule:       "r",
		Now:        clk.now,
		Log:        log,
		Tracker:    engine.NewTracker(),
		LagHist:    telemetry.NewHistogram(nil),
		DLQDepth:   func() int { return depth },
		Divergence: func() int64 { return violations },
	})
	mon.Poll()
	if log.Len() != 0 {
		t.Fatalf("clean poll emitted events: %+v", log.Events())
	}
	depth = 2
	mon.Poll()
	if log.Len() != 1 || log.Events()[0].Kind != "dlq" || log.Events()[0].State != StatePage {
		t.Fatalf("want one dlq page, got %+v", log.Events())
	}
	depth = 0
	violations = 1
	mon.Poll()
	evs := log.Events()
	if len(evs) != 3 {
		t.Fatalf("want dlq recovery + divergence page, got %+v", evs)
	}
	kinds := map[string]bool{}
	for _, ev := range evs[1:] {
		kinds[ev.Kind] = true
	}
	if !kinds["dlq"] || !kinds["divergence"] {
		t.Fatalf("missing signal kinds in %+v", evs[1:])
	}
	// Unchanged divergence count must not re-fire.
	mon.Poll()
	if log.Len() != 3 {
		t.Fatalf("divergence re-fired without growth: %+v", log.Events())
	}
	if mon.AlertCount() != 2 {
		t.Fatalf("AlertCount = %d, want 2 (dlq page + divergence)", mon.AlertCount())
	}
}

// TestEventLogJSONLDeterministic replays the same schedule twice and
// requires byte-identical JSONL.
func TestEventLogJSONLDeterministic(t *testing.T) {
	run := func() string {
		clk, tr, mon, log := newHarness(2 * time.Second)
		base := clk.t
		put(tr, "x", 1, base)
		clk.advance(10 * time.Second)
		mon.Poll()
		tr.Resolve("x", 1, clk.t)
		clk.advance(10 * time.Minute)
		mon.Poll()
		var buf bytes.Buffer
		if err := log.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("JSONL not deterministic:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, `"kind":"lag-burn"`) || !strings.Contains(a, `"state":"page"`) {
		t.Fatalf("unexpected JSONL content:\n%s", a)
	}
	for _, line := range strings.Split(strings.TrimSpace(a), "\n") {
		if !strings.HasPrefix(line, `{"at_s":`) {
			t.Fatalf("line does not lead with at_s: %s", line)
		}
	}
}

func TestWriteHealthTable(t *testing.T) {
	rows := []Health{
		{Rule: "b->c", Dest: "gcp:eu-west1", State: "ok", LagP50S: 0.5, LagP99S: 1.25, Alerts: 0},
		{Rule: "a->b", Dest: "azure:eastus", State: "page", LagP50S: 2, LagP99S: 31.5, Backlog: 4, OldestAgeS: 62.1, DLQ: 1, BurnShort: 100, BurnLong: 42, Alerts: 3},
	}
	var buf bytes.Buffer
	if err := WriteHealthTable(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows, got:\n%s", out)
	}
	if !strings.HasPrefix(lines[1], "a->b") || !strings.HasPrefix(lines[2], "b->c") {
		t.Fatalf("rows not sorted by rule:\n%s", out)
	}
	if !strings.Contains(lines[1], "page") || !strings.Contains(lines[1], "31.500s") {
		t.Fatalf("row content missing:\n%s", out)
	}
}
