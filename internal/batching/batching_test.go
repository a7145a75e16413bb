package batching

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/objstore"
	"repro/internal/simclock"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// harness simulates a source object's metadata and collects dispatches.
type harness struct {
	clock *simclock.Clock
	mu    sync.Mutex
	heads map[string]objstore.Meta
	out   []objstore.Event
}

func newHarness() *harness {
	return &harness{clock: simclock.New(epoch), heads: make(map[string]objstore.Meta)}
}

func (h *harness) setHead(key string, seq uint64, etag string, at time.Time) {
	h.mu.Lock()
	h.heads[key] = objstore.Meta{Key: key, Size: 100 << 20, ETag: etag, Seq: seq, Created: at}
	h.mu.Unlock()
}

func (h *harness) head(key string) (objstore.Meta, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	m, ok := h.heads[key]
	if !ok {
		return objstore.Meta{}, errors.New("gone")
	}
	return m, nil
}

func (h *harness) dispatch(ev objstore.Event) {
	h.mu.Lock()
	h.out = append(h.out, ev)
	h.mu.Unlock()
}

func (h *harness) dispatched() []objstore.Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]objstore.Event(nil), h.out...)
}

func (h *harness) batcher(slo time.Duration, est time.Duration) *Batcher {
	return New(h.clock, slo,
		func(int64) time.Duration { return est },
		h.head, h.dispatch)
}

func (h *harness) putEvent(key string, seq uint64, etag string) objstore.Event {
	now := h.clock.Now()
	h.setHead(key, seq, etag, now)
	return objstore.Event{Type: objstore.EventPut, Bucket: "b", Key: key,
		Size: 100 << 20, ETag: etag, Seq: seq, Time: now}
}

func TestNoSlackDispatchesImmediately(t *testing.T) {
	h := newHarness()
	// SLO 10s, estimate 9.5s: 9.5 + 1 > 10 → immediate.
	b := h.batcher(10*time.Second, 9500*time.Millisecond)
	b.Submit(h.putEvent("k", 1, "e1"))
	if got := h.dispatched(); len(got) != 1 || got[0].ETag != "e1" {
		t.Fatalf("dispatched = %v", got)
	}
	st := b.Stats()
	if st.Immediate != 1 || st.Delayed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	h.clock.Quiesce()
}

func TestSlackDelaysTowardDeadline(t *testing.T) {
	h := newHarness()
	// SLO 30s, estimate 5s: fire at ~24s.
	b := h.batcher(30*time.Second, 5*time.Second)
	b.Submit(h.putEvent("k", 1, "e1"))
	if len(h.dispatched()) != 0 {
		t.Fatal("should not dispatch immediately")
	}
	h.clock.Quiesce()
	got := h.dispatched()
	if len(got) != 1 {
		t.Fatalf("dispatched = %v", got)
	}
	fired := h.clock.Now().Sub(epoch)
	if fired < 20*time.Second || fired > 29*time.Second {
		t.Fatalf("timer fired at +%v, want ~24s", fired)
	}
	_ = b
}

func TestUpdatesCoalesceIntoNewest(t *testing.T) {
	h := newHarness()
	b := h.batcher(30*time.Second, 2*time.Second)
	// Ten updates, one per second; all within one SLO window.
	for i := 1; i <= 10; i++ {
		b.Submit(h.putEvent("k", uint64(i), etagN(i)))
		h.clock.Sleep(time.Second)
	}
	h.clock.Quiesce()
	got := h.dispatched()
	if len(got) == 0 {
		t.Fatal("nothing dispatched")
	}
	// Far fewer dispatches than updates, and the last dispatch carries the
	// newest version.
	if len(got) >= 10 {
		t.Fatalf("dispatched %d of 10 updates; batching saved nothing", len(got))
	}
	if last := got[len(got)-1]; last.Seq != 10 {
		t.Fatalf("last dispatch seq = %d, want 10", last.Seq)
	}
	if st := b.Stats(); st.Coalesced == 0 {
		t.Fatalf("no coalescing recorded: %+v", st)
	}
}

func TestDeadlinesRespected(t *testing.T) {
	// Every dispatch must happen within SLO - estimate of its event time
	// (so replication can still finish inside the SLO).
	h := newHarness()
	slo, est := 30*time.Second, 3*time.Second
	b := h.batcher(slo, est)
	var submitted []objstore.Event
	for i := 1; i <= 5; i++ {
		ev := h.putEvent("k", uint64(i), etagN(i))
		submitted = append(submitted, ev)
		b.Submit(ev)
		h.clock.Sleep(4 * time.Second)
	}
	h.clock.Quiesce()
	for _, ev := range submitted {
		deadline := ev.Time.Add(slo)
		covered := false
		for _, d := range h.dispatched() {
			// A dispatch covers ev if it is the same or a newer version and
			// left enough budget before ev's deadline.
			dispatchBy := deadline.Add(-est)
			if d.Seq >= ev.Seq && !d.Time.After(dispatchBy) {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("event seq %d not covered before its deadline", ev.Seq)
		}
	}
}

func TestDeletePassesThrough(t *testing.T) {
	h := newHarness()
	b := h.batcher(time.Minute, time.Second)
	b.Submit(objstore.Event{Type: objstore.EventDelete, Key: "k", Seq: 3, Time: h.clock.Now()})
	if got := h.dispatched(); len(got) != 1 || got[0].Type != objstore.EventDelete {
		t.Fatalf("dispatched = %v", got)
	}
	h.clock.Quiesce()
}

func TestZeroSLOPassesThrough(t *testing.T) {
	h := newHarness()
	b := h.batcher(0, time.Second)
	b.Submit(h.putEvent("k", 1, "e1"))
	if len(h.dispatched()) != 1 {
		t.Fatal("zero SLO must not delay")
	}
	h.clock.Quiesce()
	_ = b
}

func TestDeletedObjectTimerSkips(t *testing.T) {
	h := newHarness()
	b := h.batcher(30*time.Second, time.Second)
	b.Submit(h.putEvent("k", 1, "e1"))
	// Object removed before the timer fires.
	h.mu.Lock()
	delete(h.heads, "k")
	h.mu.Unlock()
	h.clock.Quiesce()
	if got := h.dispatched(); len(got) != 0 {
		t.Fatalf("deleted object should not dispatch: %v", got)
	}
	_ = b
}

func etagN(i int) string {
	return string(rune('a' + i))
}
