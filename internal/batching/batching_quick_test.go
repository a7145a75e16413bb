package batching

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/objstore"
)

// Property: whatever the update pattern, every submitted PUT is covered by
// a dispatch of an equal-or-newer version that leaves at least the
// estimated replication time before the event's deadline; and the batcher
// never dispatches more events than it was given.
func TestBatcherDeadlineProperty(t *testing.T) {
	f := func(seed int64, nRaw, sloRaw, estRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%30) + 1
		slo := time.Duration(int(sloRaw%50)+8) * time.Second
		est := time.Duration(int(estRaw%5)+1) * time.Second

		h := newHarness()
		type dispatched struct {
			ev objstore.Event
			at time.Time
		}
		var outMu sync.Mutex
		var out []dispatched
		b := New(h.clock, slo,
			func(int64) time.Duration { return est },
			h.head, func(ev objstore.Event) {
				outMu.Lock()
				out = append(out, dispatched{ev: ev, at: h.clock.Now()})
				outMu.Unlock()
			})

		var submitted []objstore.Event
		for i := 1; i <= n; i++ {
			key := string(rune('a' + rng.Intn(2)))
			// Advance by a random gap, then submit a new version.
			h.clock.Sleep(time.Duration(rng.Intn(9000)) * time.Millisecond)
			now := h.clock.Now()
			h.setHead(key, uint64(i), etagN(i), now)
			ev := objstore.Event{Type: objstore.EventPut, Key: key,
				Size: 100 << 20, ETag: etagN(i), Seq: uint64(i), Time: now}
			submitted = append(submitted, ev)
			b.Submit(ev)
		}
		h.clock.Quiesce()

		if len(out) > len(submitted) {
			return false
		}
		for _, ev := range submitted {
			deadline := ev.Time.Add(slo)
			covered := false
			for _, d := range out {
				if d.ev.Key == ev.Key && d.ev.Seq >= ev.Seq && !d.at.After(deadline.Add(-est)) {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
