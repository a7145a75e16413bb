package engine

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/objstore"
)

// Wall-clock benchmarks for the distributed data plane: virtual time is
// free, so these measure the simulator's own CPU and allocation cost per
// replicated object — the goroutine churn of the double-buffered lanes,
// the part-ledger bookkeeping, and the span traffic they emit.

func benchDistributed(b *testing.B, mutate func(*Rule)) {
	f := newFixture(b, func(r *Rule) {
		r.ForceN = 16
		r.ForceLoc = srcID
		if mutate != nil {
			mutate(r)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.put(b, fmt.Sprintf("obj-%d", i), 128<<20, uint64(i)+1)
		f.w.Clock.Quiesce()
	}
}

func BenchmarkDistributedPipelined(b *testing.B) {
	benchDistributed(b, nil)
}

func BenchmarkDistributedSerialBaseline(b *testing.B) {
	benchDistributed(b, func(r *Rule) {
		r.DisableDoubleBuffer = true
		r.ClaimBatch = 1
		r.HedgeBudget = -1
		r.DisableAdaptiveParts = true
	})
}

// benchTrackerWatermarks measures the lag-watermark sampling path with a
// large standing backlog: OldestPending peeks only at the heap top
// (pruning resolved entries lazily), so sampling must stay flat as the
// pending set grows — the 10k vs 100k pair exposes any rescan.
func benchTrackerWatermarks(b *testing.B, pending int) {
	tr := NewTracker()
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < pending; i++ {
		tr.OnSource(objstore.Event{
			Type: objstore.EventPut,
			Key:  fmt.Sprintf("k-%07d", i),
			Seq:  1,
			Size: 1,
			Time: base.Add(time.Duration(i) * time.Millisecond),
		})
	}
	now := base.Add(time.Duration(pending)*time.Millisecond + time.Minute)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.SampleWatermarks(now)
		tr.OverdueCount(now, 30*time.Second)
	}
}

func BenchmarkTrackerWatermarksPending10k(b *testing.B)  { benchTrackerWatermarks(b, 10_000) }
func BenchmarkTrackerWatermarksPending100k(b *testing.B) { benchTrackerWatermarks(b, 100_000) }
