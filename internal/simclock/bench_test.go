package simclock

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkHandoff: two actors alternating Sleep, so every wake-up passes
// the run token to the other goroutine. One op is one Sleep.
func BenchmarkHandoff(b *testing.B) {
	c := New(epoch)
	b.ReportAllocs()
	b.ResetTimer()
	c.Go(func() {
		for i := 0; i < b.N; i++ {
			c.Sleep(time.Nanosecond)
		}
	})
	for i := 0; i < b.N; i++ {
		c.Sleep(time.Nanosecond)
	}
	c.Quiesce()
}

// BenchmarkSelfWake: a lone sleeper under one far timer — the Sleep that
// advances the clock and returns without yielding.
func BenchmarkSelfWake(b *testing.B) {
	c := New(epoch)
	c.Delay(1<<62, func() {})
	c.Sleep(time.Nanosecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Sleep(time.Nanosecond)
	}
}

// BenchmarkDelayPending10k: arm and fire a short no-op delay while 10,000
// far ones sit in the heap (bench's micro.simclock.timer_ns, one at a time).
func BenchmarkDelayPending10k(b *testing.B) {
	c := New(epoch)
	noop := func() {}
	for i := 0; i < 10_000; i++ {
		c.Delay(1<<62, noop)
	}
	c.Sleep(time.Nanosecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Delay(time.Microsecond, noop)
		c.Sleep(time.Millisecond)
	}
}

// BenchmarkTimerHeap: one pop and one push at a steady depth, wake times
// spread so the sift paths vary.
func BenchmarkTimerHeap(b *testing.B) {
	for _, depth := range []int{128, 1024} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var h timerHeap
			seq := uint64(0)
			push := func(now int64) {
				seq++
				h.push(timer{at: now + int64(seq*2654435761%1000), seq: seq})
			}
			for i := 0; i < depth; i++ {
				push(0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				push(h.pop().at)
			}
		})
	}
}
