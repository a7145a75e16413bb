package engine

import (
	"sync"
	"time"

	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// breaker is a per-destination circuit breaker over the distributed
// replication path. Consecutive infrastructure failures of the part pool
// (transient request faults, vanished multipart uploads, crashed
// replicators — but NOT optimistic-validation aborts, which are correct
// behaviour) trip it open; while open, the engine degrades to the
// single-function path, which touches far fewer requests per object and
// so rides out storms that starve the multipart pipeline. After a
// cooldown the breaker half-opens: the next distributed attempt probes
// the path, re-opening on failure and closing on success.
type breaker struct {
	clock *simclock.Clock

	mu        sync.Mutex
	fails     int
	openUntil time.Time
	halfOpen  bool

	opens     *telemetry.Counter // engine.breaker_open
	openGauge *telemetry.Gauge   // engine.breaker.is_open
}

// The breaker trips after breakerThreshold consecutive infrastructure
// failures and stays open for breakerCooldown before a half-open probe.
const (
	breakerThreshold = 3
	breakerCooldown  = time.Minute
)

func newBreaker(clock *simclock.Clock, reg *telemetry.Registry, dims ...telemetry.Label) *breaker {
	return &breaker{
		clock:     clock,
		opens:     reg.CounterVec("engine.breaker_open").With(dims...),
		openGauge: reg.GaugeVec("engine.breaker.is_open").With(dims...),
	}
}

// allow reports whether the distributed path may be attempted. While the
// cooldown runs it returns false; the first call after the cooldown is
// the half-open probe.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.openUntil.IsZero() {
		return true
	}
	if b.clock.Now().Before(b.openUntil) {
		return false
	}
	b.halfOpen = true
	return true
}

// success records a successful distributed attempt and closes the breaker.
func (b *breaker) success() {
	b.mu.Lock()
	b.fails = 0
	b.openUntil = time.Time{}
	b.halfOpen = false
	b.openGauge.Set(0)
	b.mu.Unlock()
}

// failure records an infrastructure failure of the distributed path,
// opening the breaker at the threshold (immediately when half-open).
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.halfOpen || b.fails >= breakerThreshold {
		b.openUntil = b.clock.Now().Add(breakerCooldown)
		b.halfOpen = false
		b.fails = 0
		b.opens.Inc()
		b.openGauge.Set(1)
	}
}
