package main

import (
	"strconv"
	"sync"
	"time"
)

// The reference box is a shared VM. With nothing else running in it, its
// speed moves by 20-50 % for minutes at a time and by more for fractions of
// a second; CPU seconds stretch exactly as wall seconds do, and no steal
// time is reported, so it is the core and the memory behind it that slow
// down, not the scheduler that takes them away. A raw host time therefore
// says more about when it was taken than about the code.
//
// Every set-up and every measured window is bracketed by readings of a
// yardstick: a fixed piece of work that uses nothing of the repo, so no
// change to the program under test can move it, and that allocates nothing
// once warm, so the collector never runs on its account. Host times are
// reported in yardstick units, scaled by yardstickRef so that they read as
// seconds on a box that does one pass in exactly that time.
//
// The yardstick has to slow down the way the simulator does, or dividing by
// it corrects too much or too little. Timing candidate pieces of work next
// to 1500 iterations of the four workloads and regressing window time on
// them gave about half goroutine hand-off, a third to 0.4 key formatting and
// hashing and 0.1 to 0.2 dependent loads through memory for every workload;
// map updates and a timer heap added nothing. A pass spends its time in
// those shares. Dependent loads alone react three times as strongly as the
// workloads do, the rest alone a little less than they do.

// yardstickRef is one pass on the reference box in a quiet minute. It only
// fixes the unit: change it and every host time scales.
const yardstickRef = 11 * time.Millisecond

const (
	yardArena    = 1 << 21 // 8 MB of uint32: past the private caches, into what tenants share
	yardLoads    = 36_000  // ~1.5 ms
	yardKeys     = 140_000 // ~3.5 ms
	yardHandOffs = 10_000  // ~5 ms
	// yardPasses is how many passes one reading times: long enough to
	// average over the box's sub-second bursts, short next to a window.
	yardPasses = 15
)

// yardState is the yardstick's working set, built once.
type yardState struct {
	arena      []uint32 // one random cycle through all its slots
	at         uint32
	ping, pong chan uint64
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

var yard = sync.OnceValue(func() *yardState {
	y := &yardState{arena: make([]uint32, yardArena), ping: make(chan uint64), pong: make(chan uint64)}
	// Sattolo's shuffle: a permutation that is a single cycle.
	for i := range y.arena {
		y.arena[i] = uint32(i)
	}
	for i := len(y.arena) - 1; i > 0; i-- {
		j := mix(uint64(i)) % uint64(i)
		y.arena[i], y.arena[j] = y.arena[j], y.arena[i]
	}
	go func() { // the other side of the hand-off; lives as long as the process
		for v := range y.ping {
			y.pong <- v + 1
		}
	}()
	return y
})

var yardSink uint64 // keeps the compiler from dropping the work

// pass does the fixed work once.
func (y *yardState) pass() {
	var sum uint64
	for i := 0; i < yardLoads; i++ { // each load waits for the one before
		y.at = y.arena[y.at]
	}
	var name [32]byte
	hash := uint64(14695981039346656037)
	for i := uint64(0); i < yardKeys; i++ {
		for _, c := range strconv.AppendUint(append(name[:0], "obj-"...), mix(i)%1000000, 10) {
			hash = (hash ^ uint64(c)) * 1099511628211
		}
	}
	for i := uint64(0); i < yardHandOffs; i++ { // one runnable goroutine at a time, like the clock
		y.ping <- i
		sum += <-y.pong
	}
	yardSink += sum + hash + uint64(y.at)
}

// yardstick is one reading: wall and CPU seconds per pass.
type yardstick struct {
	wall, cpu float64
}

// readYardstick times yardPasses passes, fewer at a test's -scale.
func readYardstick(scale float64) yardstick {
	y := yard()
	n := scaled(yardPasses, scale, 1)
	c0, t0 := cpuSeconds(), time.Now()
	for i := 0; i < n; i++ {
		y.pass()
	}
	return yardstick{wall: time.Since(t0).Seconds() / float64(n), cpu: (cpuSeconds() - c0) / float64(n)}
}

// between is the yardstick over an interval bracketed by two readings.
func between(a, b yardstick) yardstick {
	return yardstick{wall: (a.wall + b.wall) / 2, cpu: (a.cpu + b.cpu) / 2}
}

// atRefSpeed converts host seconds taken while a pass of the yardstick took
// y seconds into seconds at the reference speed.
func atRefSpeed(seconds, y float64) float64 {
	return seconds * yardstickRef.Seconds() / y
}
