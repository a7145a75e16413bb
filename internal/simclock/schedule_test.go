package simclock

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"
)

// The schedule recorded at eeeac16, before the event core was rebuilt: the
// FNV-64a hash of every (actor, virtual ns) visit of scheduleProgram in
// order, the number of visits, the final offset and the final counters. A
// change to simclock that moves any of them has changed which actor runs
// when, and with it every seeded simulation in the repo.
const (
	goldenScheduleHash   = 0x73863d93ec99c30
	goldenScheduleVisits = 1117
	goldenScheduleEnd    = time.Hour + 41*time.Millisecond
)

var goldenScheduleStats = Stats{Sleeps: 649, Advances: 34, Spawned: 427}

func TestScheduleGolden(t *testing.T) {
	hash, visits, end, stats := scheduleProgram()
	if hash != goldenScheduleHash || visits != goldenScheduleVisits || end != goldenScheduleEnd || stats != goldenScheduleStats {
		t.Fatalf("schedule moved:\n got hash %#x visits %d end %v stats %+v\nwant hash %#x visits %d end %v stats %+v",
			hash, visits, end, stats, uint64(goldenScheduleHash), goldenScheduleVisits, goldenScheduleEnd, goldenScheduleStats)
	}
}

// scheduleProgram runs a seeded mix of Sleep, Go, Delay, Event, Group and
// Quiesce whose wake instants coincide on purpose, so that the visit order
// depends on every tie-break the clock makes: FIFO among ready actors,
// creation order among timers due the same nanosecond, and the turn at
// which a delayed start arms its timer.
func scheduleProgram() (hash uint64, visits int, end time.Duration, stats Stats) {
	c := New(epoch)
	h := fnv.New64a()
	next := 0
	newID := func() int { next++; return next }
	// Exactly one actor runs at a time and the clock's lock orders the
	// hand-offs, so the recorder needs no lock of its own.
	visit := func(id int) {
		var b [16]byte
		binary.LittleEndian.PutUint64(b[:8], uint64(id))
		binary.LittleEndian.PutUint64(b[8:], uint64(c.Now().Sub(epoch)))
		h.Write(b[:])
		visits++
	}
	rng := rand.New(rand.NewSource(18))
	// A handful of durations, so that most wake instants are shared.
	steps := []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond, 5 * time.Millisecond}
	step := func() time.Duration { return steps[rng.Intn(len(steps))] }
	const driver = 0

	// Phase 1: a Delay and a Sleep due the same nanosecond, in both orders,
	// with the driver sleeping to that instant too.
	for i := 0; i < 4; i++ {
		a, b := newID(), newID()
		c.Go(func() { visit(a); c.Sleep(5 * time.Millisecond); visit(a) })
		c.Delay(5*time.Millisecond, func() { visit(b) })
		a2, b2 := newID(), newID()
		c.Delay(5*time.Millisecond, func() { visit(b2); c.Sleep(time.Millisecond); visit(b2) })
		c.Go(func() { visit(a2); c.Sleep(5 * time.Millisecond); visit(a2) })
	}
	c.Sleep(5 * time.Millisecond)
	visit(driver)

	// Phase 2: a delay armed while older ready entries are still queued.
	// The spawner's own Sleep is armed before the actors it started have
	// had their first turn, and the delay arms after them.
	for i := 0; i < 8; i++ {
		id := newID()
		c.Go(func() {
			visit(id)
			for j := 0; j < 5; j++ {
				k := newID()
				c.Go(func() { visit(k); c.Sleep(2 * time.Millisecond); visit(k) })
			}
			d := newID()
			c.Delay(2*time.Millisecond, func() { visit(d) })
			z := newID()
			c.Delay(0, func() { visit(z) })
			n := newID()
			c.Delay(-time.Second, func() { visit(n); c.Sleep(2 * time.Millisecond); visit(n) })
			c.Sleep(2 * time.Millisecond)
			visit(id)
		})
	}
	c.Quiesce()
	visit(driver)

	// Phase 3: a few hundred actors on shared durations; some spawn, some
	// delay, some wait on shared events or groups, some trigger them.
	events := make([]*Event, 6)
	for i := range events {
		events[i] = c.NewEvent()
	}
	groups := make([]*Group, 4)
	members := make([]int, len(groups))
	type plan struct {
		id, kind, grp, ev int
		d                 [3]time.Duration
	}
	plans := make([]plan, 240)
	for i := range plans {
		p := plan{id: newID(), kind: rng.Intn(7), grp: rng.Intn(len(groups)), ev: rng.Intn(len(events)), d: [3]time.Duration{step(), step(), step()}}
		if p.kind == 4 {
			members[p.grp]++
		}
		plans[i] = p
	}
	for i := range groups {
		groups[i] = c.NewGroup(members[i])
	}
	for _, p := range plans {
		p := p
		body := func() {
			visit(p.id)
			c.Sleep(p.d[0])
			visit(p.id)
			switch p.kind {
			case 0: // plain sleeper
				c.Sleep(p.d[1])
			case 1: // spawns a child that sleeps
				k := newID()
				c.Go(func() { visit(k); c.Sleep(p.d[1]); visit(k) })
			case 2: // delays a body that blocks mid-function
				k := newID()
				c.Delay(p.d[1], func() { visit(k); c.Sleep(p.d[2]); visit(k) })
				c.Sleep(p.d[1])
			case 3: // waits on a shared event
				events[p.ev].Wait()
			case 4: // group member
				c.Sleep(p.d[1])
				groups[p.grp].Done()
			case 5: // waits for a group, then for an event
				groups[p.grp].Wait()
				visit(p.id)
				events[p.ev].Wait()
			case 6: // delayed body waits on an event; the actor moves on
				k := newID()
				c.Delay(p.d[1], func() { visit(k); events[p.ev].Wait(); visit(k) })
			}
			visit(p.id)
		}
		if p.id%3 == 0 {
			c.Delay(p.d[2], body)
		} else {
			c.Go(body)
		}
	}
	for i, e := range events {
		e := e
		c.Delay(time.Duration(6+3*i)*time.Millisecond, e.Trigger)
	}
	// An actor that quiesces beside the driver: both resume, in the order
	// they began waiting, once everything else has drained.
	q := newID()
	c.Go(func() { visit(q); c.Sleep(time.Millisecond); c.Quiesce(); visit(q) })
	c.Sleep(4 * time.Millisecond)
	visit(driver)
	c.Quiesce()
	visit(driver)

	// Phase 4: the driver alone — sleeps that wake the sleeper itself, with
	// an empty heap and then under a far timer — and a delay chain.
	for i := 0; i < 5; i++ {
		c.Sleep(step())
		visit(driver)
	}
	far := newID()
	c.Delay(time.Hour, func() { visit(far) })
	for i := 0; i < 5; i++ {
		c.Sleep(step())
		visit(driver)
	}
	chain := newID()
	c.Delay(time.Millisecond, func() {
		visit(chain)
		c.Delay(time.Millisecond, func() {
			visit(chain)
			c.Delay(time.Millisecond, func() { visit(chain) })
		})
	})
	c.Sleep(2 * time.Millisecond) // due with the chain's second link, armed before it
	visit(driver)
	c.Quiesce()
	visit(driver)
	return h.Sum64(), visits, c.Now().Sub(epoch), c.Stats()
}
