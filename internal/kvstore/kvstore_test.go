package kvstore

import (
	"errors"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/pricing"
	"repro/internal/simclock"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func newStore() (*simclock.Clock, *Store, *pricing.Meter) {
	clk := simclock.New(epoch)
	meter := pricing.NewMeter()
	s := New(clk, cloud.MustLookup("aws:us-east-1"), meter)
	return clk, s, meter
}

func TestPutGetDelete(t *testing.T) {
	_, s, _ := newStore()
	if _, ok := s.Get("t", "k"); ok {
		t.Fatal("unexpected item before put")
	}
	s.Put("t", "k", Item{"a": "x", "n": int64(3)})
	it, ok := s.Get("t", "k")
	if !ok || it.Str("a") != "x" || it.Int("n") != 3 {
		t.Fatalf("got %v, %v", it, ok)
	}
	s.Delete("t", "k")
	if _, ok := s.Get("t", "k"); ok {
		t.Fatal("item survived delete")
	}
	s.Delete("t", "k") // idempotent
}

func TestItemsAreCopied(t *testing.T) {
	_, s, _ := newStore()
	orig := Item{"a": "x"}
	s.Put("t", "k", orig)
	orig["a"] = "mutated"
	it, _ := s.Get("t", "k")
	if it.Str("a") != "x" {
		t.Fatal("store shared memory with caller on Put")
	}
	it["a"] = "mutated2"
	it2, _ := s.Get("t", "k")
	if it2.Str("a") != "x" {
		t.Fatal("store shared memory with caller on Get")
	}
}

func TestConditionalPut(t *testing.T) {
	_, s, _ := newStore()
	err := s.ConditionalPut("t", "k", Item{"v": int64(1)}, func(_ Item, exists bool) bool { return !exists })
	if err != nil {
		t.Fatalf("first put: %v", err)
	}
	err = s.ConditionalPut("t", "k", Item{"v": int64(2)}, func(_ Item, exists bool) bool { return !exists })
	if !errors.Is(err, ErrConditionFailed) {
		t.Fatalf("second put: %v, want ErrConditionFailed", err)
	}
	it, _ := s.Get("t", "k")
	if it.Int("v") != 1 {
		t.Fatalf("failed conditional put overwrote the item: %v", it)
	}
	// Condition reading current state.
	err = s.ConditionalPut("t", "k", Item{"v": int64(2)}, func(cur Item, _ bool) bool { return cur.Int("v") == 1 })
	if err != nil {
		t.Fatalf("cas: %v", err)
	}
}

// absent is the put-if-absent precondition.
func absent(_ Item, exists bool) bool { return !exists }

func TestPutIfAbsent(t *testing.T) {
	_, s, _ := newStore()
	if err := s.ConditionalPut("t", "k", Item{}, absent); err != nil {
		t.Fatal(err)
	}
	if err := s.ConditionalPut("t", "k", Item{}, absent); !errors.Is(err, ErrConditionFailed) {
		t.Fatalf("got %v", err)
	}
}

func TestUpdateAndDeleteViaUpdate(t *testing.T) {
	_, s, _ := newStore()
	s.Update("t", "k", func(cur Item, exists bool) (Item, bool) {
		if exists || cur != nil {
			t.Error("item should not exist yet")
		}
		return Item{"v": int64(10)}, true
	})
	if got, _ := s.Get("t", "k"); got.Int("v") != 10 {
		t.Fatalf("update stored %v", got)
	}
	s.Update("t", "k", func(cur Item, exists bool) (Item, bool) { return nil, false })
	if _, ok := s.Get("t", "k"); ok {
		t.Fatal("update-delete left the item")
	}
}

// TestUpdateInPlace pins the read-modify-write contract: the closure's
// mutations of cur are the stored item, and copies handed out by Get
// before or after stay isolated from them.
func TestUpdateInPlace(t *testing.T) {
	_, s, _ := newStore()
	s.Put("t", "k", Item{"v": int64(1), "keep": "x"})
	before, _ := s.Get("t", "k")
	s.Update("t", "k", func(cur Item, exists bool) (Item, bool) {
		cur["v"] = cur.Int("v") + 1
		delete(cur, "keep")
		return cur, true
	})
	if before.Int("v") != 1 || before.Str("keep") != "x" {
		t.Fatalf("an in-place update reached a copy Get had handed out: %v", before)
	}
	after, _ := s.Get("t", "k")
	if after.Int("v") != 2 || len(after) != 1 {
		t.Fatalf("stored item after in-place update: %v", after)
	}
	after["v"] = int64(99)
	s.Update("t", "k", func(cur Item, exists bool) (Item, bool) {
		if cur.Int("v") != 2 {
			t.Errorf("Update sees %v: a caller's copy shares memory with the store", cur)
		}
		return cur, true
	})
}

// TestUpdateAllocsIndependentOfRecordSize guards the point of the in-place
// primitive: updating one attribute of a record with 512 others (a pool
// record with that many outstanding leases) allocates no more than
// updating a record with none.
func TestUpdateAllocsIndependentOfRecordSize(t *testing.T) {
	_, s, _ := newStore()
	putRecord(s, "big", 512)
	putRecord(s, "small", 0)
	small := testing.AllocsPerRun(100, func() { bump(s, "small") })
	large := testing.AllocsPerRun(100, func() { bump(s, "big") })
	if large > small || large > 4 {
		t.Errorf("Update allocates %v times on a 512-attribute record, %v on a 1-attribute one", large, small)
	}
}

// putRecord stores a counter record carrying the given number of lease
// attributes; bump increments the counter through Update.
func putRecord(s *Store, key string, leases int) {
	it := Item{"n": int64(0)}
	for i := 0; i < leases; i++ {
		it["lease-"+strconv.Itoa(i)] = "owner|1|0"
	}
	s.Put("t", key, it)
}

func bump(s *Store, key string) {
	s.Update("t", key, func(cur Item, _ bool) (Item, bool) {
		cur["n"] = cur.Int("n") + 1
		return cur, true
	})
}

func BenchmarkUpdate512Attrs(b *testing.B) {
	_, s, _ := newStore()
	putRecord(s, "big", 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bump(s, "big")
	}
}

func TestUpdateTTL(t *testing.T) {
	clk, s, _ := newStore()
	take := func(ttl time.Duration) {
		s.UpdateTTL("t", "k", func(cur Item, _ bool) (Item, bool, time.Duration) {
			if cur == nil {
				cur = Item{}
			}
			cur["n"] = cur.Int("n") + 1
			return cur, true, ttl
		})
	}
	take(10 * time.Second)
	clk.Sleep(8 * time.Second)
	take(0) // must not extend the lease
	clk.Sleep(3 * time.Second)
	if _, ok := s.Get("t", "k"); ok {
		t.Fatal("a ttl = 0 update kept an expiring item alive")
	}
	take(10 * time.Second)
	clk.Sleep(8 * time.Second)
	take(10 * time.Second) // refreshes it
	clk.Sleep(8 * time.Second)
	if it, ok := s.Get("t", "k"); !ok || it.Int("n") != 2 {
		t.Fatalf("a ttl > 0 update did not refresh the lease: %v, %v", it, ok)
	}
}

func TestIncrementConcurrent(t *testing.T) {
	clk, s, _ := newStore()
	const actors, perActor = 20, 25
	var last atomic.Int64
	for i := 0; i < actors; i++ {
		clk.Go(func() {
			for j := 0; j < perActor; j++ {
				last.Store(s.Increment("t", "ctr", "n", 1))
			}
		})
	}
	clk.Quiesce()
	it, _ := s.Get("t", "ctr")
	if it.Int("n") != actors*perActor {
		t.Fatalf("counter = %d, want %d", it.Int("n"), actors*perActor)
	}
	if last.Load() != actors*perActor {
		t.Fatalf("some increment observed %d as the final value", last.Load())
	}
}

func TestLatencyIsMilliseconds(t *testing.T) {
	clk, s, _ := newStore()
	start := clk.Now()
	for i := 0; i < 100; i++ {
		s.Put("t", "k", Item{})
	}
	elapsed := clk.Since(start)
	per := elapsed / 100
	if per < 500*time.Microsecond || per > 10*time.Millisecond {
		t.Fatalf("per-op latency %v, want single-digit ms", per)
	}
}

func TestMetering(t *testing.T) {
	_, s, m := newStore()
	s.Put("t", "a", Item{})
	s.Get("t", "a")
	s.Increment("t", "a", "n", 1)
	st := s.Stats()
	if st.Writes != 2 || st.Reads != 1 {
		t.Fatalf("stats = %+v", st)
	}
	wantWrites := 2 * pricing.BookFor(cloud.AWS).KVWrite
	if got := m.Item("kv:write"); got != wantWrites {
		t.Fatalf("write cost = %v, want %v", got, wantWrites)
	}
	if m.Item("kv:read") != pricing.BookFor(cloud.AWS).KVRead {
		t.Fatalf("read cost = %v", m.Item("kv:read"))
	}
}

func TestTablesAreIsolated(t *testing.T) {
	_, s, _ := newStore()
	s.Put("t1", "k", Item{"v": int64(1)})
	if _, ok := s.Get("t2", "k"); ok {
		t.Fatal("tables leaked into each other")
	}
	if s.Len("t1") != 1 || s.Len("t2") != 0 {
		t.Fatalf("lens: %d, %d", s.Len("t1"), s.Len("t2"))
	}
}

func TestConditionalPutRace(t *testing.T) {
	// Many actors race a put-if-absent on the same key; exactly one must win.
	clk, s, _ := newStore()
	var wins atomic.Int32
	for i := 0; i < 32; i++ {
		i := i
		clk.Go(func() {
			if err := s.ConditionalPut("t", "lock", Item{"owner": int64(i)}, absent); err == nil {
				wins.Add(1)
			}
		})
	}
	clk.Quiesce()
	if wins.Load() != 1 {
		t.Fatalf("%d winners, want exactly 1", wins.Load())
	}
}

func TestTTLExpiry(t *testing.T) {
	clk, s, _ := newStore()
	s.PutWithTTL("t", "lease", Item{"owner": "a"}, 10*time.Second)
	if _, ok := s.Get("t", "lease"); !ok {
		t.Fatal("item missing before expiry")
	}
	clk.Sleep(11 * time.Second)
	if _, ok := s.Get("t", "lease"); ok {
		t.Fatal("item survived its TTL")
	}
	// An expired key can be re-acquired conditionally.
	if err := s.ConditionalPut("t", "lease", Item{"owner": "b"}, absent); err != nil {
		t.Fatalf("expired key blocked a fresh acquire: %v", err)
	}
}

func TestTTLClearedByPlainWrite(t *testing.T) {
	clk, s, _ := newStore()
	s.PutWithTTL("t", "k", Item{"v": int64(1)}, 5*time.Second)
	// A conditional overwrite makes the item durable again.
	if err := s.ConditionalPut("t", "k", Item{"v": int64(2)}, func(cur Item, ok bool) bool { return ok }); err != nil {
		t.Fatal(err)
	}
	clk.Sleep(time.Minute)
	if it, ok := s.Get("t", "k"); !ok || it.Int("v") != 2 {
		t.Fatal("durable overwrite expired")
	}
}

func TestTTLVisibleInUpdate(t *testing.T) {
	clk, s, _ := newStore()
	s.PutWithTTL("t", "k", Item{"v": int64(1)}, time.Second)
	clk.Sleep(2 * time.Second)
	s.Update("t", "k", func(cur Item, exists bool) (Item, bool) {
		if exists {
			t.Error("expired item visible in Update")
		}
		return Item{"v": int64(9)}, true
	})
}
