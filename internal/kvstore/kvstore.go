// Package kvstore simulates the serverless NoSQL databases AReplica keeps
// its replication state in (DynamoDB, Cosmos DB, Firestore): a regional
// key-value store with conditional writes, atomic read-modify-write
// updates and counters, single-digit-millisecond operation latency on the
// virtual clock, and per-operation metering at the provider's list price.
//
// Reads and whole-item writes (Get, Put, PutWithTTL, ConditionalPut) copy
// the item across the store's boundary. Read-modify-write (Update,
// UpdateTTL, Increment) does not: the closure runs on the stored item in
// place, under the store's lock, and the store owns whatever it returns.
// A pool record carries one lease attribute per outstanding claim, and an
// update must cost what it touches, not the size of the record — the
// closure's side of the bargain is to take only scalars out of the item
// and to keep no reference to it after returning. GetInt is the read side
// of the same bargain: one scalar out of a record, nothing copied.
package kvstore

import (
	"errors"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/pricing"
	"repro/internal/simclock"
	"repro/internal/simrand"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// ErrConditionFailed is returned when a conditional write's predicate
// rejects the current item state.
var ErrConditionFailed = errors.New("kvstore: condition failed")

// Item is one record: a flat attribute map. Values should be comparable
// scalars (string, int64, float64, bool). Get, Put and ConditionalPut copy
// the item, so callers can mutate what they hold freely; Update does not
// (see the package comment).
type Item map[string]any

// clone returns a shallow copy of the item.
func (it Item) clone() Item {
	if it == nil {
		return nil
	}
	out := make(Item, len(it))
	for k, v := range it {
		out[k] = v
	}
	return out
}

// Int returns the attribute as int64, or 0 when absent/mistyped.
func (it Item) Int(attr string) int64 {
	v, _ := it[attr].(int64)
	return v
}

// Str returns the attribute as string, or "" when absent/mistyped.
func (it Item) Str(attr string) string {
	v, _ := it[attr].(string)
	return v
}

// Store is a regional serverless KV database.
type Store struct {
	clock   *simclock.Clock
	region  cloud.Region
	book    pricing.Book
	meter   *pricing.Meter
	latency stats.Normal

	mu      sync.Mutex
	rng     latencyRNG
	chaos   *chaos.Injector
	quota   Quota
	tables  map[string]map[string]Item
	expires map[string]map[string]time.Time // table -> key -> expiry

	reads     telemetry.Counter
	writes    telemetry.Counter
	throttled telemetry.Counter

	// Optional run-wide registry instruments (nil no-ops until SetTelemetry).
	regReads     *telemetry.Counter
	regWrites    *telemetry.Counter
	regThrottled *telemetry.Counter
	opHist       *telemetry.Histogram
}

// OpStats is a snapshot of operation counters, for tests and cost sanity
// checks.
type OpStats struct {
	Reads     int64
	Writes    int64
	Throttled int64 // operations delayed by injected throttling
}

type latencyRNG struct {
	mu  sync.Mutex
	rng interface{ NormFloat64() float64 }
}

// New returns a Store for the given region, billing operations to meter.
func New(clock *simclock.Clock, region cloud.Region, meter *pricing.Meter) *Store {
	s := &Store{
		clock:   clock,
		region:  region,
		book:    pricing.BookFor(region.Provider),
		meter:   meter,
		latency: stats.N(0.003, 0.001), // single-digit ms, as the paper notes
		tables:  make(map[string]map[string]Item),
		expires: make(map[string]map[string]time.Time),
	}
	s.rng.rng = simrand.New("kvstore", string(region.ID()))
	return s
}

// Region returns the store's region.
func (s *Store) Region() cloud.Region { return s.region }

// Stats returns a snapshot of the operation counters.
func (s *Store) Stats() OpStats {
	return OpStats{Reads: s.reads.Value(), Writes: s.writes.Value(), Throttled: s.throttled.Value()}
}

// SetChaos points the store at an armed chaos injector (nil disables).
func (s *Store) SetChaos(ij *chaos.Injector) {
	s.mu.Lock()
	s.chaos = ij
	s.mu.Unlock()
}

// Quota is an account-level throughput gate shared across stores — the
// fleet control plane's per-(provider,region) KV budget. WaitOp may sleep
// on the virtual clock before the operation's own latency is simulated,
// modelling account-wide provisioned-throughput limits the way injected
// throttling models transient ones: as added latency, never an error.
type Quota interface {
	WaitOp(write bool)
}

// SetQuota installs a shared throughput gate (nil removes it).
func (s *Store) SetQuota(q Quota) {
	s.mu.Lock()
	s.quota = q
	s.mu.Unlock()
}

// SetTelemetry mirrors the store's activity into run-wide registry
// instruments: aggregate read/write counters and an operation-latency
// histogram shared across regions.
func (s *Store) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	s.regReads = reg.Counter("kvstore.reads")
	s.regWrites = reg.Counter("kvstore.writes")
	s.regThrottled = reg.Counter("kvstore.throttled")
	s.opHist = reg.Histogram("kvstore.op.seconds")
}

// simulateOp sleeps one KV operation latency and meters its cost. Injected
// throttling shows up as added latency rather than an error: real SDKs
// retry ProvisionedThroughputExceeded internally, so callers of DynamoDB
// and its kin mostly experience throttling as slowness.
func (s *Store) simulateOp(write bool) {
	s.mu.Lock()
	q := s.quota
	s.mu.Unlock()
	if q != nil {
		q.WaitOp(write)
	}
	s.rng.mu.Lock()
	d := s.latency.Mu + s.latency.Sigma*s.rng.rng.NormFloat64()
	s.rng.mu.Unlock()
	if d < 0.0005 {
		d = 0.0005
	}
	s.mu.Lock()
	ij := s.chaos
	s.mu.Unlock()
	if extra := ij.KVThrottle(string(s.region.ID())); extra > 0 {
		s.throttled.Inc()
		s.regThrottled.Inc()
		d += simclock.ToSeconds(extra)
	}
	s.clock.Sleep(simclock.Seconds(d))
	s.opHist.Observe(d)
	if write {
		s.writes.Inc()
		s.regWrites.Inc()
		s.meter.Add("kv:write", s.book.KVWrite)
	} else {
		s.reads.Inc()
		s.regReads.Inc()
		s.meter.Add("kv:read", s.book.KVRead)
	}
}

func (s *Store) table(name string) map[string]Item {
	t, ok := s.tables[name]
	if !ok {
		t = make(map[string]Item)
		s.tables[name] = t
	}
	return t
}

// reapLocked lazily evicts an expired item, DynamoDB-TTL style. Caller
// holds s.mu.
func (s *Store) reapLocked(table, key string) {
	if exp, ok := s.expires[table]; ok {
		if at, ok := exp[key]; ok && !s.clock.Now().Before(at) {
			delete(exp, key)
			delete(s.tables[table], key)
		}
	}
}

// setTTLLocked installs or clears a key's expiry. Caller holds s.mu.
func (s *Store) setTTLLocked(table, key string, ttl time.Duration) {
	exp, ok := s.expires[table]
	if !ok {
		exp = make(map[string]time.Time)
		s.expires[table] = exp
	}
	if ttl <= 0 {
		delete(exp, key)
		return
	}
	exp[key] = s.clock.Now().Add(ttl)
}

// PutWithTTL writes an item that expires (and reads as absent) after ttl —
// the lease primitive real lock tables rely on so a crashed holder cannot
// wedge a key forever.
func (s *Store) PutWithTTL(table, key string, item Item, ttl time.Duration) {
	s.simulateOp(true)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.table(table)[key] = item.clone()
	s.setTTLLocked(table, key, ttl)
}

// Get reads one item. The boolean reports whether the item exists.
func (s *Store) Get(table, key string) (Item, bool) {
	s.simulateOp(false)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reapLocked(table, key)
	it, ok := s.table(table)[key]
	return it.clone(), ok
}

// GetInt reads one integer attribute of an item: Get — the same latency,
// metering, throttling and TTL reaping — without the copy. The boolean
// reports whether the item exists; an absent or mistyped attribute is 0.
func (s *Store) GetInt(table, key, attr string) (int64, bool) {
	s.simulateOp(false)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reapLocked(table, key)
	it, ok := s.table(table)[key]
	return it.Int(attr), ok
}

// Put writes an item unconditionally.
func (s *Store) Put(table, key string, item Item) {
	s.simulateOp(true)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.table(table)[key] = item.clone()
}

// Delete removes an item; deleting a missing item is a no-op.
func (s *Store) Delete(table, key string) {
	s.simulateOp(true)
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.table(table), key)
}

// ConditionalPut writes item if cond accepts the current state. cond
// receives the existing item (nil-safe copy) and whether it exists. Chaos
// contention storms make a fraction of conditional writes lose a spurious
// race and fail their precondition without touching the item.
func (s *Store) ConditionalPut(table, key string, item Item, cond func(cur Item, exists bool) bool) error {
	s.simulateOp(true)
	s.mu.Lock()
	if ij := s.chaos; ij.KVContention(string(s.region.ID())) {
		s.mu.Unlock()
		return ErrConditionFailed
	}
	defer s.mu.Unlock()
	s.reapLocked(table, key)
	cur, exists := s.table(table)[key]
	if !cond(cur.clone(), exists) {
		return ErrConditionFailed
	}
	s.table(table)[key] = item.clone()
	s.setTTLLocked(table, key, 0)
	return nil
}

// UpdateTTL is the store's one read-modify-write primitive. fn runs under
// the store's lock on the stored item itself (nil if absent) and may
// mutate it in place or return a fresh item; the store owns what fn
// returns, and fn must not retain either past the call. keep == false
// deletes the key. fn also decides the lease of the stored item: a
// returned ttl > 0 (re)installs the expiry, 0 preserves whatever expiry
// exists. Lock acquisition needs this — only the call that actually takes
// the lock may refresh its lease; a contender recording itself as pending
// must not keep a crashed holder's lock alive.
func (s *Store) UpdateTTL(table, key string, fn func(cur Item, exists bool) (Item, bool, time.Duration)) {
	s.simulateOp(true)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reapLocked(table, key)
	t := s.table(table)
	cur, exists := t[key]
	next, keep, ttl := fn(cur, exists)
	if !keep {
		delete(t, key)
		s.setTTLLocked(table, key, 0)
		return
	}
	t[key] = next
	if ttl > 0 {
		s.setTTLLocked(table, key, ttl)
	}
}

// Update is UpdateTTL for updates that leave the item's expiry alone.
func (s *Store) Update(table, key string, fn func(cur Item, exists bool) (Item, bool)) {
	s.UpdateTTL(table, key, func(cur Item, exists bool) (Item, bool, time.Duration) {
		next, keep := fn(cur, exists)
		return next, keep, 0
	})
}

// Increment atomically adds delta to an integer attribute (creating the
// item or attribute at zero) and returns the new value.
func (s *Store) Increment(table, key, attr string, delta int64) int64 {
	var out int64
	s.Update(table, key, func(cur Item, exists bool) (Item, bool) {
		if cur == nil {
			cur = Item{}
		}
		out = cur.Int(attr) + delta
		cur[attr] = out
		return cur, true
	})
	return out
}

// Len reports the number of items in a table (no latency; test helper).
func (s *Store) Len(table string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tables[table])
}
