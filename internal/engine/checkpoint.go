package engine

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cloud"
	"repro/internal/faas"
	"repro/internal/kvstore"
)

// Crash-recovery layer: durable task checkpoints, lease-stamped part-pool
// claims with epoch fencing, and orphaned-MPU garbage collection. The
// paper's §6 posture is "stateless functions + at-least-once retries",
// which re-runs a crashed task from scratch; the records here make the
// retry *incremental* instead — it re-attaches to the existing multipart
// upload, reclaims the crashed instances' part claims, and redoes only
// the parts whose delivery was never counted.

const (
	// poolTable holds one record per distributed task: the claim cursor,
	// the completed-part bitmap, the reclaimed-part free list, the fencing
	// epoch, and one lease attribute per outstanding claim.
	poolTable = "areplica-tasks"
	// poolLease is how long a part claim belongs to the instance that took
	// it; past it, a janitor pass may return the part to the pool.
	poolLease = 2 * time.Minute
	// recordTTL self-expires recovery records a crash orphaned beyond
	// reach (e.g. a task whose key never sees another event), DynamoDB-TTL
	// style; live tasks finish orders of magnitude sooner.
	recordTTL = 6 * time.Hour
)

// leaseAttr names the lease attribute of one part claim.
func leaseAttr(idx int64) string {
	var buf [len("lease-") + 20]byte
	return string(strconv.AppendInt(append(buf[:0], "lease-"...), idx, 10))
}

// encodeIdxs renders a part-index list as a flat attribute value.
func encodeIdxs(idxs []int64) string {
	if len(idxs) == 0 {
		return ""
	}
	parts := make([]string, len(idxs))
	for i, v := range idxs {
		parts[i] = strconv.FormatInt(v, 10)
	}
	return strings.Join(parts, ",")
}

// decodeIdxs parses encodeIdxs output; malformed entries are dropped.
func decodeIdxs(s string) []int64 {
	if s == "" {
		return nil
	}
	var out []int64
	for _, f := range strings.Split(s, ",") {
		if v, err := strconv.ParseInt(f, 10, 64); err == nil {
			out = append(out, v)
		}
	}
	return out
}

// pool is a handle on one distributed task's part-pool record. Every
// operation is a single atomic KV update (one metered write, like the
// counter increments it replaces), so the two-KV-accesses-per-part cost
// model of Algorithm 1 is unchanged. The handle carries the fencing epoch
// it was opened under: operations from an older epoch — a zombie
// instance whose claims were reclaimed — are rejected without effect.
type pool struct {
	kv    *kvstore.Store
	id    string
	total int64
	epoch int64
}

// newPool returns a handle for a fresh task at epoch 1 (create writes the
// record) or for re-attachment (attach bumps the record's epoch).
func newPool(kv *kvstore.Store, id string, total int64) *pool {
	return &pool{kv: kv, id: id, total: total, epoch: 1}
}

// create writes the task record: claim cursor, completion bitmap and
// fencing epoch (Algorithm 1's init_replication + create_part_pool).
func (p *pool) create(etag string) {
	p.kv.PutWithTTL(poolTable, p.id, kvstore.Item{
		"etag": etag, "total": p.total, "next": int64(0), "done": int64(0),
		"epoch": p.epoch, "bitmap": strings.Repeat("0", int(p.total)), "reclaimed": "",
	}, recordTTL)
}

// destroy retires the task record.
func (p *pool) destroy() { p.kv.Delete(poolTable, p.id) }

// claim takes up to b parts out of the pool for owner — reclaimed parts
// first, then fresh cursor positions — stamping each with a lease. It
// reports the parts remaining in the pool afterwards (for the claim-batch
// taper). A fenced claim (record gone, or reclaimed by a newer epoch)
// returns nothing.
func (p *pool) claim(b int64, owner string, now time.Time) (idxs []int64, remaining int64, fenced bool) {
	p.kv.Update(poolTable, p.id, func(cur kvstore.Item, exists bool) (kvstore.Item, bool) {
		if !exists {
			fenced = true
			return nil, false
		}
		if cur.Int("epoch") != p.epoch {
			fenced = true
			return cur, true
		}
		free := decodeIdxs(cur.Str("reclaimed"))
		for int64(len(idxs)) < b && len(free) > 0 {
			idxs = append(idxs, free[0])
			free = free[1:]
		}
		next, total := cur.Int("next"), cur.Int("total")
		for int64(len(idxs)) < b && next < total {
			idxs = append(idxs, next)
			next++
		}
		cur["next"] = next
		cur["reclaimed"] = encodeIdxs(free)
		var lease any = kvstore.Lease{Owner: owner, Epoch: p.epoch, Expires: now.Add(poolLease)}.Encode()
		for _, idx := range idxs {
			cur[leaseAttr(idx)] = lease
		}
		remaining = int64(len(free)) + total - next
		return cur, true
	})
	return idxs, remaining, fenced
}

// flush counts delivered parts: each still-unset bitmap bit flips and
// bumps the done counter; duplicate deliveries (hedges, zombies racing a
// reclaim) add nothing. closed reports that this update crossed the
// total — finish_replication falls to the caller. A stale-epoch flush is
// fenced: the zombie's parts were reclaimed and will be re-counted by
// their new owner, so counting them here would double-complete the pool.
func (p *pool) flush(idxs []int64) (done int64, closed, fenced bool) {
	p.kv.Update(poolTable, p.id, func(cur kvstore.Item, exists bool) (kvstore.Item, bool) {
		if !exists {
			fenced = true
			return nil, false
		}
		if cur.Int("epoch") != p.epoch {
			fenced = true
			return cur, true
		}
		bitmap := cur.Str("bitmap")
		prev := cur.Int("done")
		var flipped []byte // the bitmap's next value, once a bit flips
		for _, idx := range idxs {
			if idx < 0 || idx >= int64(len(bitmap)) || bitmap[idx] != '0' || (flipped != nil && flipped[idx] != '0') {
				continue
			}
			if flipped == nil {
				flipped = []byte(bitmap)
			}
			flipped[idx] = '1'
			done++
			delete(cur, leaseAttr(idx))
		}
		done += prev
		if flipped != nil {
			cur["done"] = done
			cur["bitmap"] = string(flipped)
		}
		closed = done >= cur.Int("total") && prev < cur.Int("total")
		return cur, true
	})
	return done, closed, fenced
}

// attach re-opens the record for a resumed attempt: it bumps the fencing
// epoch (so every outstanding lease is stale and any surviving zombie is
// fenced), returns all claimed-but-uncounted parts to the pool, and
// reports the completion bitmap the resumed replicators start from.
func (p *pool) attach() (bitmap string, done, reclaimed int64, ok bool) {
	p.kv.Update(poolTable, p.id, func(cur kvstore.Item, exists bool) (kvstore.Item, bool) {
		if !exists {
			return nil, false
		}
		ok = true
		p.epoch = cur.Int("epoch") + 1
		cur["epoch"] = p.epoch
		bitmap = cur.Str("bitmap")
		done = cur.Int("done")
		wasFree := len(decodeIdxs(cur.Str("reclaimed")))
		next := min(cur.Int("next"), cur.Int("total"))
		var free []int64
		for idx := int64(0); idx < next && idx < int64(len(bitmap)); idx++ {
			if bitmap[idx] == '0' {
				free = append(free, idx)
			}
		}
		reclaimed = int64(len(free) - wasFree)
		cur["reclaimed"] = encodeIdxs(free)
		for k := range cur {
			if strings.HasPrefix(k, "lease-") {
				delete(cur, k)
			}
		}
		return cur, true
	})
	return bitmap, done, reclaimed, ok
}

// reap is the expiry-only janitor: claimed-but-uncounted parts whose
// lease lapsed (or belongs to an older epoch) return to the pool without
// disturbing live claims — unlike attach, which reclaims everything. It
// reports how many parts it returned.
func (p *pool) reap(now time.Time) (reclaimed int64) {
	p.kv.Update(poolTable, p.id, func(cur kvstore.Item, exists bool) (kvstore.Item, bool) {
		if !exists {
			return nil, false
		}
		bitmap := cur.Str("bitmap")
		free := decodeIdxs(cur.Str("reclaimed"))
		inPool := make(map[int64]bool, len(free))
		for _, idx := range free {
			inPool[idx] = true
		}
		next := min(cur.Int("next"), cur.Int("total"))
		for idx := int64(0); idx < next && idx < int64(len(bitmap)); idx++ {
			if bitmap[idx] != '0' || inPool[idx] {
				continue
			}
			l := kvstore.ParseLease(cur.Str(leaseAttr(idx)))
			if l.Epoch != cur.Int("epoch") || l.Expired(now) {
				free = append(free, idx)
				reclaimed++
				delete(cur, leaseAttr(idx))
			}
		}
		sort.Slice(free, func(i, j int) bool { return free[i] < free[j] })
		cur["reclaimed"] = encodeIdxs(free)
		return cur, true
	})
	return reclaimed
}

// taskCkpt is the durable progress record of one distributed task, written
// once per task (after create-MPU) in the source region's KV store and
// keyed by object key. The per-part progress itself lives in the pool
// record; the checkpoint is the pointer that lets a retry find it.
type taskCkpt struct {
	ETag     string
	MPU      string
	Task     string
	Loc      cloud.RegionID
	PartSize int64
	Parts    int64
}

// ckptStore reads and writes task checkpoints for one rule.
type ckptStore struct {
	kv    *kvstore.Store
	table string
}

func newCkptStore(kv *kvstore.Store, ruleID string) *ckptStore {
	return &ckptStore{kv: kv, table: "areplica-ckpt:" + ruleID}
}

func (c *ckptStore) write(key string, ck taskCkpt) {
	c.kv.PutWithTTL(c.table, key, kvstore.Item{
		"etag": ck.ETag, "mpu": ck.MPU, "task": ck.Task, "loc": string(ck.Loc),
		"part_size": ck.PartSize, "parts": ck.Parts,
	}, recordTTL)
}

func (c *ckptStore) read(key string) (taskCkpt, bool) {
	it, ok := c.kv.Get(c.table, key)
	if !ok {
		return taskCkpt{}, false
	}
	return taskCkpt{
		ETag: it.Str("etag"), MPU: it.Str("mpu"), Task: it.Str("task"),
		Loc: cloud.RegionID(it.Str("loc")), PartSize: it.Int("part_size"), Parts: it.Int("parts"),
	}, true
}

func (c *ckptStore) clear(key string) { c.kv.Delete(c.table, key) }

// ckptRef is the engine's in-memory pointer to a key's recovery records,
// so abandonment paths (DLQ park, validation abort, success via another
// path) can release them without a KV read.
type ckptRef struct {
	mpu  string
	task string
	loc  cloud.RegionID
}

// cacheCkpt remembers a key's recovery records.
func (e *Engine) cacheCkpt(key string, ref ckptRef) {
	e.mu.Lock()
	e.ckpts[key] = ref
	e.mu.Unlock()
}

// dropCkptRecords deletes a key's pool record and checkpoint (and the
// in-memory pointer); the MPU's fate is the caller's decision.
func (e *Engine) dropCkptRecords(key string, task string, loc cloud.RegionID) {
	e.mu.Lock()
	delete(e.ckpts, key)
	e.mu.Unlock()
	e.W.Region(loc).KV.Delete(poolTable, task)
	e.ckpt.clear(key)
}

// releaseTask scraps whatever recoverable state a key's last distributed
// attempt left behind: the in-progress MPU (a metered abort), the pool
// record and the checkpoint. Call it when the task can never resume —
// final DLQ park, or success via a path that didn't consume the
// checkpoint (single-function degrade, dedupe, changelog, delete). A key
// with no cached records is a no-op.
func (e *Engine) releaseTask(key string) {
	e.mu.Lock()
	ref, ok := e.ckpts[key]
	e.mu.Unlock()
	if !ok {
		return
	}
	// Abort before dropping records: aborting an already-gone upload
	// succeeds silently, and a transiently failed abort falls to GC.
	_ = e.W.Region(e.Rule.Dst).Obj.AbortMultipart(ref.mpu)
	e.mpusAborted.Inc()
	e.dropCkptRecords(key, ref.task, ref.loc)
}

// maybeCrash consults the armed chaos profile's crash point: when step is
// armed, the calling instance is killed on the spot — Alive turns false,
// and the handler's own boundary checks abandon the work exactly as a real
// instance disappearing would.
func (e *Engine) maybeCrash(ctx *faas.Ctx, step string) {
	if e.W.Chaos.CrashPoint(step) {
		ctx.Kill()
		ctx.Span.Set("crash_point", step)
	}
}

// GCOrphanedMPUs enumerates the destination bucket's in-progress multipart
// uploads created by this rule and aborts the orphans: uploads older than
// grace with no checkpoint pointing at them, or whose task already
// converged via another path. Uploads a live checkpoint still references
// stay untouched — they are a resumed attempt's working state. Enumeration
// and aborts are metered requests, like the lifecycle rules real buckets
// run. It returns how many uploads were aborted and the part bytes
// reclaimed.
func (e *Engine) GCOrphanedMPUs(grace time.Duration) (aborted int, bytes int64) {
	dst := e.W.Region(e.Rule.Dst)
	now := e.W.Clock.Now()
	// Stream the upload listing page by page: GC decisions are per-upload,
	// so there is no reason to hold the whole enumeration in memory.
	sc := dst.Obj.ScanMultiparts(e.Rule.DstBucket)
	for in, ok := sc.Next(); ok; in, ok = sc.Next() {
		if in.Origin != e.origin() || now.Sub(in.Created) < grace {
			// Another rule's work, or young enough that its checkpoint may
			// not be written yet (the create-MPU → checkpoint window).
			continue
		}
		if ck, ok := e.ckpt.read(in.Key); ok && ck.MPU == in.ID {
			cur, err := dst.Obj.Head(e.Rule.DstBucket, in.Key)
			if err != nil || cur.ETag != ck.ETag {
				continue // resumable: the next attempt re-attaches here
			}
			// The destination already holds the checkpointed version: the
			// task completed via another path and its cleanup was lost.
			e.dropCkptRecords(in.Key, ck.Task, ck.Loc)
		}
		if err := dst.Obj.AbortMultipart(in.ID); err != nil {
			continue // transient; the next cadence retries
		}
		aborted++
		bytes += in.Bytes
		e.gcMPUs.Inc()
		e.gcBytes.Add(in.Bytes)
	}
	return aborted, bytes
}
