// Package oracle checks the replication guarantee from outside the system
// under test with two bricks: Watcher counts duplicate final writes as they
// land, and Compare decides at quiesce whether a destination holds its
// source. The system's own repair paths never import it.
package oracle

import (
	"fmt"

	"repro/internal/objstore"
)

// Watcher subscribes to one destination bucket and counts the replicas
// that landed there and the duplicate final writes among them: a new
// version whose content equals the one already current. It keeps one map
// entry per key and takes no lock — the clock runs one actor at a time and
// hands off through channels, so deliveries and the reads after a quiesce
// are ordered.
type Watcher struct {
	replicas int64
	dups     int
	last     map[string]version
}

type version struct {
	seq  uint64
	etag string
}

// Watch subscribes a new Watcher to the bucket.
func Watch(store *objstore.Store, bucket string) (*Watcher, error) {
	w := &Watcher{last: make(map[string]version)}
	if err := store.Subscribe(bucket, w.observe); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *Watcher) observe(ev objstore.Event) {
	if ev.Type == objstore.EventPut && ev.Origin != "" {
		w.replicas++
	}
	cur := w.last[ev.Key]
	if ev.Seq <= cur.seq {
		return // re-delivered, or overtaken by a newer write's notification
	}
	if ev.Type != objstore.EventPut {
		w.last[ev.Key] = version{seq: ev.Seq} // deleted: any content may follow
		return
	}
	if ev.ETag != "" && cur.etag == ev.ETag {
		w.dups++
	}
	w.last[ev.Key] = version{seq: ev.Seq, etag: ev.ETag}
}

// Replicas is the number of origin-tagged PUT notifications delivered:
// writes a replication rule landed, as opposed to user writes. Every
// delivery counts, because a notification overtaken by a newer write's is
// still a write that landed; under notification-duplicating chaos a
// replayed delivery therefore counts again.
func (w *Watcher) Replicas() int64 { return w.replicas }

// Duplicates is the number of duplicate final writes seen.
func (w *Watcher) Duplicates() int { return w.dups }

// Diff counts how far a destination is from holding its source under one
// key prefix.
type Diff struct {
	Keys      int // source keys under the prefix
	Converged int // of those, the destination holds the source's version
	Orphans   int // destination keys under the prefix the source lacks
}

// Diverged is the number of source keys the destination misses or holds
// at another version.
func (d Diff) Diverged() int { return d.Keys - d.Converged }

// Residual is every key that differs: diverged source keys plus orphans.
func (d Diff) Residual() int { return d.Diverged() + d.Orphans }

// Compare lists the source bucket under prefix to the end, then the
// destination bucket, and matches the listings by key and ETag. It bills
// LIST requests only, and never interleaves the two sides, so its fees
// land in a fixed order.
func Compare(src *objstore.Store, srcBucket string, dst *objstore.Store, dstBucket, prefix string) (Diff, error) {
	etags := make(map[string]string)
	sc := src.Scan(srcBucket, prefix, "")
	for m, ok := sc.Next(); ok; m, ok = sc.Next() {
		etags[m.Key] = m.ETag
	}
	if err := sc.Err(); err != nil {
		return Diff{}, fmt.Errorf("oracle: list %s: %w", srcBucket, err)
	}
	d := Diff{Keys: len(etags)}
	sc = dst.Scan(dstBucket, prefix, "")
	for m, ok := sc.Next(); ok; m, ok = sc.Next() {
		if etag, ok := etags[m.Key]; !ok {
			d.Orphans++
		} else if etag == m.ETag {
			d.Converged++
		}
	}
	if err := sc.Err(); err != nil {
		return Diff{}, fmt.Errorf("oracle: list %s: %w", dstBucket, err)
	}
	return d, nil
}
