// Package oracle checks the replication guarantee from outside the system
// under test. Its first brick is the duplicate-final-write watcher every
// experiment and chaos test shares.
package oracle

import "repro/internal/objstore"

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
