// Merkle-tree construction and diffing for the anti-entropy scrubber.
//
// A bucket listing is partitioned into L = F² leaves by the high bits of each
// key's 64-bit FNV-1a hash — contiguous prefix ranges of the hash keyspace,
// so the partition is deterministic, independent of object count, and
// tolerant of key skew. Leaves roll up through one internal level of
// fan-out F into a single root, giving the three-level tree the paper-era
// anti-entropy literature (Dynamo, Cassandra) uses: root comparison is one
// 8-byte digest, and a divergent pair descends into at most
// F + F·(L/F) + |mismatched leaves| digest transfers.
package antientropy

import (
	"encoding/binary"
	"hash/fnv"
	"sort"

	"repro/internal/objstore"
)

// member is one object version a leaf covers. The digest is keyed on
// (key, ETag): the ETag pins exact content, and source/destination
// sequence numbers are store-local so they cannot be compared directly —
// the ETag *is* the portable version identifier.
type member struct {
	Key  string
	ETag string
	Size int64
	Seq  uint64
	Age  float64 // seconds since the version was created, at listing time
}

// memberBytes is the wire size of one member record in a leaf exchange:
// key and ETag strings plus size/seq framing.
func (m member) wireBytes() int64 { return int64(len(m.Key)+len(m.ETag)) + 16 }

// digestBytes is the wire size of one tree digest.
const digestBytes = 8

// keyHash places a key in the hash keyspace.
func keyHash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// tree is one side's Merkle tree over a bucket listing.
type tree struct {
	leaves []uint64 // digest per leaf
	groups []uint64 // digest per internal node (len = fanout)
	root   uint64
	member [][]member // members per leaf, sorted by key
}

// leafIndex maps a key hash to its leaf: the hash keyspace is split into
// len(leaves) equal prefix ranges.
func leafIndex(h uint64, leaves int) int {
	width := ^uint64(0)/uint64(leaves) + 1
	return int(h / width)
}

// treeBuilder accumulates a listing into leaf partitions incrementally,
// so a streaming consumer (one LIST page at a time) never materializes
// the full []Meta — only the per-leaf member sets the tree needs anyway.
type treeBuilder struct {
	member [][]member
	ageAt  func(objstore.Meta) float64
	count  int
}

func newTreeBuilder(ageAt func(objstore.Meta) float64) *treeBuilder {
	return &treeBuilder{member: make([][]member, fanout*fanout), ageAt: ageAt}
}

// add places one listed object in its leaf. Ages are evaluated at add
// time — for a streaming listing, the page's fetch instant.
func (b *treeBuilder) add(m objstore.Meta) {
	i := leafIndex(keyHash(m.Key), len(b.member))
	b.member[i] = append(b.member[i], member{
		Key: m.Key, ETag: m.ETag, Size: m.Size, Seq: m.Seq, Age: b.ageAt(m),
	})
	b.count++
}

// finish computes the digest hierarchy over the accumulated members.
func (b *treeBuilder) finish() *tree {
	t := &tree{
		leaves: make([]uint64, fanout*fanout),
		groups: make([]uint64, fanout),
		member: b.member,
	}
	var buf [digestBytes]byte
	for i, ms := range t.member {
		sort.Slice(ms, func(a, b int) bool { return ms[a].Key < ms[b].Key })
		h := fnv.New64a()
		for _, m := range ms {
			h.Write([]byte(m.Key))
			h.Write([]byte{0})
			h.Write([]byte(m.ETag))
			h.Write([]byte{0})
		}
		t.leaves[i] = h.Sum64()
	}
	for g := range t.groups {
		h := fnv.New64a()
		for _, d := range t.leaves[g*fanout : (g+1)*fanout] {
			binary.BigEndian.PutUint64(buf[:], d)
			h.Write(buf[:])
		}
		t.groups[g] = h.Sum64()
	}
	h := fnv.New64a()
	for _, d := range t.groups {
		binary.BigEndian.PutUint64(buf[:], d)
		h.Write(buf[:])
	}
	t.root = h.Sum64()
	return t
}

// divergence is the repair set one tree comparison yields.
type divergence struct {
	Missing []member // at source, absent at destination
	Stale   []member // present on both sides with differing ETags (source version)
	Orphan  []member // at destination, absent at source (destination metadata)
}

func (d divergence) total() int { return len(d.Missing) + len(d.Stale) + len(d.Orphan) }

// descend compares two trees top-down and returns the divergence plus the
// digest/member bytes a real exchange would ship from the destination to
// the comparing side, and how many leaves were actually compared.
func descend(src, dst *tree) (d divergence, xferBytes int64, leavesCompared, leavesMismatched int) {
	xferBytes = digestBytes // root digest always crosses
	if src.root == dst.root {
		return d, xferBytes, 0, 0
	}
	xferBytes += int64(len(dst.groups)) * digestBytes
	for g := range src.groups {
		if src.groups[g] == dst.groups[g] {
			continue
		}
		xferBytes += fanout * digestBytes
		for i := g * fanout; i < (g+1)*fanout; i++ {
			leavesCompared++
			if src.leaves[i] == dst.leaves[i] {
				continue
			}
			leavesMismatched++
			for _, m := range dst.member[i] {
				xferBytes += m.wireBytes()
			}
			diffLeaf(src.member[i], dst.member[i], &d)
		}
	}
	return d, xferBytes, leavesCompared, leavesMismatched
}

// diffLeaf merges two key-sorted member lists into the divergence set.
func diffLeaf(src, dst []member, d *divergence) {
	i, j := 0, 0
	for i < len(src) && j < len(dst) {
		switch {
		case src[i].Key < dst[j].Key:
			d.Missing = append(d.Missing, src[i])
			i++
		case src[i].Key > dst[j].Key:
			d.Orphan = append(d.Orphan, dst[j])
			j++
		default:
			if src[i].ETag != dst[j].ETag {
				d.Stale = append(d.Stale, src[i])
			}
			i, j = i+1, j+1
		}
	}
	for ; i < len(src); i++ {
		d.Missing = append(d.Missing, src[i])
	}
	for ; j < len(dst); j++ {
		d.Orphan = append(d.Orphan, dst[j])
	}
}
