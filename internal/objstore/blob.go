package objstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// Blob is object content. To let the simulator move terabytes without
// materializing them, a blob is usually *synthetic*: its content is defined
// as a pure function of (Seed, absolute offset), so slices and
// concatenations can be reasoned about without bytes. Small blobs may carry
// literal bytes instead (examples and tests).
//
// The content model gives the simulator real consistency semantics: a
// range-read of a blob is a slice sharing its seed; reassembling
// *contiguous slices of the same seed starting at offset zero* yields a
// blob with the original ETag, while mixing slices of different versions
// (different seeds) yields a different ETag — exactly the corruption the
// paper's Figure 14 race produces.
type Blob struct {
	Size    int64
	Seed    uint64 // content identity for synthetic blobs
	Off     int64  // offset of this blob within the seed's content stream
	Literal []byte // non-nil for literal blobs; Seed/Off are then ignored
}

// BlobOfSize returns a synthetic blob of the given size and content seed.
func BlobOfSize(size int64, seed uint64) Blob {
	if size < 0 {
		panic("objstore: negative blob size")
	}
	return Blob{Size: size, Seed: seed}
}

// BlobFromBytes returns a literal blob holding b (not copied).
func BlobFromBytes(b []byte) Blob {
	return Blob{Size: int64(len(b)), Literal: b}
}

// IsLiteral reports whether the blob carries literal bytes.
func (b Blob) IsLiteral() bool { return b.Literal != nil }

// ETag returns the platform content hash of the blob, in the quoted form
// object stores use.
func (b Blob) ETag() string {
	var sum [sha256.Size]byte
	if b.IsLiteral() {
		sum = sha256.Sum256(b.Literal)
	} else {
		var buf [24]byte
		binary.BigEndian.PutUint64(buf[0:], b.Seed)
		binary.BigEndian.PutUint64(buf[8:], uint64(b.Off))
		binary.BigEndian.PutUint64(buf[16:], uint64(b.Size))
		sum = sha256.Sum256(buf[:])
	}
	var tag [34]byte // 32 hex digits between quotes
	tag[0], tag[33] = '"', '"'
	hex.Encode(tag[1:33], sum[:16])
	return string(tag[:])
}

// Slice returns the sub-blob [off, off+length). It panics if the range
// falls outside the blob.
func (b Blob) Slice(off, length int64) Blob {
	if off < 0 || length < 0 || off+length > b.Size {
		panic(fmt.Sprintf("objstore: slice [%d,%d) out of blob of size %d", off, off+length, b.Size))
	}
	if b.IsLiteral() {
		return BlobFromBytes(b.Literal[off : off+length])
	}
	return Blob{Size: length, Seed: b.Seed, Off: b.Off + off}
}

// ConcatBlobs assembles parts in order into one blob. Contiguous synthetic
// slices of the same seed merge losslessly (the result has the ETag the
// unsliced stream would have); anything else produces a new synthetic blob
// whose seed is derived from the parts' ETags, so its ETag differs from
// every input. Literal parts concatenate bytewise when all parts are
// literal.
func ConcatBlobs(parts ...Blob) Blob {
	if len(parts) == 0 {
		return Blob{Literal: []byte{}}
	}
	if len(parts) == 1 {
		return parts[0]
	}

	allLiteral := true
	for _, p := range parts {
		if !p.IsLiteral() {
			allLiteral = false
			break
		}
	}
	if allLiteral {
		var out []byte
		for _, p := range parts {
			out = append(out, p.Literal...)
		}
		return BlobFromBytes(out)
	}

	// Try a lossless merge of contiguous synthetic slices of one seed.
	mergeable := !parts[0].IsLiteral()
	if mergeable {
		seed, off := parts[0].Seed, parts[0].Off
		end := parts[0].Off + parts[0].Size
		for _, p := range parts[1:] {
			if p.IsLiteral() || p.Seed != seed || p.Off != end {
				mergeable = false
				break
			}
			end += p.Size
		}
		if mergeable {
			return Blob{Size: end - off, Seed: seed, Off: off}
		}
	}

	// Derived content: hash the parts' identities into a fresh seed.
	h := sha256.New()
	var total int64
	for _, p := range parts {
		h.Write([]byte(p.ETag()))
		total += p.Size
	}
	sum := h.Sum(nil)
	return Blob{Size: total, Seed: binary.BigEndian.Uint64(sum[:8]), Off: int64(binary.BigEndian.Uint32(sum[8:12]))}
}

// Equal reports whether two blobs have identical content (same ETag and
// size).
func (b Blob) Equal(o Blob) bool {
	return b.Size == o.Size && b.ETag() == o.ETag()
}
