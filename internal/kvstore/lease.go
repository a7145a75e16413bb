package kvstore

import (
	"strconv"
	"strings"
	"time"
)

// Lease is an ownership claim on a shared resource (a part-pool claim, a
// rule lock): who holds it, under which fencing epoch, and when it stops
// counting. Leases are stored as a single string attribute inside an Item
// so stamping one rides along with the atomic Update that takes the claim
// — no extra KV operation.
type Lease struct {
	Owner   string
	Epoch   int64
	Expires time.Time
}

// Expired reports whether the lease has lapsed at the given instant. A
// zero lease is expired.
func (l Lease) Expired(now time.Time) bool {
	return !now.Before(l.Expires)
}

// Encode renders the lease as a flat "owner|epoch|expiresUnixNano" string.
func (l Lease) Encode() string {
	b := make([]byte, 0, len(l.Owner)+42) // two separators and two int64s of at most 20 bytes
	b = append(b, l.Owner...)
	b = append(b, '|')
	b = strconv.AppendInt(b, l.Epoch, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, l.Expires.UnixNano(), 10)
	return string(b)
}

// ParseLease decodes an Encode'd lease. A missing or malformed value
// yields the zero lease (expired at any instant), so stale schema reads
// degrade to "reclaimable" rather than erroring.
func ParseLease(s string) Lease {
	parts := strings.SplitN(s, "|", 3)
	if len(parts) != 3 {
		return Lease{}
	}
	epoch, err1 := strconv.ParseInt(parts[1], 10, 64)
	nanos, err2 := strconv.ParseInt(parts[2], 10, 64)
	if err1 != nil || err2 != nil {
		return Lease{}
	}
	return Lease{Owner: parts[0], Epoch: epoch, Expires: time.Unix(0, nanos)}
}
