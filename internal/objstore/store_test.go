package objstore

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cloud"
	"repro/internal/pricing"
	"repro/internal/simclock"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func newStore(t *testing.T) (*simclock.Clock, *Store, *pricing.Meter) {
	t.Helper()
	clk := simclock.New(epoch)
	meter := pricing.NewMeter()
	s := New(clk, cloud.MustLookup("aws:us-east-1"), meter)
	if err := s.CreateBucket("b", false); err != nil {
		t.Fatal(err)
	}
	return clk, s, meter
}

func TestBlobETagStability(t *testing.T) {
	b := BlobOfSize(1000, 42)
	if b.ETag() != BlobOfSize(1000, 42).ETag() {
		t.Error("identical blobs must share an ETag")
	}
	if b.ETag() == BlobOfSize(1000, 43).ETag() {
		t.Error("different seeds must differ")
	}
	if b.ETag() == BlobOfSize(1001, 42).ETag() {
		t.Error("different sizes must differ")
	}
}

func TestBlobSliceConcatRoundTrip(t *testing.T) {
	// Contiguous slices reassemble into the original content.
	f := func(sizeRaw uint16, cutRaw uint16) bool {
		size := int64(sizeRaw)%10000 + 2
		cut := int64(cutRaw) % (size - 1)
		if cut == 0 {
			cut = 1
		}
		b := BlobOfSize(size, 7)
		merged := ConcatBlobs(b.Slice(0, cut), b.Slice(cut, size-cut))
		return merged.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBlobConcatInconsistentVersionsDiffers(t *testing.T) {
	// Mixing slices of two versions (the Figure 14 race) yields content
	// that matches neither version.
	v1, v2 := BlobOfSize(100, 1), BlobOfSize(100, 2)
	mixed := ConcatBlobs(v1.Slice(0, 50), v2.Slice(50, 50))
	if mixed.Equal(v1) || mixed.Equal(v2) {
		t.Error("inconsistent assembly must not equal either version")
	}
	if mixed.Size != 100 {
		t.Errorf("mixed size = %d", mixed.Size)
	}
}

func TestBlobNonZeroStartSliceDiffers(t *testing.T) {
	b := BlobOfSize(100, 5)
	tail := b.Slice(10, 90)
	if tail.Equal(b) {
		t.Error("a tail slice must differ from the whole")
	}
	// Reassembling from a non-zero start keeps slice identity.
	if !ConcatBlobs(b.Slice(10, 40), b.Slice(50, 50)).Equal(tail) {
		t.Error("contiguous tail slices should merge to the tail")
	}
}

func TestLiteralBlobs(t *testing.T) {
	lit := BlobFromBytes([]byte("hello world"))
	if lit.Size != 11 || !lit.IsLiteral() {
		t.Fatalf("literal blob: %+v", lit)
	}
	if !ConcatBlobs(lit.Slice(0, 5), lit.Slice(5, 6)).Equal(lit) {
		t.Error("literal slice+concat should round-trip")
	}
	if lit.ETag() == BlobFromBytes([]byte("hello worle")).ETag() {
		t.Error("literal content must drive the ETag")
	}
}

func TestBlobSliceOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BlobOfSize(10, 1).Slice(5, 6)
}

func TestConcatEdgeCases(t *testing.T) {
	if got := ConcatBlobs(); got.Size != 0 {
		t.Errorf("empty concat size = %d", got.Size)
	}
	one := BlobOfSize(5, 9)
	if !ConcatBlobs(one).Equal(one) {
		t.Error("single-part concat should be identity")
	}
}

func TestPutGetHeadDelete(t *testing.T) {
	_, s, _ := newStore(t)
	blob := BlobOfSize(1<<20, 99)
	res, err := s.Put("b", "k", blob)
	if err != nil {
		t.Fatal(err)
	}
	if res.ETag != blob.ETag() {
		t.Error("put result ETag mismatch")
	}
	obj, err := s.Get("b", "k")
	if err != nil || !obj.Blob.Equal(blob) || obj.Size != 1<<20 {
		t.Fatalf("get: %v %+v", err, obj)
	}
	meta, err := s.Head("b", "k")
	if err != nil || meta.ETag != blob.ETag() {
		t.Fatalf("head: %v %+v", err, meta)
	}
	if err := s.Delete("b", "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("b", "k"); !errors.Is(err, ErrNoSuchKey) {
		t.Fatalf("get after delete: %v", err)
	}
	if err := s.Delete("b", "missing"); err != nil {
		t.Fatalf("deleting a missing key should succeed: %v", err)
	}
}

func TestGetRange(t *testing.T) {
	_, s, _ := newStore(t)
	blob := BlobOfSize(1000, 3)
	if _, err := s.Put("b", "k", blob); err != nil {
		t.Fatal(err)
	}
	part, etag, err := s.GetRange("b", "k", 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	if etag != blob.ETag() {
		t.Error("range GET should report the full object's ETag")
	}
	if !part.Equal(blob.Slice(100, 200)) {
		t.Error("range content mismatch")
	}
	if _, _, err := s.GetRange("b", "k", 900, 200); err == nil {
		t.Error("out-of-range read should fail")
	}
}

func TestMissingBucketErrors(t *testing.T) {
	_, s, _ := newStore(t)
	if _, err := s.Put("nope", "k", BlobOfSize(1, 1)); !errors.Is(err, ErrNoSuchBucket) {
		t.Errorf("put: %v", err)
	}
	if _, err := s.Get("nope", "k"); !errors.Is(err, ErrNoSuchBucket) {
		t.Errorf("get: %v", err)
	}
	if err := s.Subscribe("nope", func(Event) {}); !errors.Is(err, ErrNoSuchBucket) {
		t.Errorf("subscribe: %v", err)
	}
	if err := s.CreateBucket("b", false); !errors.Is(err, ErrBucketExists) {
		t.Errorf("duplicate bucket create: %v, want ErrBucketExists", err)
	}
}

func TestCopyWithPrecondition(t *testing.T) {
	_, s, _ := newStore(t)
	blob := BlobOfSize(100, 1)
	res, _ := s.Put("b", "src", blob)
	if _, err := s.Copy("b", "src", "b", "dst", res.ETag); err != nil {
		t.Fatal(err)
	}
	obj, _ := s.Get("b", "dst")
	if !obj.Blob.Equal(blob) {
		t.Error("copy content mismatch")
	}
	if _, err := s.Copy("b", "src", "b", "dst2", `"stale"`); !errors.Is(err, ErrPreconditionFailed) {
		t.Errorf("stale precondition: %v", err)
	}
	if _, err := s.Copy("b", "missing", "b", "x", ""); !errors.Is(err, ErrNoSuchKey) {
		t.Errorf("missing source: %v", err)
	}
}

func TestCompose(t *testing.T) {
	_, s, _ := newStore(t)
	whole := BlobOfSize(300, 8)
	s.Put("b", "p0", whole.Slice(0, 100))
	s.Put("b", "p1", whole.Slice(100, 100))
	s.Put("b", "p2", whole.Slice(200, 100))
	res, err := s.ComposeWithOrigin("b", "joined", []string{"p0", "p1", "p2"}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.ETag != whole.ETag() {
		t.Error("composing contiguous slices should recreate the original")
	}
	// Precondition failure on one source.
	_, err = s.ComposeWithOrigin("b", "x", []string{"p0", "p1"}, []string{`"bad"`, ""}, "")
	if !errors.Is(err, ErrPreconditionFailed) {
		t.Errorf("compose precondition: %v", err)
	}
}

func TestMultipartAssemblesInPartOrder(t *testing.T) {
	_, s, _ := newStore(t)
	whole := BlobOfSize(256, 12)
	id, err := s.CreateMultipart("b", "big")
	if err != nil {
		t.Fatal(err)
	}
	// Upload out of order; completion must sort by part number.
	if _, err := s.UploadPart(id, 2, whole.Slice(128, 128)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.UploadPart(id, 1, whole.Slice(0, 128)); err != nil {
		t.Fatal(err)
	}
	res, err := s.CompleteMultipart(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.ETag != whole.ETag() {
		t.Error("multipart assembly should reproduce the source content")
	}
	if _, err := s.CompleteMultipart(id); !errors.Is(err, ErrNoSuchUpload) {
		t.Error("upload should be gone after completion")
	}
}

func TestMultipartAbort(t *testing.T) {
	_, s, _ := newStore(t)
	id, _ := s.CreateMultipart("b", "k")
	s.AbortMultipart(id)
	if _, err := s.UploadPart(id, 1, BlobOfSize(1, 1)); !errors.Is(err, ErrNoSuchUpload) {
		t.Errorf("upload after abort: %v", err)
	}
}

func TestEventsDeliveredWithDelay(t *testing.T) {
	clk, s, _ := newStore(t)
	var mu sync.Mutex
	var events []Event
	var deliveredAt time.Time
	s.Subscribe("b", func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		deliveredAt = clk.Now()
		mu.Unlock()
	})
	res, _ := s.Put("b", "k", BlobOfSize(10, 1))
	putDone := clk.Now()
	clk.Quiesce()
	if len(events) != 1 {
		t.Fatalf("got %d events", len(events))
	}
	ev := events[0]
	if ev.Type != EventPut || ev.Key != "k" || ev.ETag != res.ETag || ev.Size != 10 {
		t.Fatalf("event = %+v", ev)
	}
	if d := deliveredAt.Sub(putDone); d < 50*time.Millisecond || d > 2*time.Second {
		t.Errorf("notification delay = %v, want sub-second but nonzero", d)
	}
	// Delete also notifies.
	s.Delete("b", "k")
	clk.Quiesce()
	if len(events) != 2 || events[1].Type != EventDelete {
		t.Fatalf("delete event missing: %+v", events)
	}
}

func TestEventSeqOrdersVersions(t *testing.T) {
	clk, s, _ := newStore(t)
	var mu sync.Mutex
	seqs := map[string]uint64{}
	s.Subscribe("b", func(ev Event) {
		mu.Lock()
		seqs[ev.ETag] = ev.Seq
		mu.Unlock()
	})
	r1, _ := s.Put("b", "k", BlobOfSize(10, 1))
	r2, _ := s.Put("b", "k", BlobOfSize(10, 2))
	clk.Quiesce()
	if !(seqs[r1.ETag] < seqs[r2.ETag]) {
		t.Errorf("version order lost: %v", seqs)
	}
}

func TestVersioningTracksNoncurrent(t *testing.T) {
	_, s, _ := newStore(t)
	s.CreateBucket("v", true)
	s.Put("v", "k", BlobOfSize(100, 1))
	s.Put("v", "k", BlobOfSize(200, 2))
	s.Delete("v", "k")
	// Bucket "b" is still empty, so the store's usage is bucket "v"'s.
	u := s.TotalUsage()
	if u.Objects != 0 || u.NoncurrentCount != 2 || u.NoncurrentBytes != 300 {
		t.Errorf("usage = %+v", u)
	}
	// Unversioned bucket retains nothing.
	s.Put("b", "k", BlobOfSize(100, 1))
	s.Put("b", "k", BlobOfSize(100, 2))
	u2 := s.TotalUsage()
	if u2.Objects != 1 || u2.NoncurrentCount != 2 || u2.NoncurrentBytes != 300 {
		t.Errorf("unversioned usage = %+v", u2)
	}
}

func TestRequestFeesMetered(t *testing.T) {
	_, s, m := newStore(t)
	s.Put("b", "k", BlobOfSize(1, 1))
	s.Get("b", "k")
	book := pricing.BookFor(cloud.AWS)
	if got := m.Item("obj:put"); got != book.ObjPut {
		t.Errorf("put fee = %v", got)
	}
	if got := m.Item("obj:get"); got != book.ObjGet {
		t.Errorf("get fee = %v", got)
	}
}

func TestRequestLatencyRealistic(t *testing.T) {
	clk, s, _ := newStore(t)
	start := clk.Now()
	for i := 0; i < 50; i++ {
		s.Put("b", "k", BlobOfSize(1, uint64(i)))
	}
	per := clk.Since(start) / 50
	if per < 2*time.Millisecond || per > 200*time.Millisecond {
		t.Errorf("per-PUT latency %v out of range", per)
	}
}

func TestKeysListing(t *testing.T) {
	_, s, _ := newStore(t)
	s.Put("b", "zebra", BlobOfSize(1, 1))
	s.Put("b", "apple", BlobOfSize(1, 2))
	got := s.Keys("b")
	if len(got) != 2 || got[0] != "apple" || got[1] != "zebra" {
		t.Errorf("keys = %v", got)
	}
	if s.Keys("nope") != nil {
		t.Error("missing bucket should list nil")
	}
}

func TestConcurrentPutsLastWriterWins(t *testing.T) {
	clk, s, _ := newStore(t)
	for i := 0; i < 10; i++ {
		seed := uint64(i)
		clk.Go(func() { s.Put("b", "k", BlobOfSize(10, seed)) })
	}
	clk.Quiesce()
	obj, err := s.Get("b", "k")
	if err != nil {
		t.Fatal(err)
	}
	// Some version won; the object must be internally consistent.
	if obj.Size != 10 || obj.ETag != obj.Blob.ETag() {
		t.Errorf("final object inconsistent: %+v", obj)
	}
}
