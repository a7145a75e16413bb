// Package objstore simulates a cloud object storage service (S3, Blob
// Storage, GCS): buckets of immutable objects with PUT/GET/range-GET/
// DELETE, multipart upload, server-side copy and compose, optional
// versioning, per-request latency and fees, and event notifications
// delivered after a platform-dependent delay.
//
// The store models request round-trips only; wide-area data transfer time
// is the caller's concern (see internal/netsim), mirroring how a real
// client experiences the two separately.
package objstore

import (
	"errors"
	"fmt"
	"sort"
	"strings"
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

// Operation classes, used to scope fault injection and per-op failure
// telemetry (objstore.failures.<op>).
const (
	OpPut         = "put"
	OpGet         = "get"
	OpGetRange    = "get_range"
	OpDelete      = "delete"
	OpCopy        = "copy"
	OpList        = "list"
	OpMpuCreate   = "mpu_create"
	OpMpuUpload   = "mpu_upload"
	OpMpuComplete = "mpu_complete"
	OpMpuAbort    = "mpu_abort"
	OpMpuList     = "mpu_list"
)

// Ops lists every injectable operation class.
var Ops = []string{OpPut, OpGet, OpGetRange, OpDelete, OpCopy, OpList, OpMpuCreate, OpMpuUpload, OpMpuComplete, OpMpuAbort, OpMpuList}

// Errors returned by store operations.
var (
	ErrNoSuchBucket       = errors.New("objstore: no such bucket")
	ErrNoSuchKey          = errors.New("objstore: no such key")
	ErrNoSuchUpload       = errors.New("objstore: no such multipart upload")
	ErrPreconditionFailed = errors.New("objstore: precondition failed")
	ErrBucketExists       = errors.New("objstore: bucket already exists")
)

// EventType distinguishes object notifications.
type EventType string

// Notification types emitted by the store.
const (
	EventPut    EventType = "put"
	EventDelete EventType = "delete"
)

// Event is the JSON-like notification a cloud platform generates when an
// object is created or deleted (§5.1 stage 1).
type Event struct {
	Type   EventType
	Bucket string
	Key    string
	Size   int64
	ETag   string
	Seq    uint64    // monotonically increasing per store; orders versions
	Time   time.Time // when the triggering operation completed
	// Origin tags writes made by a replication system (the metadata real
	// services attach as x-amz-replication-status and the like), so
	// sibling rules can avoid re-replicating replica writes — the loop
	// breaker for active-active topologies.
	Origin string
}

// Meta is object metadata returned by Head.
type Meta struct {
	Key     string
	Size    int64
	ETag    string
	Seq     uint64
	Created time.Time
}

// Object is a stored object version.
type Object struct {
	Meta
	Blob Blob
}

// PutResult reports the outcome of a write.
type PutResult struct {
	ETag string
	Seq  uint64
}

type bucket struct {
	name       string
	versioning bool
	objects    map[string]*Object
	// sorted caches the bucket's key set in order; sortedOK goes false when
	// a key is created or deleted (overwrites keep the set) and the cache is
	// rebuilt lazily on the next listing. Without it every LIST page
	// re-collects and re-sorts the whole bucket — O(n log n) per page, which
	// at million-key buckets turns one full listing into an n²logn scan.
	sorted      []string
	sortedOK    bool
	subscribers []func(Event)
	// noncurrent counts retained non-current versions and their bytes when
	// versioning is enabled (for storage-cost estimates).
	noncurrentCount int64
	noncurrentBytes int64
}

// sortedKeysLocked returns the bucket's key set in order, rebuilding the
// cache if mutations invalidated it. Caller holds s.mu.
func (b *bucket) sortedKeysLocked() []string {
	if !b.sortedOK {
		b.sorted = b.sorted[:0]
		for k := range b.objects {
			b.sorted = append(b.sorted, k)
		}
		sort.Strings(b.sorted)
		b.sortedOK = true
	}
	return b.sorted
}

// Store is one region's object storage service.
type Store struct {
	clock  *simclock.Clock
	region cloud.Region
	book   pricing.Book
	meter  *pricing.Meter

	putLatency  stats.Normal
	getLatency  stats.Normal
	copyLatency stats.Normal
	notifyDelay stats.Normal

	mu      sync.Mutex
	rng     interface{ NormFloat64() float64 }
	chaos   *chaos.Injector
	buckets map[string]*bucket
	uploads map[string]*multipart
	seq     uint64

	failures      telemetry.Counter
	notifyDropped telemetry.Counter
	notifyDuped   telemetry.Counter

	// Optional run-wide registry instruments (nil no-ops until SetTelemetry).
	regFailures   *telemetry.Counter
	regFailByOp   map[string]*telemetry.Counter
	regNotifyDrop *telemetry.Counter
	regNotifyDup  *telemetry.Counter
	putHist       *telemetry.Histogram
	getHist       *telemetry.Histogram
	copyHist      *telemetry.Histogram
	notifyHist    *telemetry.Histogram
}

type multipart struct {
	bucket  string
	key     string
	origin  string
	created time.Time
	parts   map[int]Blob
}

// New returns a Store for region, metering request fees to meter.
// Notification delay defaults to the platform's calibrated value.
func New(clock *simclock.Clock, region cloud.Region, meter *pricing.Meter) *Store {
	nd := notifyDelayFor(region.Provider)
	return &Store{
		clock:       clock,
		region:      region,
		book:        pricing.BookFor(region.Provider),
		meter:       meter,
		putLatency:  stats.N(0.030, 0.010),
		getLatency:  stats.N(0.020, 0.008),
		copyLatency: stats.N(0.060, 0.020),
		notifyDelay: nd,
		rng:         simrand.New("objstore", string(region.ID())),
		buckets:     make(map[string]*bucket),
		uploads:     make(map[string]*multipart),
	}
}

// notifyDelayFor returns the calibrated notification delivery delay T_n.
func notifyDelayFor(p cloud.Provider) stats.Normal {
	switch p {
	case cloud.AWS:
		return stats.N(0.35, 0.10)
	case cloud.Azure:
		return stats.N(0.50, 0.15)
	case cloud.GCP:
		return stats.N(0.45, 0.12)
	}
	return stats.N(0.4, 0.1)
}

// ErrUnavailable is the transient "503 Slow Down" class of failure an
// armed chaos injector serves (§6: AReplica retries on transient faults
// because PUT is idempotent).
var ErrUnavailable = errors.New("objstore: service unavailable (injected)")

// SetChaos points the store at an armed chaos injector; nil heals it.
// It is the store's one fault path: a world arms every store at once
// (world.SetChaos), a test may arm a single store.
func (s *Store) SetChaos(ij *chaos.Injector) {
	s.mu.Lock()
	s.chaos = ij
	s.mu.Unlock()
}

// maybeFail decides one request's fate from the chaos injector's per-op
// verdict, which may also add a slow-request delay before succeeding or
// failing.
func (s *Store) maybeFail(op string) error {
	s.mu.Lock()
	ij := s.chaos
	s.mu.Unlock()
	v := ij.Obj(string(s.region.ID()), op)
	if v.Delay > 0 {
		s.clock.Sleep(v.Delay)
	}
	if !v.Fail {
		return nil
	}
	s.failures.Inc()
	s.regFailures.Inc()
	s.regFailByOp[op].Inc()
	return ErrUnavailable
}

// mpuVanished consults chaos on whether an in-progress multipart upload
// was reclaimed under the caller; if so the upload is discarded and the
// request fails with ErrNoSuchUpload, as S3 answers after a lifecycle
// abort. Callers must not hold s.mu.
func (s *Store) mpuVanished(uploadID, op string) bool {
	s.mu.Lock()
	ij := s.chaos
	s.mu.Unlock()
	if !ij.ObjMpuVanish(string(s.region.ID())) {
		return false
	}
	s.mu.Lock()
	delete(s.uploads, uploadID)
	s.mu.Unlock()
	s.failures.Inc()
	s.regFailures.Inc()
	s.regFailByOp[op].Inc()
	return true
}

// Stats reports request counters.
type Stats struct {
	Failures      int64 // injected failures served
	NotifyDropped int64 // notifications lost to chaos
	NotifyDuped   int64 // duplicate notification deliveries injected
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Failures:      s.failures.Value(),
		NotifyDropped: s.notifyDropped.Value(),
		NotifyDuped:   s.notifyDuped.Value(),
	}
}

// SetTelemetry mirrors the store's activity into run-wide registry
// instruments: request-latency histograms per operation class, injected
// failures per operation, and the notification delivery delay T_n.
func (s *Store) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	s.regFailures = reg.Counter("objstore.failures")
	s.regFailByOp = make(map[string]*telemetry.Counter, len(Ops))
	for _, op := range Ops {
		s.regFailByOp[op] = reg.Counter("objstore.failures." + op)
	}
	s.regNotifyDrop = reg.Counter("objstore.notify.dropped")
	s.regNotifyDup = reg.Counter("objstore.notify.duplicated")
	s.putHist = reg.Histogram("objstore.put.seconds")
	s.getHist = reg.Histogram("objstore.get.seconds")
	s.copyHist = reg.Histogram("objstore.copy.seconds")
	s.notifyHist = reg.Histogram("objstore.notify.seconds")
}

// Region returns the store's region.
func (s *Store) Region() cloud.Region { return s.region }

func (s *Store) sleep(d stats.Normal, h *telemetry.Histogram) {
	s.mu.Lock()
	v := d.Mu + d.Sigma*s.rng.NormFloat64()
	s.mu.Unlock()
	if v < 0.002 {
		v = 0.002
	}
	s.clock.Sleep(simclock.Seconds(v))
	h.Observe(v)
}

// CreateBucket creates a bucket; versioning retains non-current versions.
// Creating an existing bucket is an error.
func (s *Store) CreateBucket(name string, versioning bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.buckets[name]; ok {
		return fmt.Errorf("%w: %q", ErrBucketExists, name)
	}
	s.buckets[name] = &bucket{name: name, versioning: versioning, objects: make(map[string]*Object)}
	return nil
}

// Subscribe registers fn to receive the bucket's object notifications.
func (s *Store) Subscribe(bucketName string, fn func(Event)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucketName]
	if !ok {
		return ErrNoSuchBucket
	}
	b.subscribers = append(b.subscribers, fn)
	return nil
}

// emitLocked schedules delivery of ev to the bucket's subscribers after the
// notification delay. Chaos may drop the delivery entirely, stretch its
// delay (reordering it past later events), or schedule a duplicate copy —
// the at-least-once, unordered contract real bucket notifications carry.
// Caller holds s.mu.
func (s *Store) emitLocked(b *bucket, ev Event) {
	// Subscribe only ever appends, so the first n subscribers never change:
	// capture them capped instead of copying them on every event.
	n := len(b.subscribers)
	if n == 0 {
		return
	}
	subs := b.subscribers[:n:n]
	v := s.chaos.Notify(string(s.region.ID()))
	if v.Drop {
		s.notifyDropped.Inc()
		s.regNotifyDrop.Inc()
		return
	}
	delay := s.notifyDelay.Mu + s.notifyDelay.Sigma*s.rng.NormFloat64()
	if delay < 0.05 {
		delay = 0.05
	}
	s.notifyHist.Observe(delay)
	deliver := func() {
		for _, fn := range subs {
			fn(ev)
		}
	}
	s.clock.Delay(simclock.Seconds(delay)+v.Extra, deliver)
	if v.Duplicate {
		s.notifyDuped.Inc()
		s.regNotifyDup.Inc()
		s.clock.Delay(simclock.Seconds(delay)+v.Extra+v.DupExtra, deliver)
	}
}

// storeOriginLocked installs blob as the new current version of key, with
// an origin tag on the notification.
func (s *Store) storeOriginLocked(b *bucket, key string, blob Blob, origin string) PutResult {
	s.seq++
	old, existed := b.objects[key]
	if existed && b.versioning {
		b.noncurrentCount++
		b.noncurrentBytes += old.Size
	}
	if !existed {
		b.sortedOK = false
	}
	obj := &Object{
		Meta: Meta{Key: key, Size: blob.Size, ETag: blob.ETag(), Seq: s.seq, Created: s.clock.Now()},
		Blob: blob,
	}
	b.objects[key] = obj
	s.emitLocked(b, Event{Type: EventPut, Bucket: b.name, Key: key, Size: blob.Size,
		ETag: obj.ETag, Seq: obj.Seq, Time: obj.Created, Origin: origin})
	return PutResult{ETag: obj.ETag, Seq: obj.Seq}
}

// Put writes blob as the new version of key.
func (s *Store) Put(bucketName, key string, blob Blob) (PutResult, error) {
	return s.PutWithOrigin(bucketName, key, blob, "")
}

// PutWithOrigin is Put with an origin tag on the resulting notification;
// replication engines use it so their own writes are distinguishable from
// application writes.
func (s *Store) PutWithOrigin(bucketName, key string, blob Blob, origin string) (PutResult, error) {
	s.sleep(s.putLatency, s.putHist)
	s.meter.Add("obj:put", s.book.ObjPut)
	if err := s.maybeFail(OpPut); err != nil {
		return PutResult{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucketName]
	if !ok {
		return PutResult{}, ErrNoSuchBucket
	}
	return s.storeOriginLocked(b, key, blob, origin), nil
}

// get is the shared read path; op scopes the fault-injection decision so
// ranged reads fail independently of whole-object reads.
func (s *Store) get(op, bucketName, key string) (Object, error) {
	s.sleep(s.getLatency, s.getHist)
	s.meter.Add("obj:get", s.book.ObjGet)
	if err := s.maybeFail(op); err != nil {
		return Object{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucketName]
	if !ok {
		return Object{}, ErrNoSuchBucket
	}
	obj, ok := b.objects[key]
	if !ok {
		return Object{}, ErrNoSuchKey
	}
	return *obj, nil
}

// Get returns the current version of key.
func (s *Store) Get(bucketName, key string) (Object, error) {
	return s.get(OpGet, bucketName, key)
}

// Head returns the current metadata of key (same fee class as GET).
func (s *Store) Head(bucketName, key string) (Meta, error) {
	obj, err := s.get(OpGet, bucketName, key)
	return obj.Meta, err
}

// GetRange returns the slice [off, off+n) of the current version along
// with the full object's ETag, mirroring a ranged GET with its response
// headers.
func (s *Store) GetRange(bucketName, key string, off, n int64) (Blob, string, error) {
	obj, err := s.get(OpGetRange, bucketName, key)
	if err != nil {
		return Blob{}, "", err
	}
	if off < 0 || off+n > obj.Size {
		return Blob{}, "", fmt.Errorf("objstore: range [%d,%d) outside object of size %d", off, off+n, obj.Size)
	}
	return obj.Blob.Slice(off, n), obj.ETag, nil
}

// Delete removes key's current version. Deleting a missing key succeeds,
// as in S3.
func (s *Store) Delete(bucketName, key string) error {
	return s.DeleteWithOrigin(bucketName, key, "")
}

// DeleteWithOrigin is Delete with an origin tag on the notification.
func (s *Store) DeleteWithOrigin(bucketName, key string, origin string) error {
	s.sleep(s.putLatency, s.putHist)
	s.meter.Add("obj:put", s.book.ObjPut)
	if err := s.maybeFail(OpDelete); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucketName]
	if !ok {
		return ErrNoSuchBucket
	}
	obj, existed := b.objects[key]
	if existed {
		if b.versioning {
			b.noncurrentCount++
			b.noncurrentBytes += obj.Size
		}
		delete(b.objects, key)
		b.sortedOK = false
		s.seq++
		s.emitLocked(b, Event{Type: EventDelete, Bucket: b.name, Key: key, Seq: s.seq,
			Time: s.clock.Now(), Origin: origin})
	}
	return nil
}

// Copy performs an intra-region server-side copy. If ifMatch is non-empty
// the copy only proceeds when the source's current ETag matches.
func (s *Store) Copy(srcBucket, srcKey, dstBucket, dstKey, ifMatch string) (PutResult, error) {
	return s.CopyWithOrigin(srcBucket, srcKey, dstBucket, dstKey, ifMatch, "")
}

// CopyWithOrigin is Copy with an origin tag on the notification.
func (s *Store) CopyWithOrigin(srcBucket, srcKey, dstBucket, dstKey, ifMatch, origin string) (PutResult, error) {
	s.sleep(s.copyLatency, s.copyHist)
	s.meter.Add("obj:put", s.book.ObjPut)
	if err := s.maybeFail(OpCopy); err != nil {
		return PutResult{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sb, ok := s.buckets[srcBucket]
	if !ok {
		return PutResult{}, ErrNoSuchBucket
	}
	db, ok := s.buckets[dstBucket]
	if !ok {
		return PutResult{}, ErrNoSuchBucket
	}
	obj, ok := sb.objects[srcKey]
	if !ok {
		return PutResult{}, ErrNoSuchKey
	}
	if ifMatch != "" && obj.ETag != ifMatch {
		return PutResult{}, ErrPreconditionFailed
	}
	return s.storeOriginLocked(db, dstKey, obj.Blob, origin), nil
}

// ComposeWithOrigin concatenates the current versions of srcKeys into
// dstKey server-side (GCS compose / S3 multipart-copy idiom), tagging the
// notification with origin. srcETags, when non-nil, are per-source
// preconditions.
func (s *Store) ComposeWithOrigin(bucketName, dstKey string, srcKeys []string, srcETags []string, origin string) (PutResult, error) {
	s.sleep(s.copyLatency, s.copyHist)
	s.meter.Add("obj:put", s.book.ObjPut)
	if err := s.maybeFail(OpCopy); err != nil {
		return PutResult{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucketName]
	if !ok {
		return PutResult{}, ErrNoSuchBucket
	}
	parts := make([]Blob, 0, len(srcKeys))
	for i, k := range srcKeys {
		obj, ok := b.objects[k]
		if !ok {
			return PutResult{}, fmt.Errorf("%w: %s", ErrNoSuchKey, k)
		}
		if srcETags != nil && srcETags[i] != "" && obj.ETag != srcETags[i] {
			return PutResult{}, ErrPreconditionFailed
		}
		parts = append(parts, obj.Blob)
	}
	return s.storeOriginLocked(b, dstKey, ConcatBlobs(parts...), origin), nil
}

// CreateMultipart starts a multipart upload for key and returns its id.
func (s *Store) CreateMultipart(bucketName, key string) (string, error) {
	return s.CreateMultipartWithOrigin(bucketName, key, "")
}

// CreateMultipartWithOrigin is CreateMultipart with an origin tag carried
// through to the completion notification.
func (s *Store) CreateMultipartWithOrigin(bucketName, key, origin string) (string, error) {
	s.sleep(s.putLatency, s.putHist)
	s.meter.Add("obj:put", s.book.ObjPut)
	if err := s.maybeFail(OpMpuCreate); err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.buckets[bucketName]; !ok {
		return "", ErrNoSuchBucket
	}
	s.seq++
	id := fmt.Sprintf("mpu-%d", s.seq)
	s.uploads[id] = &multipart{bucket: bucketName, key: key, origin: origin,
		created: s.clock.Now(), parts: make(map[int]Blob)}
	return id, nil
}

// UploadPart stores one part of a multipart upload. Parts may arrive in
// any order and re-uploading a part number overwrites it.
func (s *Store) UploadPart(uploadID string, partNum int, blob Blob) (string, error) {
	s.sleep(s.putLatency, s.putHist)
	s.meter.Add("obj:put", s.book.ObjPut)
	if err := s.maybeFail(OpMpuUpload); err != nil {
		return "", err
	}
	if s.mpuVanished(uploadID, OpMpuUpload) {
		return "", ErrNoSuchUpload
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	up, ok := s.uploads[uploadID]
	if !ok {
		return "", ErrNoSuchUpload
	}
	up.parts[partNum] = blob
	return blob.ETag(), nil
}

// CompleteMultipart assembles the uploaded parts in part-number order into
// the target object and finishes the upload.
func (s *Store) CompleteMultipart(uploadID string) (PutResult, error) {
	s.sleep(s.putLatency, s.putHist)
	s.meter.Add("obj:put", s.book.ObjPut)
	if err := s.maybeFail(OpMpuComplete); err != nil {
		return PutResult{}, err
	}
	if s.mpuVanished(uploadID, OpMpuComplete) {
		return PutResult{}, ErrNoSuchUpload
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	up, ok := s.uploads[uploadID]
	if !ok {
		return PutResult{}, ErrNoSuchUpload
	}
	nums := make([]int, 0, len(up.parts))
	for n := range up.parts {
		nums = append(nums, n)
	}
	sort.Ints(nums)
	parts := make([]Blob, len(nums))
	for i, n := range nums {
		parts[i] = up.parts[n]
	}
	b := s.buckets[up.bucket]
	delete(s.uploads, uploadID)
	return s.storeOriginLocked(b, up.key, ConcatBlobs(parts...), up.origin), nil
}

// AbortMultipart discards an in-progress upload: a metered request
// (S3 aborts are free; Azure and GCS bill it write-class) that can fail
// transiently like any other. Aborting an unknown upload succeeds
// silently, as in S3 — recovery paths abort defensively.
func (s *Store) AbortMultipart(uploadID string) error {
	s.sleep(s.putLatency, s.putHist)
	s.meter.Add("obj:abort", s.book.ObjAbort)
	if err := s.maybeFail(OpMpuAbort); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.uploads, uploadID)
	return nil
}

// MultipartInfo describes one in-progress multipart upload, as the
// ListMultipartUploads APIs report it (part count and byte footprint are
// what lifecycle/GC policies bill and reclaim).
type MultipartInfo struct {
	ID      string
	Bucket  string
	Key     string
	Origin  string
	Created time.Time
	Parts   int
	Bytes   int64
}

// HeadMultipart reports an in-progress upload's state (a ListParts-class
// request at GET latency). It returns ErrNoSuchUpload after completion or
// abort, which is how a resuming task learns whether its checkpointed MPU
// still exists.
func (s *Store) HeadMultipart(uploadID string) (MultipartInfo, error) {
	s.sleep(s.getLatency, s.getHist)
	s.meter.Add("obj:get", s.book.ObjGet)
	if err := s.maybeFail(OpMpuList); err != nil {
		return MultipartInfo{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	up, ok := s.uploads[uploadID]
	if !ok {
		return MultipartInfo{}, ErrNoSuchUpload
	}
	return s.mpuInfoLocked(uploadID, up), nil
}

// ListMultipartsPage returns up to MaxListPage in-progress uploads for the
// bucket whose ids sort strictly after startAfter, in id order — one
// metered LIST request, as S3's paginated ListMultipartUploads.
func (s *Store) ListMultipartsPage(bucketName, startAfter string) (page []MultipartInfo, truncated bool, err error) {
	s.sleep(s.getLatency, s.getHist)
	if err := s.maybeFail(OpMpuList); err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.buckets[bucketName]; !ok {
		return nil, false, ErrNoSuchBucket
	}
	s.meter.Add("obj:list", s.book.ObjList)
	ids := make([]string, 0, len(s.uploads))
	for id, up := range s.uploads {
		if up.bucket == bucketName && id > startAfter {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	if len(ids) > MaxListPage {
		ids, truncated = ids[:MaxListPage], true
	}
	page = make([]MultipartInfo, len(ids))
	for i, id := range ids {
		page[i] = s.mpuInfoLocked(id, s.uploads[id])
	}
	return page, truncated, nil
}

// MultipartScanner streams a bucket's in-progress uploads page by page,
// mirroring Scanner for object listings.
type MultipartScanner struct {
	s      *Store
	bucket string
	after  string
	page   []MultipartInfo
	i      int
	done   bool
	err    error
}

// ScanMultiparts starts a streaming listing of the bucket's in-progress
// multipart uploads in id order.
func (s *Store) ScanMultiparts(bucketName string) *MultipartScanner {
	return &MultipartScanner{s: s, bucket: bucketName}
}

// Next returns the next in-progress upload, fetching pages as needed.
func (sc *MultipartScanner) Next() (MultipartInfo, bool) {
	for sc.i >= len(sc.page) {
		if sc.done || sc.err != nil {
			return MultipartInfo{}, false
		}
		page, truncated, err := sc.s.ListMultipartsPage(sc.bucket, sc.after)
		if err != nil {
			sc.err = err
			return MultipartInfo{}, false
		}
		sc.page, sc.i, sc.done = page, 0, !truncated
		if len(page) > 0 {
			sc.after = page[len(page)-1].ID
		}
	}
	info := sc.page[sc.i]
	sc.i++
	return info, true
}

// Err returns the error that ended the scan, if any.
func (sc *MultipartScanner) Err() error { return sc.err }

// ListMultiparts enumerates the bucket's in-progress multipart uploads,
// sorted by id: a thin wrapper draining ScanMultiparts, one metered LIST
// request per page.
func (s *Store) ListMultiparts(bucketName string) ([]MultipartInfo, error) {
	var out []MultipartInfo
	sc := s.ScanMultiparts(bucketName)
	for info, ok := sc.Next(); ok; info, ok = sc.Next() {
		out = append(out, info)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// mpuInfoLocked snapshots one upload's info. Caller holds s.mu.
func (s *Store) mpuInfoLocked(id string, up *multipart) MultipartInfo {
	info := MultipartInfo{ID: id, Bucket: up.bucket, Key: up.key,
		Origin: up.origin, Created: up.created, Parts: len(up.parts)}
	for _, b := range up.parts {
		info.Bytes += b.Size
	}
	return info
}

// Usage reports a bucket's current and non-current storage footprint.
type Usage struct {
	Objects         int64
	Bytes           int64
	NoncurrentCount int64
	NoncurrentBytes int64
}

// MaxListPage is the largest number of keys one LIST request returns,
// mirroring the 1000-key page caps of S3, Blob Storage and GCS.
const MaxListPage = 1000

// ListPage returns up to max metadata entries, in key order, for objects
// whose keys start with prefix and sort strictly after startAfter. Each
// call is one metered LIST request (ObjList pricing) with GET-class
// latency; truncated reports whether further pages remain. max values
// outside (0, MaxListPage] are clamped to MaxListPage.
func (s *Store) ListPage(bucketName, prefix, startAfter string, max int) (page []Meta, truncated bool, err error) {
	s.sleep(s.getLatency, s.getHist)
	if err := s.maybeFail(OpList); err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucketName]
	if !ok {
		return nil, false, ErrNoSuchBucket
	}
	s.meter.Add("obj:list", s.book.ObjList)
	if max <= 0 || max > MaxListPage {
		max = MaxListPage
	}
	keys := b.sortedKeysLocked()
	// The page starts at the first key both inside the prefix range and
	// strictly after the cursor — two binary searches on the cached order.
	lo := sort.SearchStrings(keys, prefix)
	if startAfter != "" {
		if after := sort.Search(len(keys), func(i int) bool { return keys[i] > startAfter }); after > lo {
			lo = after
		}
	}
	hi := lo
	for hi < len(keys) && hi-lo < max && strings.HasPrefix(keys[hi], prefix) {
		hi++
	}
	truncated = hi < len(keys) && strings.HasPrefix(keys[hi], prefix)
	page = make([]Meta, hi-lo)
	for i, k := range keys[lo:hi] {
		page[i] = b.objects[k].Meta
	}
	return page, truncated, nil
}

// Scanner streams a bucket listing page by page: each page fetch is one
// metered LIST request, but the caller consumes entries one at a time and
// the full listing is never materialized. A transient page failure ends
// the scan with Err; LastKey is the resume cursor for a fresh Scan.
type Scanner struct {
	s              *Store
	bucket, prefix string
	after          string
	page           []Meta
	i              int
	pages          int
	done           bool
	err            error
}

// Scan starts a streaming listing of keys under prefix sorting strictly
// after startAfter. No request is issued until the first Next call.
func (s *Store) Scan(bucketName, prefix, startAfter string) *Scanner {
	return &Scanner{s: s, bucket: bucketName, prefix: prefix, after: startAfter}
}

// Next returns the next entry in key order, fetching the next page when
// the current one is exhausted. It returns false at the end of the
// listing or on error (check Err).
func (sc *Scanner) Next() (Meta, bool) {
	for sc.i >= len(sc.page) {
		if sc.done || sc.err != nil {
			return Meta{}, false
		}
		page, truncated, err := sc.s.ListPage(sc.bucket, sc.prefix, sc.after, MaxListPage)
		sc.pages++
		if err != nil {
			sc.err = err
			return Meta{}, false
		}
		sc.page, sc.i, sc.done = page, 0, !truncated
		if len(page) > 0 {
			sc.after = page[len(page)-1].Key
		}
	}
	m := sc.page[sc.i]
	sc.i++
	return m, true
}

// Err returns the error that ended the scan, if any.
func (sc *Scanner) Err() error { return sc.err }

// Pages returns how many LIST requests the scan has issued.
func (sc *Scanner) Pages() int { return sc.pages }

// LastKey returns the last key handed out by Next — the startAfter cursor
// a caller resumes from after a transient failure.
func (sc *Scanner) LastKey() string {
	if sc.i > 0 && sc.i <= len(sc.page) {
		return sc.page[sc.i-1].Key
	}
	return sc.after
}

// List returns the current metadata of every object in a bucket, sorted by
// key: a thin wrapper draining the Scan iterator, costing one LIST request
// per MaxListPage keys. Callers that can process entries incrementally
// should Scan instead.
func (s *Store) List(bucketName string) ([]Meta, error) {
	var out []Meta
	sc := s.Scan(bucketName, "", "")
	for m, ok := sc.Next(); ok; m, ok = sc.Next() {
		out = append(out, m)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// TotalUsage sums storage across all buckets (accounting helper).
func (s *Store) TotalUsage() Usage {
	s.mu.Lock()
	defer s.mu.Unlock()
	var u Usage
	for _, b := range s.buckets {
		u.NoncurrentCount += b.noncurrentCount
		u.NoncurrentBytes += b.noncurrentBytes
		for _, o := range b.objects {
			u.Objects++
			u.Bytes += o.Size
		}
	}
	return u
}

// Keys returns the bucket's current keys, sorted (test helper; no latency).
func (s *Store) Keys(bucketName string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucketName]
	if !ok {
		return nil
	}
	keys := make([]string, 0, len(b.objects))
	for k := range b.objects {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
