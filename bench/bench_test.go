package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

const testScale = 0.01

// runTiny runs one workload's plain and traced paths in-process at
// -scale 0.01 and checks the gate passed.
func runTiny(t *testing.T, name string) result {
	t.Helper()
	wl, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	res, problems, err := runWorkload(wl, 1, 40*time.Millisecond, testScale, true)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(problems) > 0 || !res.Correct {
		t.Fatalf("%s: gate failed: %v", name, problems)
	}
	return res
}

// TestEveryMetricReported runs every workload and its traced path and
// asserts each metric BENCHMARK.json names comes back finite with its unit.
func TestEveryMetricReported(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the bench has %d", len(m.Workloads), len(workloads))
	}
	for _, mw := range m.Workloads {
		traced := runTiny(t, mw.Name)
		if got, want := len(traced.Metrics), len(m.EndToEnd)+len(m.PerLayer); got != want {
			t.Errorf("%s: %d metrics reported, BENCHMARK.json names %d", mw.Name, got, want)
		}
		check := func(res result, want []manifestMetric) {
			for _, mm := range want {
				v, ok := res.Metrics[mm.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s missing", mw.Name, mm.Name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: %s = %v", mw.Name, mm.Name, v.Value)
				case v.Unit != mm.Unit:
					t.Errorf("%s: %s has unit %q, want %q", mw.Name, mm.Name, v.Unit, mm.Unit)
				}
			}
		}
		check(traced, m.EndToEnd)
		check(traced, m.PerLayer)
		for _, mm := range m.EndToEnd {
			if traced.Metrics[mm.Name].Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", mw.Name, mm.Name)
			}
		}

		// The bypass predictions each workload was chosen for.
		get := func(name string) float64 { return traced.Metrics[name].Value }
		switch mw.Name {
		case "fleet-small":
			if get("fleet.admits") == 0 {
				t.Error("fleet-small: the fleet scheduler admitted nothing")
			}
			if get("engine.parts_hedged_frac") != 0 {
				t.Errorf("fleet-small: parts hedged on the single-function path: %v", get("engine.parts_hedged_frac"))
			}
			// Lock acquire + release only: no part-pool claims.
			if w := get("kvstore.writes_per_replica"); w > 2.5 {
				t.Errorf("fleet-small: %.2f KV writes per replica, expected the two lock writes", w)
			}
		case "heavy-tail":
			for name, v := range traced.Metrics {
				if strings.HasPrefix(name, "fleet.") && v.Value != 0 {
					t.Errorf("heavy-tail: %s = %v, the fleet layer should be bypassed", name, v.Value)
				}
			}
			if get("host.fleet_cpu_frac") != 0 {
				t.Errorf("heavy-tail: host.fleet_cpu_frac = %v", get("host.fleet_cpu_frac"))
			}
			if get("kvstore.writes_per_replica") < 5 {
				t.Errorf("heavy-tail: %.2f KV writes per replica, expected part-pool claims", get("kvstore.writes_per_replica"))
			}
		case "chaos-mixed":
			if get("chaos.injected") == 0 {
				t.Error("chaos-mixed: no fault injected")
			}
		case "backfill-scrub":
			if get("antientropy.repairs") == 0 || get("objstore.lists") == 0 {
				t.Errorf("backfill-scrub: repairs %v, lists %v", get("antientropy.repairs"), get("objstore.lists"))
			}
		}
	}
}

// TestManifestMatchesTable keeps BENCHMARK.json byte-identical to what the
// workload and metric tables generate, and inside the driver's limits.
func TestManifestMatchesTable(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, manifestJSON()) {
		t.Error("BENCHMARK.json differs from `go run ./bench -manifest`")
	}
	var e2e, layer int
	seen := map[string]bool{}
	for _, m := range metrics {
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
		if m.endToEnd() {
			e2e++
			if m.Bound <= 0 || m.Bound > 0.25 {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
		} else {
			layer++
		}
	}
	if e2e > 16 || layer > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; the limits are 16 and 128", e2e, layer)
	}
}

// TestPinnedInputs checks the default seeds' digests are pinned and that a
// pinned digest which does not match is reported.
func TestPinnedInputs(t *testing.T) {
	for _, wl := range workloads {
		for _, seed := range []uint64{1, 2} {
			if _, ok := pinnedDigest(wl.name, seed, 1); !ok {
				t.Errorf("%s seed %d has no pinned digest in inputs.json", wl.name, seed)
			}
		}
	}
	if _, ok := pinnedDigest("fleet-small", 1, testScale); ok {
		t.Error("a shrunken workload must not be held to the full-scale digest")
	}
}

// TestSameSeedSameInputs is the determinism the digest pin relies on.
func TestSameSeedSameInputs(t *testing.T) {
	a, err := buildHeavyTail(7, testScale)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := buildHeavyTail(7, testScale)
	c, _ := buildHeavyTail(8, testScale)
	if a.digest != b.digest {
		t.Errorf("same seed, different digests: %x %x", a.digest, b.digest)
	}
	if a.digest == c.digest {
		t.Error("different seeds, same digest")
	}
}

func TestStratifiedSizesAreSeedIndependent(t *testing.T) {
	sum := func(seed uint64) (total int64) {
		for _, op := range generate("t", seed, 400, 600, 16<<20, 1<<62, asIs) {
			total += op.Size
		}
		return total
	}
	a, b := sum(1), sum(2)
	if d := math.Abs(float64(a-b)) / float64(a); d > 0.05 {
		t.Errorf("bytes written differ by %.1f%% between seeds (%d vs %d)", 100*d, a, b)
	}
}

// TestJudge covers the four verdicts of -compare.
func TestJudge(t *testing.T) {
	wall, _ := metricByName("wall_s") // lower is better, 10 %
	st := func(med, q1, q3 float64) stat { return stat{Median: med, Q1: q1, Q3: q3} }
	for _, c := range []struct {
		name     string
		old, cur stat
		want     verdict
	}{
		{"within bound", st(10, 9.9, 10.1), st(10.5, 10.4, 10.6), unchanged},
		{"slower beyond bound", st(10, 9.9, 10.1), st(11.5, 11.4, 11.6), worse},
		{"faster beyond bound", st(10, 9.9, 10.1), st(8, 7.9, 8.1), better},
		{"noisy and overlapping", st(10, 8, 12), st(11.5, 9, 13), unresolved},
		{"noisy but disjoint", st(10, 9, 11), st(14, 13, 15.5), worse},
	} {
		if got := judge(wall, c.old, c.cur); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	ok, _ := metricByName("ok_frac") // higher is better, may not fall at all
	if got := judge(ok, st(1, 1, 1), st(0.9999, 0.9999, 0.9999)); got != worse {
		t.Errorf("ok_frac fell: %s, want worse", got)
	}
	if got := judge(ok, st(0.9999, 0.9999, 0.9999), st(1, 1, 1)); got != better {
		t.Errorf("ok_frac rose: %s, want better", got)
	}
}

func TestCompareReports(t *testing.T) {
	mk := func(wall float64) report {
		return report{Header: header{Comparable: true}, Workloads: []workloadReport{{
			Name:     "fleet-small",
			EndToEnd: map[string]stat{"wall_s": {Median: wall, Q1: wall, Q3: wall}},
			PerLayer: map[string]stat{"engine.tasks_ok": {Median: 100}, "drain_s": {Median: 60}},
		}}}
	}
	var out bytes.Buffer
	if n := compareReports(&out, mk(10), mk(10.2)); n != 0 {
		t.Errorf("2%% slower counted as worse:\n%s", out.String())
	}
	out.Reset()
	cur := mk(12)
	cur.Workloads[0].PerLayer["engine.tasks_ok"] = stat{Median: 99}
	if n := compareReports(&out, mk(10), cur); n != 1 {
		t.Errorf("20%% slower: %d worse rows, want 1:\n%s", n, out.String())
	}
	for _, want := range []string{"wall_s", "worse", "drain_s", "engine.tasks_ok", "count changed"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison lacks %q:\n%s", want, out.String())
		}
	}
}

// pb builds protobuf messages for the synthetic profile below.
type pb struct{ bytes.Buffer }

func (p *pb) varint(v uint64) {
	for v >= 0x80 {
		p.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	p.WriteByte(byte(v))
}
func (p *pb) uint(field int, v uint64) { p.varint(uint64(field)<<3 | 0); p.varint(v) }
func (p *pb) bytes(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.Write(b)
}

// TestProfileDecoderBuckets feeds the decoder a hand-built profile: four
// samples whose leaves are a clock function, a runtime hand-off function,
// an allocator function and an inlined engine function.
func TestProfileDecoderBuckets(t *testing.T) {
	strs := []string{"", "repro/internal/simclock.(*Clock).Sleep", "runtime.futex", "runtime.mallocgc",
		"repro/internal/engine.(*Engine).transferWhole", "repro/internal/faas.(*Platform).run"}
	var prof pb
	for id := 1; id <= 5; id++ { // function id == string index
		var fn pb
		fn.uint(1, uint64(id))
		fn.uint(2, uint64(id))
		prof.bytes(5, fn.Bytes())
	}
	for id := 1; id <= 4; id++ { // location id -> function id
		var loc pb
		loc.uint(1, uint64(id))
		var line pb
		line.uint(1, uint64(id))
		loc.bytes(4, line.Bytes())
		if id == 4 { // the engine leaf is inlined into a faas frame
			var outer pb
			outer.uint(1, 5)
			loc.bytes(4, outer.Bytes())
		}
		prof.bytes(4, loc.Bytes())
	}
	for id, ns := range map[int]uint64{1: 10, 2: 30, 3: 20, 4: 40} {
		var s, locs, vals pb
		locs.varint(uint64(id)) // leaf first
		locs.varint(1)          // a caller that must not be counted
		vals.varint(1)          // samples/count
		vals.varint(ns)         // cpu/nanoseconds
		s.bytes(1, locs.Bytes())
		s.bytes(2, vals.Bytes())
		prof.bytes(2, s.Bytes())
	}
	for _, str := range strs {
		prof.bytes(6, []byte(str))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.Bytes())
	zw.Close()

	flat, err := decodeFlat(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	p := &cpuProfile{buckets: map[string]int64{}}
	for fn, v := range flat {
		p.buckets[hostBucket(fn)] += v
	}
	fr := p.fractions()
	want := map[string]float64{
		"host.simclock_cpu_frac": 0.1, "host.runtime_sched_cpu_frac": 0.3,
		"host.runtime_gc_cpu_frac": 0.2, "host.engine_cpu_frac": 0.4, "host.faas_cpu_frac": 0,
	}
	var sum float64
	for _, f := range fr {
		sum += f
	}
	if len(fr) != len(hostBuckets) || math.Abs(sum-1) > 1e-12 {
		t.Errorf("%d buckets summing to %v", len(fr), sum)
	}
	for name, w := range want {
		if math.Abs(fr[name]-w) > 1e-12 {
			t.Errorf("%s = %v, want %v (flat: %v)", name, fr[name], w, flat)
		}
	}
	if _, err := decodeFlat(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}

func TestHostBucket(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/world.(*World).MoveBytesSpan": "netsim",
		"repro/internal/stats.MonteCarloMax":          "planner",
		"repro/internal/fleetobs.(*Monitor).Poll":     "fleet",
		"main.(*sink).observe":                        "bench",
		"runtime.chanrecv":                            "runtime_sched",
		"runtime.(*mspan).heapBitsSmallForAddr":       "runtime_gc",
		"runtime.memmove":                             "runtime_other",
		"internal/runtime/maps.(*Map).getWithoutKey":  "runtime_other",
		"aeshashbody":                                 "runtime_other",
		"container/heap.up":                           "other",
		"repro.(*Sim).PutObject":                      "other",
	} {
		if got := hostBucket(fn); got != want {
			t.Errorf("hostBucket(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestYardstickAllocatesNothing guards the property the yardstick's use
// rests on: once warm it never triggers the collector, whose cost would
// follow the live heap of whatever testbed happens to be built.
func TestYardstickAllocatesNothing(t *testing.T) {
	y := yard()
	if n := testing.AllocsPerRun(3, y.pass); n != 0 {
		t.Errorf("a yardstick pass allocates %v objects", n)
	}
	if r := readYardstick(testScale); r.wall <= 0 || r.cpu < 0 {
		t.Errorf("yardstick read %+v", r)
	}
}
