package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile samples the CPU of one or more measured windows and buckets
// the flat samples by the package of the leaf function — where the host's
// time goes, as a report row instead of a pprof session. A nil
// *cpuProfile profiles nothing.
type cpuProfile struct {
	buf     bytes.Buffer
	buckets map[string]int64 // bucket -> summed sample value
}

func (p *cpuProfile) start() error {
	if p == nil {
		return nil
	}
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

func (p *cpuProfile) stop() error {
	if p == nil {
		return nil
	}
	pprof.StopCPUProfile()
	flat, err := decodeFlat(p.buf.Bytes())
	if err != nil {
		return fmt.Errorf("decoding CPU profile: %w", err)
	}
	if p.buckets == nil {
		p.buckets = make(map[string]int64)
	}
	for fn, v := range flat {
		p.buckets[hostBucket(fn)] += v
	}
	return nil
}

// fractions returns each host.* bucket's share of all samples.
func (p *cpuProfile) fractions() map[string]float64 {
	var total int64
	for _, v := range p.buckets {
		total += v
	}
	out := make(map[string]float64, len(hostBuckets))
	for _, b := range hostBuckets {
		out["host."+b+"_cpu_frac"] = ratio(float64(p.buckets[b]), float64(total))
	}
	return out
}

var hostBuckets = []string{
	"simclock", "runtime_sched", "runtime_gc", "runtime_other",
	"engine", "objstore", "kvstore", "faas", "netsim", "fleet", "planner",
	"telemetry", "antientropy", "trace", "bench", "other",
}

// layerOf maps a repo package (the import path's last elements) to its
// host.* bucket; packages not listed fall into "other".
var layerOf = map[string]string{
	"repro/internal/simclock":    "simclock",
	"repro/internal/engine":      "engine",
	"repro/internal/objstore":    "objstore",
	"repro/internal/kvstore":     "kvstore",
	"repro/internal/faas":        "faas",
	"repro/internal/netsim":      "netsim",
	"repro/internal/world":       "netsim", // World.MoveBytes is the transfer leg
	"repro/internal/fleet":       "fleet",
	"repro/internal/fleetobs":    "fleet",
	"repro/internal/planner":     "planner",
	"repro/internal/model":       "planner",
	"repro/internal/stats":       "planner",
	"repro/internal/telemetry":   "telemetry",
	"repro/internal/antientropy": "antientropy",
	"repro/internal/trace":       "trace",
	"main":                       "bench",
	"repro/bench":                "bench",
}

// Leaf functions of the Go runtime that do goroutine hand-off (park, wake,
// futex, channel send/receive) and those that allocate or collect.
var (
	runtimeSched = []string{"futex", "park", "schedule", "wakep", "goready", "ready", "findRunnable",
		"runq", "stealWork", "startm", "stopm", "notesleep", "notewakeup", "notetsleep", "mcall", "gosched",
		"execute", "resetspinning", "chansend", "chanrecv", "send", "recv", "sellock", "selectgo", "acquireSudog",
		"releaseSudog", "casgstatus", "dropg", "pidle", "injectglist", "checkTimers", "nanotime", "usleep",
		"osyield", "procyield", "handoffp", "mPark", "lock2", "unlock2", "globrunq", "netpoll", "epollwait", "gogo", "goexit"}
	runtimeGC = []string{"malloc", "gc", "memclr", "scanobject", "greyobject", "sweep", "markroot", "mark",
		"(*mcache)", "(*mcentral)", "(*mheap)", "(*mspan)", "heapBits", "nextFree", "wbBuf", "bulkBarrier",
		"typePointers", "spanOf", "findObject", "newobject", "growslice", "makeslice", "makechan", "newproc",
		"malg", "stackalloc", "stackfree", "(*gcWork)", "(*gcBits)", "(*lfstack)", "pollWork", "deductAssistCredit",
		"publicationBarrier", "(*pageAlloc)", "(*pallocBits)", "(*fixalloc)", "(*limiterEvent)", "(*gcControllerState)",
		"madvise", "sysUnused", "sysUsed", "(*scavengerState)", "(*sweepLocked)", "bgscavenge", "bgsweep"}
)

// hostBucket names the bucket of one leaf function, by its package.
func hostBucket(fn string) string {
	pkg, name := splitFunc(fn)
	if l, ok := layerOf[pkg]; ok {
		return l
	}
	// Assembly bodies (aeshashbody, memeqbody, ...) carry no package.
	if pkg == "" || pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") {
		for _, s := range runtimeSched {
			if strings.HasPrefix(name, s) {
				return "runtime_sched"
			}
		}
		for _, s := range runtimeGC {
			if strings.HasPrefix(name, s) {
				return "runtime_gc"
			}
		}
		return "runtime_other"
	}
	return "other"
}

// splitFunc splits "repro/internal/simclock.(*Clock).Sleep" into its
// package path and the rest.
func splitFunc(fn string) (pkg, name string) {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return "", fn
	}
	return fn[:slash+1+dot], fn[slash+2+dot:]
}

// decodeFlat decodes a gzip'd pprof protobuf and returns, per leaf
// function name, the sum of the samples' last value (CPU nanoseconds).
// Only the fields needed for that are read: Profile.sample(2),
// .location(4), .function(5), .string_table(6); Sample.location_id(1),
// .value(2); Location.id(1), .line(4); Line.function_id(1);
// Function.id(1), .name(2).
func decodeFlat(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		loc   uint64
		value int64
	}
	var samples []sample
	locFunc := make(map[uint64]uint64)  // location id -> leaf function id
	funcName := make(map[uint64]uint64) // function id -> string index
	var strs []string

	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			first := true
			if err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id: the first entry is the leaf
					ids, err := varints(v, b)
					if err == nil && len(ids) > 0 && first {
						s.loc, first = ids[0], false
					}
					return err
				case 2:
					vals, err := varints(v, b)
					if err == nil && len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
					return err
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id, fn uint64
			haveLine := false
			if err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // the first Line is the innermost inlined frame
					if haveLine {
						return nil
					}
					haveLine = true
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id, name uint64
			if err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for _, s := range samples {
		name := "?"
		if i := funcName[locFunc[s.loc]]; i < uint64(len(strs)) && i > 0 {
			name = strs[i]
		}
		out[name] += s.value
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

func varint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// fields walks one protobuf message, calling fn with each field's number
// and its varint value (wire type 0) or its bytes (wire type 2).
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		switch key & 7 {
		case 0:
			v, n := varint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(int(key>>3), v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			if err := fn(int(key>>3), 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
	}
	return nil
}

// varints reads a repeated integer field: one value when it arrived as a
// bare varint, all of them when packed.
func varints(v uint64, packed []byte) ([]uint64, error) {
	if packed == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(packed) > 0 {
		x, n := varint(packed)
		if n == 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		packed = packed[n:]
	}
	return out, nil
}
