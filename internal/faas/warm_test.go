package faas

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cloud"
)

// refWarm is the warm pool as acquire kept it before it trimmed the expired
// prefix: filter the whole pool on every acquisition, reuse the freshest.
// It stays here as the reference the trimmed pool is checked against.
type refWarm []*Instance

func (r *refWarm) acquire(now time.Time, keepWarm time.Duration) *Instance {
	live := (*r)[:0]
	for _, w := range *r {
		if now.Sub(w.idleSince) <= keepWarm {
			live = append(live, w)
		}
	}
	*r = live
	n := len(live)
	if n == 0 {
		return nil
	}
	*r = live[:n-1]
	return live[n-1]
}

// warmStep is one move of a warm-pool script: let d pass, take acquire
// instances, then give back release of the held ones, oldest held first.
type warmStep struct {
	d                time.Duration
	acquire, release int
}

func TestAcquireReapsLikeTheFilter(t *testing.T) {
	const keep = 10 * time.Minute
	cases := []struct {
		name  string
		steps []warmStep
		cold  int64
	}{
		{"nothing expires", []warmStep{{0, 8, 0}, {time.Second, 0, 8}, {time.Minute, 5, 5}, {time.Minute, 8, 8}}, 8},
		{"expired prefix", []warmStep{
			{0, 16, 0},
			{keep / 8, 0, 2}, {keep / 8, 0, 2}, {keep / 8, 0, 2}, {keep / 8, 0, 2},
			{keep / 8, 0, 2}, {keep / 8, 0, 2}, {keep / 8, 0, 2}, {keep / 8, 0, 2},
			{keep/2 + time.Second, 16, 0}, // the four oldest pairs are gone
		}, 24},
		{"idle exactly KeepWarm stays", []warmStep{{0, 2, 0}, {time.Second, 0, 1}, {time.Second, 0, 1}, {keep - time.Second, 2, 2}, {keep, 3, 0}}, 3},
		{"all expire", []warmStep{{0, 4, 4}, {keep + time.Nanosecond, 4, 4}, {keep + time.Hour, 1, 1}}, 9},
		{"reuse interleaved with expiry", []warmStep{
			{0, 6, 0}, {time.Minute, 0, 3}, {4 * time.Minute, 0, 3},
			{7 * time.Minute, 2, 0},                                    // first three expired; two of the later three reused
			{time.Minute, 0, 2}, {5 * time.Minute, 4, 1}, {keep, 2, 0}, // the survivor expires; one idle exactly keep is reused
		}, 9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk, p, _ := newPlatform(t, cloud.AWS)
			p.cfg.KeepWarm = keep
			var ref refWarm
			var held []*Instance
			var cold int64
			for i, st := range tc.steps {
				clk.Sleep(st.d)
				for j := 0; j < st.acquire; j++ {
					want := ref.acquire(clk.Now(), keep)
					got, isCold := p.acquire()
					if isCold != (want == nil) || (!isCold && got != want) {
						t.Fatalf("step %d acquire %d: got %s (cold %v), filter reuses %v", i, j, got.ID, isCold, want)
					}
					if isCold {
						cold++
					}
					held = append(held, got)
				}
				for j := 0; j < st.release; j++ {
					p.release(held[0])
					ref = append(ref, held[0])
					held = held[1:]
				}
				// Both pools reap only inside acquire, at the same instants,
				// so they hold the same instances in the same order throughout.
				if len(p.warm) != len(ref) {
					t.Fatalf("step %d: %d warm, filter keeps %d", i, len(p.warm), len(ref))
				}
				for k := range ref {
					if p.warm[k] != ref[k] {
						t.Fatalf("step %d: warm[%d] = %s, filter has %s", i, k, p.warm[k].ID, ref[k].ID)
					}
				}
			}
			if cold != tc.cold || p.Stats().ColdStarts != cold {
				t.Fatalf("%d cold starts (platform counts %d), want %d", cold, p.Stats().ColdStarts, tc.cold)
			}
		})
	}
}

// BenchmarkAcquireWarm takes and returns one instance with a pool of warm
// ones behind it; nothing expires, so the cost is the reap's scan alone.
func BenchmarkAcquireWarm(b *testing.B) {
	for _, warm := range []int{16, 1024} {
		b.Run(fmt.Sprintf("warm=%d", warm), func(b *testing.B) {
			_, p, _ := newPlatform(b, cloud.AWS)
			p.cfg.MaxConcurrency = warm + 1
			held := make([]*Instance, warm)
			for i := range held {
				held[i], _ = p.acquire()
			}
			for _, inst := range held {
				p.release(inst)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inst, _ := p.acquire()
				p.release(inst)
			}
		})
	}
}
