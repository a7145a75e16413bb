// Package model implements AReplica's distribution-aware performance model
// (§5.3). The model predicts the replication time of a candidate plan —
// how many replicator functions n, executing at which region loc — as a
// probability distribution, so the planner can reason about percentiles
// rather than means.
//
// Single replicator:
//
//	T_rep = T_func + T_transfer
//	T_func = 0                      (orchestrator-local)
//	       = I(loc) + D(loc)        (one remote replicator)
//	T_transfer = S(src,dst,loc) + C(src,dst,loc) · ceil(size/c)
//
// Parallel replicators:
//
//	T_func = I(loc)·n + D(loc) + P(loc)
//	T_transfer = max_{1..n} ( S + C'·ceil(size/(c·n)) )
//
// All parameters are Normal distributions fitted by the profiler. Sums of
// Normals stay Normal, and the n replicators are i.i.d., so the max over
// them is the exact order statistic stats.MaxNormal — one closed form for
// every n, where the paper resamples by Monte Carlo and switches to a
// Gumbel approximation for large n. A prediction reads the current
// parameters every time: nothing derived from them is cached.
package model

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/cloud"
	"repro/internal/stats"
)

// DefaultChunk is the paper's empirically chosen 8 MB part size (§5.1).
const DefaultChunk = 8 << 20

// LocParams are the function-startup parameters of one execution region.
type LocParams struct {
	I stats.Normal // async invocation API latency, per call
	D stats.Normal // instance startup delay
	P stats.Normal // platform scheduler postponement on scale-out
}

// ChunkTime is the per-chunk replication time with its variance split
// into a *between-instance* component (a slow instance is slow for every
// chunk it handles: instance multiplier, peering path) and a
// *within-instance* component (per-transfer jitter). The split matters
// when extrapolating one instance's time over k chunks: the between part
// scales linearly with k while the within part averages out as sqrt(k).
// Treating the pooled sigma as fully correlated (a plain Normal scaled by
// k) overestimates high-variance paths severalfold.
type ChunkTime struct {
	Mu      float64 // mean seconds per chunk
	Between float64 // std of per-instance mean chunk times
	Within  float64 // std of chunk times within one instance
}

// OverK returns the distribution of the total time one instance needs for
// k chunks: N(k·mu, sqrt(k²·between² + k·within²)).
func (c ChunkTime) OverK(k float64) stats.Normal {
	return stats.N(k*c.Mu, math.Sqrt(k*k*c.Between*c.Between+k*c.Within*c.Within))
}

// Scale multiplies all components (used by the runtime logger's refresh).
func (c ChunkTime) Scale(f float64) ChunkTime {
	return ChunkTime{Mu: f * c.Mu, Between: f * c.Between, Within: f * c.Within}
}

// FitChunkTime estimates a ChunkTime from per-instance sample groups.
func FitChunkTime(groups [][]float64) ChunkTime {
	var all []float64
	var means []float64
	var withinSS float64
	var withinN int
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		all = append(all, g...)
		m := stats.Mean(g)
		means = append(means, m)
		for _, v := range g {
			withinSS += (v - m) * (v - m)
			withinN++
		}
	}
	if len(all) == 0 {
		panic("model: FitChunkTime with no samples")
	}
	ct := ChunkTime{Mu: stats.Mean(all)}
	if len(means) > 1 {
		ct.Between = stats.StdDev(means)
	}
	if withinN > len(means) {
		ct.Within = math.Sqrt(withinSS / float64(withinN-len(means)))
	}
	return ct
}

// PathParams are the transfer parameters of one (src,dst,loc) path.
//
// CpDown and CpUp split C' into its two stages — claim + range-GET +
// src→loc leg versus loc→dst leg + part upload + completion — so the
// model can predict the pipelined data plane, where a replicator
// overlaps part i+1's download with part i's upload and each
// steady-state part costs max(down, up) instead of down+up. Zero-valued
// stages (profiles fitted before the split existed) fall back to the
// serial Cp prediction.
type PathParams struct {
	S      stats.Normal // client setup overhead before the first byte moves
	C      ChunkTime    // per-chunk replication time, single function
	Cp     ChunkTime    // per-chunk time under pool scheduling (C' in the paper)
	CpDown ChunkTime    // download stage of C': claim + range-GET + src→loc leg
	CpUp   ChunkTime    // upload stage of C': loc→dst leg + upload-part + done
}

// PathKey identifies a replication path with its execution side.
type PathKey struct {
	Src, Dst, Loc cloud.RegionID
}

// Model stores fitted parameters and answers replication-time queries.
type Model struct {
	Chunk int64 // part size c

	mu     sync.Mutex
	loc    map[cloud.RegionID]LocParams
	path   map[PathKey]PathParams
	notify map[cloud.RegionID]stats.Normal
}

// New returns an empty model with the default chunk size.
func New() *Model {
	return &Model{
		Chunk:  DefaultChunk,
		loc:    make(map[cloud.RegionID]LocParams),
		path:   make(map[PathKey]PathParams),
		notify: make(map[cloud.RegionID]stats.Normal),
	}
}

// SetLoc installs the startup parameters of an execution region.
func (m *Model) SetLoc(loc cloud.RegionID, p LocParams) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.loc[loc] = p
}

// Loc returns the startup parameters of a region.
func (m *Model) Loc(loc cloud.RegionID) (LocParams, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.loc[loc]
	return p, ok
}

// SetPath installs the transfer parameters of a path; the next prediction
// over it uses them.
func (m *Model) SetPath(k PathKey, p PathParams) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.path[k] = p
}

// Path returns the transfer parameters of a path.
func (m *Model) Path(k PathKey) (PathParams, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.path[k]
	return p, ok
}

// SetNotify installs the notification-delay distribution T_n of a source
// region.
func (m *Model) SetNotify(src cloud.RegionID, d stats.Normal) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.notify[src] = d
}

// Notify returns T_n for a source region (zero Normal if unprofiled).
func (m *Model) Notify(src cloud.RegionID) stats.Normal {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.notify[src]
}

// Chunks returns ceil(size/chunk) for the model's part size.
func (m *Model) Chunks(size int64) int64 { return chunksOf(size, m.Chunk) }

func chunksOf(size, chunk int64) int64 {
	if size <= 0 || chunk <= 0 {
		return 0
	}
	return (size + chunk - 1) / chunk
}

// Dist is the model's prediction, a distribution over replication
// seconds: everything paid once (T_func, and for a single function the
// transfer too) plus the max over the n replicators' transfer times. The
// two are independent, so Mean and Std are exact; Quantile is the sum of
// the components' quantiles — an upper bound, which the paper explicitly
// permits ("the model is allowed to overestimate"). A single-function
// prediction leaves transfer zero, which adds exactly nothing.
type Dist struct {
	once     stats.Normal
	transfer stats.MaxNormal
}

func (d Dist) Mean() float64 { return d.once.Mu + d.transfer.Mean() }
func (d Dist) Std() float64  { return math.Hypot(d.once.Sigma, d.transfer.Std()) }
func (d Dist) Quantile(p float64) float64 {
	return d.once.Quantile(p) + d.transfer.Quantile(p)
}

// Opts select the data-plane variant a prediction is evaluated for.
type Opts struct {
	// Chunk overrides the model's default part size (0 keeps m.Chunk).
	// Per-chunk times are scaled linearly with the part size — transfer
	// time dominates each chunk, so seconds/chunk ∝ bytes/chunk.
	Chunk int64
	// Pipelined predicts the double-buffered data plane: each
	// steady-state chunk costs max(CpDown, CpUp) instead of CpDown+CpUp,
	// with one non-overlapped stage paid once at the pipeline boundary.
	// Ignored for n == 1 and on profiles without the stage split.
	Pipelined bool
}

// ReplTime returns the predicted distribution of T_rep for replicating an
// object of size bytes with n parallel functions executing at loc. When
// local is true (n must be 1 and loc the source region) the orchestrator
// replicates inline and T_func is zero.
func (m *Model) ReplTime(src, dst, loc cloud.RegionID, size int64, n int, local bool) (Dist, error) {
	return m.ReplTimeOpts(src, dst, loc, size, n, local, Opts{})
}

// ReplTimeOpts is ReplTime for a specific data-plane configuration.
func (m *Model) ReplTimeOpts(src, dst, loc cloud.RegionID, size int64, n int, local bool, o Opts) (Dist, error) {
	if n < 1 {
		return Dist{}, fmt.Errorf("model: parallelism %d < 1", n)
	}
	lp, ok := m.Loc(loc)
	if !ok {
		return Dist{}, fmt.Errorf("model: region %s not profiled", loc)
	}
	pk := PathKey{Src: src, Dst: dst, Loc: loc}
	pp, ok := m.Path(pk)
	if !ok {
		return Dist{}, fmt.Errorf("model: path %v not profiled", pk)
	}
	chunk := o.Chunk
	if chunk <= 0 {
		chunk = m.Chunk
	}
	f := float64(chunk) / float64(m.Chunk)
	chunks := chunksOf(size, chunk)
	if chunks == 0 {
		chunks = 1
	}

	if n == 1 {
		transfer := pp.S.Plus(pp.C.Scale(f).OverK(float64(chunks)))
		if local {
			return Dist{once: transfer}, nil
		}
		return Dist{once: stats.SumNormals(lp.I, lp.D, transfer)}, nil
	}

	perInst := (chunks + int64(n) - 1) / int64(n)
	return Dist{
		once:     stats.SumNormals(lp.I.Scale(float64(n)), lp.D, lp.P),
		transfer: stats.MaxNormal{Base: perInstTransfer(pp, perInst, f, o.Pipelined), N: n},
	}, nil
}

// perInstTransfer is one instance's transfer-time distribution for
// perInst chunks: serial S + C'·k, or — pipelined with a profiled stage
// split — S plus the smaller stage once plus the dominant stage over all
// k chunks (the steady state overlaps the other stage entirely).
func perInstTransfer(pp PathParams, perInst int64, f float64, pipelined bool) stats.Normal {
	if pipelined && pp.CpDown.Mu > 0 && pp.CpUp.Mu > 0 {
		down, up := pp.CpDown.Scale(f), pp.CpUp.Scale(f)
		dominant, other := down, up
		if up.Mu > down.Mu {
			dominant, other = up, down
		}
		return stats.SumNormals(pp.S, other.OverK(1), dominant.OverK(float64(perInst)))
	}
	return pp.S.Plus(pp.Cp.Scale(f).OverK(float64(perInst)))
}
