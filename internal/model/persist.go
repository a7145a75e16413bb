package model

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/cloud"
	"repro/internal/stats"
)

// The profiler is expensive to re-run on every deployment, so fitted
// parameters can be exported and re-imported (a real deployment would keep
// them in the same cloud database that holds replication state).

type persistedNormal struct {
	Mu    float64 `json:"mu"`
	Sigma float64 `json:"sigma"`
}

type persistedChunk struct {
	Mu      float64 `json:"mu"`
	Between float64 `json:"between"`
	Within  float64 `json:"within"`
}

type persistedLoc struct {
	Region string          `json:"region"`
	I      persistedNormal `json:"i"`
	D      persistedNormal `json:"d"`
	P      persistedNormal `json:"p"`
}

type persistedPath struct {
	Src string          `json:"src"`
	Dst string          `json:"dst"`
	Loc string          `json:"loc"`
	S   persistedNormal `json:"s"`
	C   persistedChunk  `json:"c"`
	Cp  persistedChunk  `json:"cp"`
}

type persistedNotify struct {
	Region string          `json:"region"`
	Tn     persistedNormal `json:"tn"`
}

type persistedModel struct {
	Chunk    int64             `json:"chunk_bytes"`
	Locs     []persistedLoc    `json:"locs"`
	Paths    []persistedPath   `json:"paths"`
	Notifies []persistedNotify `json:"notifies"`
}

func toPN(n stats.Normal) persistedNormal   { return persistedNormal{Mu: n.Mu, Sigma: n.Sigma} }
func fromPN(p persistedNormal) stats.Normal { return stats.N(p.Mu, p.Sigma) }
func toPC(c ChunkTime) persistedChunk {
	return persistedChunk{Mu: c.Mu, Between: c.Between, Within: c.Within}
}
func fromPC(p persistedChunk) ChunkTime {
	return ChunkTime{Mu: p.Mu, Between: p.Between, Within: p.Within}
}

// Export writes the model's fitted parameters as JSON.
func (m *Model) Export(w io.Writer) error {
	m.mu.Lock()
	pm := persistedModel{Chunk: m.Chunk}
	for loc, lp := range m.loc {
		pm.Locs = append(pm.Locs, persistedLoc{
			Region: string(loc), I: toPN(lp.I), D: toPN(lp.D), P: toPN(lp.P),
		})
	}
	for k, pp := range m.path {
		pm.Paths = append(pm.Paths, persistedPath{
			Src: string(k.Src), Dst: string(k.Dst), Loc: string(k.Loc),
			S: toPN(pp.S), C: toPC(pp.C), Cp: toPC(pp.Cp),
		})
	}
	for r, tn := range m.notify {
		pm.Notifies = append(pm.Notifies, persistedNotify{Region: string(r), Tn: toPN(tn)})
	}
	m.mu.Unlock()
	// Stable output order for diffable profiles.
	sort.Slice(pm.Locs, func(i, j int) bool { return pm.Locs[i].Region < pm.Locs[j].Region })
	sort.Slice(pm.Paths, func(i, j int) bool {
		a, b := pm.Paths[i], pm.Paths[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return a.Loc < b.Loc
	})
	sort.Slice(pm.Notifies, func(i, j int) bool { return pm.Notifies[i].Region < pm.Notifies[j].Region })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(pm)
}

// Import merges parameters exported by Export into the model, validating
// region identifiers. Existing entries for the same keys are replaced.
func (m *Model) Import(r io.Reader) error {
	var pm persistedModel
	if err := json.NewDecoder(r).Decode(&pm); err != nil {
		return fmt.Errorf("model: decoding profile: %w", err)
	}
	if pm.Chunk > 0 && pm.Chunk != m.Chunk {
		return fmt.Errorf("model: profile chunk size %d differs from model's %d", pm.Chunk, m.Chunk)
	}
	parse := func(s string) (cloud.RegionID, error) { return cloud.ParseRegionID(s) }
	for _, l := range pm.Locs {
		id, err := parse(l.Region)
		if err != nil {
			return err
		}
		m.SetLoc(id, LocParams{I: fromPN(l.I), D: fromPN(l.D), P: fromPN(l.P)})
	}
	for _, p := range pm.Paths {
		src, err := parse(p.Src)
		if err != nil {
			return err
		}
		dst, err := parse(p.Dst)
		if err != nil {
			return err
		}
		loc, err := parse(p.Loc)
		if err != nil {
			return err
		}
		m.SetPath(PathKey{Src: src, Dst: dst, Loc: loc},
			PathParams{S: fromPN(p.S), C: fromPC(p.C), Cp: fromPC(p.Cp)})
	}
	for _, n := range pm.Notifies {
		id, err := parse(n.Region)
		if err != nil {
			return err
		}
		m.SetNotify(id, fromPN(n.Tn))
	}
	return nil
}
