package areplica

// Fleet control plane facade: many replication rules deployed as one unit
// under a shared scheduler and per-(provider,region) quota ledgers. The
// types, topology builders and fleet accounting live in internal/core;
// this file re-exports them, wraps the fleet's services as Replications
// and parses the JSON topology format.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
)

// Fleet topology types; see internal/core for their fields.
type (
	FleetRule    = core.FleetRule
	FleetDst     = core.FleetDst
	FleetHop     = core.FleetHop
	FleetOptions = core.FleetOptions
)

// OriginOf returns the origin tag the given rule's engine stamps on its
// destination writes (see FleetRule.AcceptOrigins).
func OriginOf(srcRegion, srcBucket, dstRegion, dstBucket string) string {
	return core.OriginOf(srcRegion, srcBucket, dstRegion, dstBucket)
}

// FanOut builds a one-to-many topology: one rule per destination.
func FanOut(srcRegion, srcBucket string, dsts ...FleetDst) ([]FleetRule, error) {
	return core.FanOut(srcRegion, srcBucket, dsts...)
}

// Chain builds a chained topology A→B→C…, each hop fed by the previous
// hop's applied writes.
func Chain(hops ...FleetHop) ([]FleetRule, error) { return core.Chain(hops...) }

// FullMesh builds an active-active mesh over the named bucket in every
// region: one rule per ordered region pair.
func FullMesh(bucket string, regions ...string) ([]FleetRule, error) {
	return core.FullMesh(bucket, regions...)
}

// Fleet is a deployed fleet: its rules, shared scheduler and quota
// ledger. The embedded core fleet carries the fleet-wide accounting,
// audit and health table; Fleet adds the per-rule Replication views.
type Fleet struct {
	*core.Fleet
}

// DeployFleet deploys every rule of a topology under one shared
// scheduler and quota ledger. Buckets are created as needed (existing
// buckets are reused); rules deploy in order, sharing the sim's
// performance model, each with an SLO monitor attached. Quotas arm after
// all rules are deployed — profiling, like chaos, sees a clean account.
func (s *Sim) DeployFleet(rules []FleetRule, opts FleetOptions) (*Fleet, error) {
	f, err := core.DeployFleet(s.world, s.model, s.events, rules, opts)
	if err != nil {
		return nil, err
	}
	return &Fleet{f}, nil
}

// Rule returns one deployed rule's Replication (nil when unknown).
func (f *Fleet) Rule(id string) *Replication {
	svc := f.Service(id)
	if svc == nil {
		return nil
	}
	return &Replication{svc: svc}
}

// Replications returns the deployed rules in deployment order.
func (f *Fleet) Replications() []*Replication {
	svcs := f.Services()
	out := make([]*Replication, len(svcs))
	for i, svc := range svcs {
		out[i] = &Replication{svc: svc}
	}
	return out
}

// fleetTopologySpec is the JSON topology schema of LoadFleetTopology (and
// cmd/areplica -fleet). Durations carry unit-suffixed field names.
type fleetTopologySpec struct {
	Quota struct {
		FaaSConcurrency int     `json:"faas_concurrency"`
		KVOpsPerSec     float64 `json:"kv_ops_per_sec"`
	} `json:"quota"`
	Sched struct {
		LaneSlots     int     `json:"lane_slots"`
		BatchWindowMS float64 `json:"batch_window_ms"`
		StarveAfterS  float64 `json:"starve_after_s"`
		LagTargetS    float64 `json:"lag_target_s"`
	} `json:"sched"`
	Rules  []fleetRuleSpec   `json:"rules,omitempty"`
	FanOut []fleetFanOutSpec `json:"fanout,omitempty"`
	Chains []fleetChainSpec  `json:"chains,omitempty"`
	Mesh   []fleetMeshSpec   `json:"mesh,omitempty"`
}

type fleetRuleSpec struct {
	Src       string  `json:"src"`
	SrcBucket string  `json:"src_bucket"`
	Dst       string  `json:"dst"`
	DstBucket string  `json:"dst_bucket"`
	KeyPrefix string  `json:"key_prefix,omitempty"`
	SLOS      float64 `json:"slo_s,omitempty"`
	Weight    float64 `json:"weight,omitempty"`
	Priority  int     `json:"priority,omitempty"`
}

type fleetFanOutSpec struct {
	Src      string         `json:"src"`
	Bucket   string         `json:"bucket"`
	Dsts     []fleetDstSpec `json:"dsts"`
	Weight   float64        `json:"weight,omitempty"`
	Priority int            `json:"priority,omitempty"`
}

type fleetDstSpec struct {
	Region string `json:"region"`
	Bucket string `json:"bucket"`
}

type fleetChainSpec struct {
	Hops     []fleetDstSpec `json:"hops"`
	Weight   float64        `json:"weight,omitempty"`
	Priority int            `json:"priority,omitempty"`
}

type fleetMeshSpec struct {
	Bucket   string   `json:"bucket"`
	Regions  []string `json:"regions"`
	Weight   float64  `json:"weight,omitempty"`
	Priority int      `json:"priority,omitempty"`
}

// LoadFleetTopology parses a JSON topology (direct rules plus fanout,
// chain and mesh groups) into deployable rules and options. Unknown
// fields and anything after the topology object are errors, so typos in
// a topology file surface instead of silently deploying something else.
func LoadFleetTopology(r io.Reader) ([]FleetRule, FleetOptions, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec fleetTopologySpec
	err := dec.Decode(&spec)
	if err == nil && dec.Decode(&struct{}{}) != io.EOF {
		err = errors.New("trailing data after the topology object")
	}
	if err != nil {
		return nil, FleetOptions{}, fmt.Errorf("areplica: fleet topology: %w", err)
	}
	opts := FleetOptions{
		FaaSConcurrency: spec.Quota.FaaSConcurrency,
		KVOpsPerSec:     spec.Quota.KVOpsPerSec,
		LaneSlots:       spec.Sched.LaneSlots,
		BatchWindow:     time.Duration(spec.Sched.BatchWindowMS * float64(time.Millisecond)),
		StarveAfter:     time.Duration(spec.Sched.StarveAfterS * float64(time.Second)),
		LagTarget:       time.Duration(spec.Sched.LagTargetS * float64(time.Second)),
	}
	var rules []FleetRule
	shape := func(group []FleetRule, weight float64, priority int) {
		for i := range group {
			group[i].Weight = weight
			group[i].Priority = priority
		}
		rules = append(rules, group...)
	}
	for _, rs := range spec.Rules {
		rules = append(rules, FleetRule{
			SrcRegion: rs.Src, SrcBucket: rs.SrcBucket,
			DstRegion: rs.Dst, DstBucket: rs.DstBucket,
			KeyPrefix: rs.KeyPrefix,
			SLO:       time.Duration(rs.SLOS * float64(time.Second)),
			Weight:    rs.Weight, Priority: rs.Priority,
		})
	}
	for _, fs := range spec.FanOut {
		dsts := make([]FleetDst, len(fs.Dsts))
		for i, d := range fs.Dsts {
			dsts[i] = FleetDst{Region: d.Region, Bucket: d.Bucket}
		}
		group, err := FanOut(fs.Src, fs.Bucket, dsts...)
		if err != nil {
			return nil, FleetOptions{}, err
		}
		shape(group, fs.Weight, fs.Priority)
	}
	for _, cs := range spec.Chains {
		hops := make([]FleetHop, len(cs.Hops))
		for i, h := range cs.Hops {
			hops[i] = FleetHop{Region: h.Region, Bucket: h.Bucket}
		}
		group, err := Chain(hops...)
		if err != nil {
			return nil, FleetOptions{}, err
		}
		shape(group, cs.Weight, cs.Priority)
	}
	for _, ms := range spec.Mesh {
		group, err := FullMesh(ms.Bucket, ms.Regions...)
		if err != nil {
			return nil, FleetOptions{}, err
		}
		shape(group, ms.Weight, ms.Priority)
	}
	if len(rules) == 0 {
		return nil, FleetOptions{}, fmt.Errorf("areplica: fleet topology declares no rules")
	}
	return rules, opts, nil
}
