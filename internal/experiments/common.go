// Package experiments regenerates every table and figure of the paper's
// evaluation (§8) on the simulated three-cloud world. Each experiment
// returns a typed result whose Tables method yields the rows and series
// the paper reports as named-column tables, which Print renders as text
// and ExportCSV as CSV datasets; cmd/benchtab and the root bench suite
// both drive these functions.
package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/simrand"
	"repro/internal/world"
)

// Sizes used throughout the evaluation.
const (
	MB = int64(1) << 20
	GB = int64(1) << 30
)

// The three source regions of Tables 1-3.
var (
	AWSEast   = cloud.RegionID("aws:us-east-1")
	AzureEast = cloud.RegionID("azure:eastus")
	GCPEast   = cloud.RegionID("gcp:us-east1")
)

// destinationsFor returns the nine destination regions used for a table
// source, matching the paper's columns.
func destinationsFor(src cloud.RegionID) []cloud.RegionID {
	switch src {
	case AWSEast:
		return []cloud.RegionID{
			"aws:ca-central-1", "aws:eu-west-1", "aws:ap-northeast-1",
			"azure:eastus", "azure:uksouth", "azure:southeastasia",
			"gcp:us-east1", "gcp:europe-west6", "gcp:asia-northeast1",
		}
	case AzureEast:
		return []cloud.RegionID{
			"aws:us-east-1", "aws:eu-west-1", "aws:ap-northeast-1",
			"azure:westus2", "azure:uksouth", "azure:southeastasia",
			"gcp:us-east1", "gcp:europe-west6", "gcp:asia-northeast1",
		}
	case GCPEast:
		return []cloud.RegionID{
			"aws:us-east-1", "aws:eu-west-1", "aws:ap-northeast-1",
			"azure:eastus", "azure:uksouth", "azure:southeastasia",
			"gcp:us-west1", "gcp:europe-west6", "gcp:asia-northeast1",
		}
	}
	panic("experiments: unknown table source " + string(src))
}

// TraceDir, when non-empty (benchtab -tracedir), makes every experiment
// world record telemetry; FlushTelemetry then writes one Chrome trace and
// one metrics dump per world into the directory.
var TraceDir string

var (
	telemetryMu     sync.Mutex
	telemetryWorlds []labeledWorld
)

type labeledWorld struct {
	label string
	w     *world.World
}

// newWorld creates an experiment world. When TraceDir is set the world's
// tracer is enabled and the world is queued for FlushTelemetry; label
// names the experiment in the exported file names.
func newWorld(label string) *world.World {
	w := world.New()
	if TraceDir == "" {
		return w
	}
	w.Tracer.Enable()
	telemetryMu.Lock()
	telemetryWorlds = append(telemetryWorlds, labeledWorld{label, w})
	telemetryMu.Unlock()
	return w
}

// FlushTelemetry writes the queued worlds' traces and metrics into
// TraceDir as <label>-<n>.trace.json / <label>-<n>.metrics.txt and clears
// the queue. It is a no-op when TraceDir is unset.
func FlushTelemetry() error {
	if TraceDir == "" {
		return nil
	}
	telemetryMu.Lock()
	worlds := telemetryWorlds
	telemetryWorlds = nil
	telemetryMu.Unlock()
	if len(worlds) == 0 {
		return nil
	}
	if err := os.MkdirAll(TraceDir, 0o755); err != nil {
		return err
	}
	for i, lw := range worlds {
		base := fmt.Sprintf("%s-%02d", lw.label, i)
		if err := writeTo(filepath.Join(TraceDir, base+".trace.json"), lw.w.Tracer.WriteChromeTrace); err != nil {
			return err
		}
		if err := writeTo(filepath.Join(TraceDir, base+".metrics.txt"), lw.w.Metrics.WriteText); err != nil {
			return err
		}
	}
	return nil
}

func writeTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// mustCreate creates a bucket or panics (experiment setup).
func mustCreate(w *world.World, region cloud.RegionID, bucket string, versioned bool) {
	if err := w.Region(region).Obj.CreateBucket(bucket, versioned); err != nil {
		panic(err)
	}
}

// putObject writes a synthetic object and returns its metadata. The seed
// derives from the key and salt so repeated rounds write distinct content.
func putObject(w *world.World, region cloud.RegionID, bucket, key string, size int64, salt int) objstore.PutResult {
	seed := uint64(simrand.Seed("exp-obj", string(region), bucket, key, fmt.Sprint(salt)))
	res, err := w.Region(region).Obj.Put(bucket, key, objstore.BlobOfSize(size, seed))
	if err != nil {
		panic(err)
	}
	return res
}

// deployService deploys an AReplica rule with shared-model profiling.
func deployService(w *world.World, m *model.Model, rule engine.Rule, opts core.Options) *core.Service {
	opts.Rule = rule
	opts.Model = m
	svc, err := core.Deploy(w, opts)
	if err != nil {
		panic(err)
	}
	return svc
}

// lastDelaySeconds returns the delay of the most recent resolved record.
func lastDelaySeconds(tr *engine.Tracker) float64 {
	recs := tr.Records()
	if len(recs) == 0 {
		return -1
	}
	return recs[len(recs)-1].Delay.Seconds()
}

// costDelta runs fn (plus a quiesce) and returns the total dollars accrued.
func costDelta(w *world.World, fn func()) float64 {
	before := w.Meter.Total()
	fn()
	w.Clock.Quiesce()
	return w.Meter.Total() - before
}

// fmtSize renders a byte count the way the paper labels its rows.
func fmtSize(size int64) string {
	switch {
	case size >= GB:
		return fmt.Sprintf("%dGB", size/GB)
	case size >= MB:
		return fmt.Sprintf("%dMB", size/MB)
	default:
		return fmt.Sprintf("%dB", size)
	}
}

// stem spells a region ID for a CSV file name: Windows and CI artifact
// uploads reject ':' in file names.
func stem(id cloud.RegionID) string { return strings.ReplaceAll(string(id), ":", "-") }

// sortedKeys returns m's keys in ascending order: output that ranges over a
// map goes through it so two runs print the same bytes.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
