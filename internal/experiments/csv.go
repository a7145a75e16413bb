package experiments

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// CSVTable is a plottable dataset extracted from an experiment result.
type CSVTable struct {
	Name   string // file stem, e.g. "fig23_p9999"
	Header []string
	Rows   [][]string
}

// WriteDir writes the table as <dir>/<name>.csv.
func (t CSVTable) WriteDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, t.Name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write(t.Header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := w.Write(r); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

func f64(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// CSV exports the table's cells as rows.
func (t *TableResult) CSV() []CSVTable {
	out := CSVTable{
		Name:   "table_" + string(t.Source),
		Header: []string{"size_bytes", "dest", "system", "delay_s", "cost_usd"},
	}
	add := func(si, di int, system string, c Cell) {
		if !c.Valid {
			return
		}
		out.Rows = append(out.Rows, []string{
			strconv.FormatInt(t.Sizes[si], 10), string(t.Dests[di]), system,
			f64(c.DelayS), f64(c.CostUSD),
		})
	}
	for si := range t.Sizes {
		for di := range t.Dests {
			add(si, di, "areplica", t.AReplica[si][di])
			add(si, di, "skyplane", t.Skyplane[si][di])
			add(si, di, t.PropName, t.Prop[si][di])
		}
	}
	return []CSVTable{out}
}

// CSV exports Figure 2's histogram.
func (r *Fig2Result) CSV() []CSVTable {
	t := CSVTable{Name: "fig2_put_sizes", Header: []string{"bucket", "count_pct", "capacity_pct"}}
	for i, l := range r.Labels {
		t.Rows = append(t.Rows, []string{l, f64(r.CountPct[i]), f64(r.CapacityPct[i])})
	}
	return []CSVTable{t}
}

// CSV exports Figure 3's throughput series.
func (r *Fig3Result) CSV() []CSVTable {
	t := CSVTable{Name: "fig3_throughput", Header: []string{"minute", "mb_per_s"}}
	for i, v := range r.MBps {
		t.Rows = append(t.Rows, []string{strconv.Itoa(i), f64(v)})
	}
	return []CSVTable{t}
}

// CSV exports Figure 7's scaling series.
func (r *Fig7Result) CSV() []CSVTable {
	t := CSVTable{Name: "fig7_scaling", Header: []string{"link", "functions", "aggregate_mibps"}}
	for _, s := range r.Series {
		for i, n := range s.Counts {
			t.Rows = append(t.Rows, []string{s.Label, strconv.Itoa(n), f64(s.MBps[i])})
		}
	}
	return []CSVTable{t}
}

// CSV exports Figure 8's bars.
func (r *Fig8Result) CSV() []CSVTable {
	t := CSVTable{Name: "fig8_asymmetry", Header: []string{"label", "mean_mibps", "std_mibps"}}
	for _, b := range r.Bars {
		t.Rows = append(t.Rows, []string{b.Label, f64(b.MeanMBps), f64(b.StdMBps)})
	}
	return []CSVTable{t}
}

// CSV exports Figure 9's per-instance time series.
func (r *Fig9Result) CSV() []CSVTable {
	t := CSVTable{Name: "fig9_instances", Header: []string{"instance", "at_s", "mibps"}}
	for _, id := range sortedKeys(r.Instances) {
		for _, s := range r.Instances[id] {
			t.Rows = append(t.Rows, []string{id, f64(s.AtSeconds), f64(s.MBps)})
		}
	}
	return []CSVTable{t}
}

// CSV exports Figure 17's per-instance distributions.
func (r *Fig17Result) CSV() []CSVTable {
	t := CSVTable{Name: "fig17_scheduling", Header: []string{"mode", "busy_s", "chunks"}}
	for _, in := range r.Fair {
		t.Rows = append(t.Rows, []string{"fair", f64(in.BusySeconds), strconv.Itoa(in.Chunks)})
	}
	for _, in := range r.Pool {
		t.Rows = append(t.Rows, []string{"pool", f64(in.BusySeconds), strconv.Itoa(in.Chunks)})
	}
	return []CSVTable{t}
}

// CSV exports the measured samples of Figures 18-19.
func (r *ModelAccuracyResult) CSV() []CSVTable {
	name := fmt.Sprintf("fig18_19_%s_to_%s", r.Src, r.Dst)
	t := CSVTable{Name: name, Header: []string{"n", "actual_s"}}
	for _, v := range r.ActualN1 {
		t.Rows = append(t.Rows, []string{"1", f64(v)})
	}
	for _, v := range r.ActualN32 {
		t.Rows = append(t.Rows, []string{"32", f64(v)})
	}
	return []CSVTable{t}
}

// CSV exports Figure 23's per-minute series.
func (r *Fig23Result) CSV() []CSVTable {
	t := CSVTable{Name: "fig23_p9999", Header: []string{"minute", "areplica_s", "s3rtc_s"}}
	n := len(r.AReplicaP9999)
	if len(r.S3RTCP9999) < n {
		n = len(r.S3RTCP9999)
	}
	for i := 0; i < n; i++ {
		t.Rows = append(t.Rows, []string{strconv.Itoa(i), f64(r.AReplicaP9999[i]), f64(r.S3RTCP9999[i])})
	}
	return []CSVTable{t}
}

// CSV exports Figure 22's batching points.
func (r *Fig22Result) CSV() []CSVTable {
	t := CSVTable{Name: "fig22_batching", Header: []string{
		"updates_per_min", "attain_batched", "attain_unbatched", "cost_min_batched", "cost_min_unbatched"}}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(p.UpdatesPerMin),
			f64(p.AttainmentBatched), f64(p.AttainmentUnbatched),
			f64(p.CostPerMinBatched), f64(p.CostPerMinUnbatched),
		})
	}
	return []CSVTable{t}
}

// CSVExporter is implemented by results that can emit plottable datasets.
type CSVExporter interface {
	CSV() []CSVTable
}

// ExportCSV writes every table of an exporter into dir.
func ExportCSV(dir string, results ...CSVExporter) error {
	for _, r := range results {
		for _, t := range r.CSV() {
			if err := t.WriteDir(dir); err != nil {
				return err
			}
		}
	}
	return nil
}

// CSV exports Figure 16's bulk rows.
func (b *BulkResult) CSV() []CSVTable {
	t := CSVTable{Name: "fig16_bulk", Header: []string{
		"src", "dst", "areplica_s", "areplica_cost", "areplica_n", "skyplane_s", "skyplane_cost"}}
	for _, p := range b.Pairs {
		t.Rows = append(t.Rows, []string{
			string(p.Src), string(p.Dst),
			f64(p.AReplicaS), f64(p.AReplicaCost), strconv.Itoa(p.AReplicaN),
			f64(p.SkyplaneS), f64(p.SkyplaneCost),
		})
	}
	return []CSVTable{t}
}

// CSV exports Figure 20's per-destination rows.
func (r *Fig20Result) CSV() []CSVTable {
	t := CSVTable{Name: "fig20_from_" + string(r.Src), Header: []string{
		"dst", "src_side_s", "dst_side_s", "dynamic_s", "dynamic_chose"}}
	for _, row := range r.Rows {
		chose := "dst"
		if row.DynamicChoseSourceSide {
			chose = "src"
		}
		t.Rows = append(t.Rows, []string{
			string(row.Dst), f64(row.SrcSideS), f64(row.DstSideS), f64(row.DynamicS), chose,
		})
	}
	return []CSVTable{t}
}

// CSV exports Figure 21's COPY rows.
func (r *Fig21Result) CSV() []CSVTable {
	t := CSVTable{Name: "fig21_copy", Header: []string{
		"size_bytes", "skyplane_s", "skyplane_cost", "s3rtc_s", "s3rtc_cost",
		"areplica_full_s", "areplica_full_cost", "areplica_log_s", "areplica_log_cost"}}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			strconv.FormatInt(row.SizeBytes, 10),
			f64(row.SkyplaneS), f64(row.SkyplaneCost),
			f64(row.S3RTCS), f64(row.S3RTCCost),
			f64(row.AReplicaFullS), f64(row.AReplicaFullCost),
			f64(row.AReplicaLogS), f64(row.AReplicaLogCost),
		})
	}
	return []CSVTable{t}
}
