package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// verdict is the outcome of comparing one metric of one workload.
type verdict string

const (
	better     verdict = "better"
	unchanged  verdict = "unchanged"
	worse      verdict = "worse"
	unresolved verdict = "unresolved" // run-to-run spread is wider than the bound
)

// judge applies m's same-seed bound to the old and new statistics. The
// allowance is that bound as a share of the old median plus the metric's
// absolute floor.
// A difference beyond the allowance counts only when the runs are steady
// enough to show it: their quartile ranges are within the allowance, or do
// not overlap at all.
func judge(m metric, old, cur stat) verdict {
	allowed := m.Same*math.Abs(old.Median) + m.Floor
	delta := cur.Median - old.Median // > 0 is worse for "lower"
	oq1, oq3, cq1, cq3 := old.Q1, old.Q3, cur.Q1, cur.Q3
	if m.Better == "higher" {
		delta = -delta
		oq1, oq3, cq1, cq3 = -old.Q3, -old.Q1, -cur.Q3, -cur.Q1
	}
	spread := math.Max(oq3-oq1, cq3-cq1)
	steady := spread <= allowed
	switch {
	case delta > allowed && (steady || cq1 > oq3):
		return worse
	case delta < -allowed && (steady || cq3 < oq1):
		return better
	case !steady:
		return unresolved
	}
	return unchanged
}

func readReport(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// reports, then the per-layer counts that changed, and returns how many
// rows are worse.
func compareFiles(w io.Writer, oldPath, newPath string) (int, error) {
	old, err := readReport(oldPath)
	if err != nil {
		return 0, err
	}
	cur, err := readReport(newPath)
	if err != nil {
		return 0, err
	}
	return compareReports(w, old, cur), nil
}

func compareReports(w io.Writer, old, cur report) int {
	oh, ch := old.Header, cur.Header
	oh.Commit, ch.Commit = "", ""
	if oh != ch {
		fmt.Fprintf(w, "WARNING: fingerprints differ, the results are not comparable:\n  old %+v\n  new %+v\n", oh, ch)
	}
	if !old.Header.Comparable || !cur.Header.Comparable {
		fmt.Fprintln(w, "WARNING: a report was taken at -scale != 1")
	}
	byName := make(map[string]workloadReport)
	for _, wr := range old.Workloads {
		byName[wr.Name] = wr
	}
	nWorse := 0
	fmt.Fprintf(w, "%-15s %-22s %14s %14s %8s  %s\n", "workload", "metric", "old", "new", "change", "verdict")
	for _, cw := range cur.Workloads {
		ow, ok := byName[cw.Name]
		if !ok {
			fmt.Fprintf(w, "%-15s only in the new report\n", cw.Name)
			continue
		}
		for _, m := range metrics {
			o, ok1 := ow.EndToEnd[m.Name]
			c, ok2 := cw.EndToEnd[m.Name]
			if !m.endToEnd() && m.Same > 0 { // delay_p90_s, delay_p99_s, drain_s
				o, ok1 = ow.PerLayer[m.Name]
				c, ok2 = cw.PerLayer[m.Name]
			}
			if !ok1 || !ok2 {
				continue
			}
			v := judge(m, o, c)
			if v == worse {
				nWorse++
			}
			fmt.Fprintf(w, "%-15s %-22s %14.6g %14.6g %+7.2f%%  %s\n", cw.Name, m.Name, o.Median, c.Median,
				100*ratio(c.Median-o.Median, math.Abs(o.Median)), v)
		}
		for _, m := range metrics {
			o, ok1 := ow.PerLayer[m.Name]
			c, ok2 := cw.PerLayer[m.Name]
			if ok1 && ok2 && m.exact() && m.Same == 0 && o.Median != c.Median {
				fmt.Fprintf(w, "%-15s %-36s %14.6g -> %-14.6g count changed\n", cw.Name, m.Name, o.Median, c.Median)
			}
		}
	}
	return nWorse
}
