package experiments

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cloud"
)

func TestCSVExport(t *testing.T) {
	dir := t.TempDir()
	if err := ExportCSV(dir, append(RunFig2(true).Tables(), RunFig7(true).Tables()...)...); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig2_put_sizes", "fig7_scaling"} {
		f, err := os.Open(filepath.Join(dir, name+".csv"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rows, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rows) < 3 {
			t.Fatalf("%s: only %d rows", name, len(rows))
		}
		for i, r := range rows {
			if len(r) != len(rows[0]) {
				t.Fatalf("%s row %d: ragged (%d vs %d cols)", name, i, len(r), len(rows[0]))
			}
		}
	}
}

// TestTableCSVCells pins the CSV cell rules every dataset relies on: a
// float64 at six significant digits, anything else as fmt.Sprint prints
// it. An untitled table still exports; an unnamed one writes no file.
func TestTableCSVCells(t *testing.T) {
	tb := Table{Name: "cells", Cols: []Col{
		{"f", "%.1f"}, {"i", "%d"}, {"i64", "%d"}, {"b", "%v"}, {"s", "%s"}, {"region", "%s"}}}
	tb.Add(1234.56789, 42, int64(1)<<40, true, "a,b", cloud.RegionID("aws:us-east-1"))
	tb.Add(1e-7, -1, int64(0), false, "", cloud.RegionID("gcp:us-east1"))
	dir := t.TempDir()
	if err := ExportCSV(dir, tb, Table{Title: "printed only", Cols: tb.Cols}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "cells.csv"))
	if err != nil {
		t.Fatal(err)
	}
	want := "f,i,i64,b,s,region\n" +
		"1234.57,42,1099511627776,true,\"a,b\",aws:us-east-1\n" +
		"1e-07,-1,0,false,,gcp:us-east1\n"
	if string(got) != want {
		t.Errorf("cells.csv =\n%s\nwant\n%s", got, want)
	}
	if files, _ := os.ReadDir(dir); len(files) != 1 {
		t.Errorf("wrote %d files, want only cells.csv", len(files))
	}
}

// TestTablePrint pins the text layout: title, header, every column padded
// to its widest cell ("%s" columns left-aligned, the rest right-aligned),
// notes last, a blank line between tables, untitled tables skipped.
func TestTablePrint(t *testing.T) {
	tb := Table{Title: "Demo", Cols: []Col{{"name", "%s"}, {"seconds", "%.2f"}, {"n", "%d"}},
		Notes: []string{"a note"}}
	tb.Add("short", 1.5, 7)
	tb.Add("a longer name", 12.25, 1000)
	var b strings.Builder
	Print(&b, tb, Table{Name: "exported only", Cols: tb.Cols}, Table{Title: "Notes only", Notes: []string{"x"}})
	want := `Demo
name           seconds     n
short             1.50     7
a longer name    12.25  1000
a note

Notes only
x
`
	if b.String() != want {
		t.Errorf("Print =\n%s\nwant\n%s", b.String(), want)
	}
}

// TestTableAddPanicsOnRaggedRow: a row that does not fit the columns is a
// bug in a Tables method, so Add panics instead of rendering it.
func TestTableAddPanicsOnRaggedRow(t *testing.T) {
	for _, cells := range [][]any{{1}, {1, 2, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%v) on two columns did not panic", cells)
				}
			}()
			tb := Table{Name: "x", Cols: []Col{{"a", "%d"}, {"b", "%d"}}}
			tb.Add(cells...)
		}()
	}
}

func TestExportCSVErrorPaths(t *testing.T) {
	tbl := Table{Name: "x", Cols: []Col{{"a", "%d"}}, Rows: [][]any{{1}}}

	t.Run("dir is a file", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "not-a-dir")
		if err := os.WriteFile(path, []byte("occupied"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := ExportCSV(path, tbl); err == nil {
			t.Fatal("ExportCSV into a plain file succeeded, want error")
		}
	})

	t.Run("unwritable dir", func(t *testing.T) {
		if os.Getuid() == 0 {
			t.Skip("root ignores directory permissions")
		}
		dir := filepath.Join(t.TempDir(), "ro")
		if err := os.MkdirAll(dir, 0o555); err != nil {
			t.Fatal(err)
		}
		if err := ExportCSV(dir, tbl); err == nil {
			t.Fatal("ExportCSV into an unwritable dir succeeded, want error")
		}
	})

	t.Run("name escapes into missing dir", func(t *testing.T) {
		bad := tbl
		bad.Name = filepath.Join("missing-sub", "deep", "x")
		if err := ExportCSV(t.TempDir(), bad); err == nil {
			t.Fatal("ExportCSV with a nested missing path succeeded, want error")
		}
	})

	t.Run("first error stops the export", func(t *testing.T) {
		dir := t.TempDir()
		bad := tbl
		bad.Name = filepath.Join("missing-sub", "x")
		if err := ExportCSV(dir, bad, tbl); err == nil {
			t.Fatal("want error from the first table")
		}
		if _, err := os.Stat(filepath.Join(dir, "x.csv")); !os.IsNotExist(err) {
			t.Fatalf("export continued past the first error: stat x.csv: %v", err)
		}
	})

	t.Run("no tables is a no-op", func(t *testing.T) {
		if err := ExportCSV(filepath.Join(t.TempDir(), "never-created")); err != nil {
			t.Fatalf("ExportCSV with no tables: %v", err)
		}
	})
}

func TestCSVTableShapes(t *testing.T) {
	tb := RunTable(TableConfig{Source: AWSEast, Quick: true}).Tables()[0]
	if tb.Name != "table_aws-us-east-1" {
		t.Fatalf("first table is %q, want the cell rows", tb.Name)
	}
	// 2 sizes x 3 dests x (areplica + skyplane + rtc-on-aws-dests).
	if len(tb.Rows) < 12 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}
