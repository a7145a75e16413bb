package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Col is one column of a Table: its name, which heads both the printed
// table and the CSV, and the fmt verb its cells print with. A "%s" column
// prints left-aligned, every other one right-aligned.
type Col struct {
	Name string
	Verb string
}

// Table is one result as rows of named columns, the single source of both
// the printed report and the CSV dataset. A table without a Name is
// printed only; one without a Title is exported only.
type Table struct {
	Name  string // CSV file stem
	Title string // printed heading
	Cols  []Col
	Rows  [][]any
	Notes []string // printed after the rows
}

// Add appends a row. Only a bug in a Tables method can build a row whose
// cell count differs from the column count, so that panics.
func (t *Table) Add(cells ...any) {
	if len(cells) != len(t.Cols) {
		panic(fmt.Sprintf("experiments: table %q/%q: %d cells for %d columns", t.Name, t.Title, len(cells), len(t.Cols)))
	}
	t.Rows = append(t.Rows, cells)
}

func (t Table) header() []string {
	names := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		names[i] = c.Name
	}
	return names
}

// Print writes every titled table as text, a blank line between two: the
// title, a header of the column names, each row with every column padded
// to its widest cell, then the notes. Write errors are dropped: this is a
// report for a terminal.
func Print(w io.Writer, tables ...Table) {
	var b strings.Builder
	for _, t := range tables {
		if t.Title == "" {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(t.Title + "\n")
		var lines [][]string
		if len(t.Cols) > 0 {
			lines = append(lines, t.header())
		}
		for _, row := range t.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = fmt.Sprintf(t.Cols[i].Verb, v)
			}
			lines = append(lines, cells)
		}
		width := make([]int, len(t.Cols))
		for _, cells := range lines {
			for i, c := range cells {
				width[i] = max(width[i], utf8.RuneCountInString(c))
			}
		}
		for _, cells := range lines {
			var line strings.Builder
			for i, c := range cells {
				pad := strings.Repeat(" ", width[i]-utf8.RuneCountInString(c))
				if i > 0 {
					line.WriteString("  ")
				}
				if t.Cols[i].Verb == "%s" {
					line.WriteString(c + pad)
				} else {
					line.WriteString(pad + c)
				}
			}
			b.WriteString(strings.TrimRight(line.String(), " ") + "\n")
		}
		for _, n := range t.Notes {
			b.WriteString(n + "\n")
		}
	}
	io.WriteString(w, b.String())
}

// ExportCSV writes every named table into the existing directory dir as
// <Name>.csv, stopping at the first error: a header of the column names,
// then one record per row, a float64 cell at six significant digits and
// any other cell as fmt.Sprint prints it.
func ExportCSV(dir string, tables ...Table) error {
	for _, t := range tables {
		if t.Name == "" {
			continue
		}
		records := [][]string{t.header()}
		for _, row := range t.Rows {
			rec := make([]string, len(row))
			for i, v := range row {
				if f, ok := v.(float64); ok {
					rec[i] = strconv.FormatFloat(f, 'g', 6, 64)
				} else {
					rec[i] = fmt.Sprint(v)
				}
			}
			records = append(records, rec)
		}
		if err := writeCSV(filepath.Join(dir, t.Name+".csv"), records); err != nil {
			return err
		}
	}
	return nil
}

// writeCSV writes records to path, reporting a failed Close as a failed
// write.
func writeCSV(path string, records [][]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = csv.NewWriter(f).WriteAll(records)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
