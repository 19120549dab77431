package harness

import (
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows and prints a fixed-width, paper-style table.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// Add appends one row; values are formatted with %v.
func (t *Table) Add(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", x)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// Print renders the table.
func (t *Table) Print(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	fmt.Fprintf(w, "\n%s\n%s\n", t.Title, strings.Repeat("=", max(total, len(t.Title))))
	for i, c := range t.Columns {
		fmt.Fprintf(w, "%-*s", widths[i]+2, c)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) {
				fmt.Fprintf(w, "%-*s", widths[i]+2, c)
			}
		}
		fmt.Fprintln(w)
	}
}

// Throughput formats ops/sec compactly (e.g., "1.23M").
func Throughput(opsPerSec float64) string {
	switch {
	case opsPerSec >= 1e6:
		return fmt.Sprintf("%.2fM", opsPerSec/1e6)
	case opsPerSec >= 1e3:
		return fmt.Sprintf("%.1fK", opsPerSec/1e3)
	default:
		return fmt.Sprintf("%.0f", opsPerSec)
	}
}

// OverheadPct returns the percentage by which measured falls short of
// baseline (positive = slower than baseline).
func OverheadPct(baseline, measured float64) float64 {
	if baseline == 0 {
		return 0
	}
	return (baseline - measured) / baseline * 100
}
