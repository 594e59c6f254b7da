// Package experiments regenerates every table, figure and measured result
// of the paper. Each experiment returns a Result whose rows mirror what the
// paper reports; the package's tests run them and print each table
// (go test -v ./internal/experiments). EXPERIMENTS.md records paper-claim
// versus measured shape.
package experiments

import (
	"fmt"
	"strings"
)

// Result is one experiment's reproducible output.
type Result struct {
	// ID is the experiment identifier from DESIGN.md (T1, F1..F3, E1..E8).
	ID    string
	Title string
	// Header and Rows form the paper-style table.
	Header []string
	Rows   [][]string
	// Notes carry the expected shape and any caveats.
	Notes []string
}

// AddRow appends a formatted row.
func (r *Result) AddRow(cells ...string) {
	r.Rows = append(r.Rows, cells)
}

// String renders an aligned text table.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %s\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
