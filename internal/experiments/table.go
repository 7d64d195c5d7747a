// Package experiments regenerates every quantitative claim of the paper's
// evaluation and discussion sections, plus the theorem-level claims that
// the epistemic model checker can verify on small systems. Each experiment
// has an identifier (E1–E4, E6, E11–E16, E20) and a generator returning a
// Table; Generators lists them in the order cmd/ebabench prints them.
// E6 is the theorem matrix: one exhaustive system per (context, stack),
// with every theorem-level column read from it; E6LargerCells is its
// larger rows, which only cmd/ebabench prints.
package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"
)

// Table is a rendered experiment: a paper claim, the measured rows, and a
// pass/fail verdict on whether the measured shape matches the claim.
type Table struct {
	// ID is the experiment identifier, e.g. "E1".
	ID string
	// Title is a one-line description.
	Title string
	// Claim quotes the paper's claim being reproduced.
	Claim string
	// Columns names the table columns.
	Columns []string
	// Rows holds the measured data.
	Rows [][]string
	// Pass reports whether the measured shape matches the claim.
	Pass bool
	// Notes carries caveats and observations.
	Notes []string
}

// AddRow appends a row, formatting every cell with fmt.Sprint.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.Rows = append(t.Rows, row)
}

// Verdict renders "PASS" or "FAIL".
func (t *Table) Verdict() string {
	if t.Pass {
		return "PASS"
	}
	return "FAIL"
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s [%s]\n", t.ID, t.Title, t.Verdict())
	fmt.Fprintf(&b, "  paper: %s\n", t.Claim)
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  "+strings.Join(t.Columns, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, "  "+strings.Join(row, "\t"))
	}
	tw.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}
