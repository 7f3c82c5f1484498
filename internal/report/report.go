// Package report renders the experiments' tables and series as aligned
// plain text, the way viabench prints them.
package report

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"unicode/utf8"
)

// Table is a titled grid of cells.
type Table struct {
	Title   string
	Note    string
	Headers []string
	Rows    [][]string
	// Wall names the columns measured on the host's clock.  Every other
	// cell is simulated or counted and repeats exactly from run to run.
	Wall []string
}

// Ledger wraps w so that the tables printed to it show "~" in their Wall
// columns: the form in which the golden files pin every other cell.
func Ledger(w io.Writer) io.Writer { return ledger{w} }

type ledger struct{ io.Writer }

// AddRow appends one row, stringifying each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint writes the table, columns padded to their widest cell.
func (t *Table) Fprint(w io.Writer) {
	rows := t.Rows
	if _, ok := w.(ledger); ok && len(t.Wall) > 0 {
		rows = t.maskWall()
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n%s\n", t.Title, strings.Repeat("=", len(t.Title)))
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if w := utf8.RuneCountInString(cell); i < len(widths) && w > widths[i] {
				widths[i] = w
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, " ", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range rows {
		printRow(row)
	}
	if t.Note != "" {
		fmt.Fprintf(w, "  note: %s\n", t.Note)
	}
	fmt.Fprintln(w)
}

// maskWall returns the rows with every Wall column's cells set to "~".
func (t *Table) maskWall() [][]string {
	rows := make([][]string, len(t.Rows))
	for r, row := range t.Rows {
		rows[r] = append([]string(nil), row...)
		for i := range row {
			if i < len(t.Headers) && slices.Contains(t.Wall, t.Headers[i]) {
				rows[r][i] = "~"
			}
		}
	}
	return rows
}

func pad(s string, w int) string {
	n := utf8.RuneCountInString(s)
	if n >= w {
		return s
	}
	return s + strings.Repeat(" ", w-n)
}

// Series is a figure rendered as a table: one X column plus one column
// per line.
type Series struct {
	Title  string
	Note   string
	XLabel string
	Lines  []string
	Wall   []string // the Lines measured on the host's clock, as Table.Wall
	rows   []seriesRow
}

type seriesRow struct {
	x  string
	ys []string
}

// AddPoint appends one X position with one Y value per line.
func (s *Series) AddPoint(x any, ys ...any) {
	r := seriesRow{x: fmt.Sprint(x), ys: make([]string, len(ys))}
	for i, y := range ys {
		switch v := y.(type) {
		case float64:
			r.ys[i] = fmt.Sprintf("%.2f", v)
		default:
			r.ys[i] = fmt.Sprint(v)
		}
	}
	s.rows = append(s.rows, r)
}

// Fprint renders the series as an aligned table.
func (s *Series) Fprint(w io.Writer) {
	t := Table{Title: s.Title, Note: s.Note, Headers: append([]string{s.XLabel}, s.Lines...), Wall: s.Wall}
	for _, r := range s.rows {
		t.Rows = append(t.Rows, append([]string{r.x}, r.ys...))
	}
	t.Fprint(w)
}

// Bytes pretty-prints a byte count (1 KiB granularity, power of two).
func Bytes(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Bool prints yes/no, the house style for property matrices.
func Bool(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
