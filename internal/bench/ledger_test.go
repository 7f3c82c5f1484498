package bench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/leakcheck"
	"repro/internal/race"
	"repro/internal/report"
)

var update = flag.Bool("update", false, "rewrite testdata/<table>.golden from this run")

// unstable lists the simulated cells that move between runs of one
// binary, plain or -race: goroutine scheduling on the shared virtual
// clock decides them (DESIGN.md §9).  An entry names a table, the
// start of one of its report titles, a row by its first cell ("*" for
// every row), the columns, and the ROADMAP item that removes it.  The
// list may only shrink.
var unstable = []struct {
	table, title, row string
	cols              []string
	item              string
}{
	{"mpi", "E14:", "*", []string{"latency µs", "bandwidth MB/s"}, "item 3"},
	{"smallmsg", "E24b:", "*", []string{"CQ wakeups/op"}, "item 3"},
	{"multirail", "E22a:", "2", []string{"sim-µs/xfer", "agg-MB/s", "speedup"}, "item 3"},
	{"multirail", "E22a:", "4", []string{"sim-µs/xfer", "agg-MB/s", "speedup"}, "item 3"},
	{"multirail", "E22b:", "pooled", []string{"hit %"}, "item 3"},
	{"multirail", "E22c:", "10000", []string{"healthy µs/xfer", "failover µs/xfer", "overhead µs"}, "item 3"},
	{"chaos", "E17:", "tpt", []string{"flushed"}, "item 3"},
	{"chaos", "E17:", "lane", []string{"flushed"}, "item 3"},
	{"chaos", "E17:", "nopin", []string{"injected", "io-faults", "repairs"}, "item 3"},
	{"chaos", "E17:", "mpi", []string{"ok", "nic-retries", "faults", "vi-err", "flushed"}, "item 3"},
	{"chaos", "E17:", "stripe", []string{"ok", "flushed"}, "item 3"},
	{"chaos", "E17:", "batch", []string{"ok", "loud", "injected", "faults", "vi-err", "flushed"}, "item 3"},
}

// TestLedgerGolden runs every table in Tables and compares its output
// with testdata/<name>.golden: every cell exactly, except the columns
// report marks as wall-clock (printed as "~") and the unstable cells
// above.  Run with -update to rewrite the goldens after a deliberate
// change to the model; a file whose cells all still match is left as
// it is.
func TestLedgerGolden(t *testing.T) {
	names := map[string]bool{}
	for _, tb := range Tables {
		names[tb.Name] = true
	}
	goldens, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldens {
		if name := strings.TrimSuffix(filepath.Base(g), ".golden"); !names[name] {
			t.Errorf("%s belongs to no table in Tables", g)
		}
	}
	used := make([]bool, len(unstable))
	ran := map[string]bool{}
	base := leakcheck.Snapshot()
	for _, tb := range Tables {
		t.Run(tb.Name, func(t *testing.T) {
			if tb.Name == "e21" && race.Enabled {
				t.Skip("the 1024-rank sweeps take minutes under the race detector")
			}
			// Each table starts from the same goroutine count (base plus
			// this subtest's own): E21 prints it, and a table must not
			// leave goroutines behind.
			if err := leakcheck.Verify(base+1, 0); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := tb.Run(report.Ledger(&buf)); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tb.Name+".golden")
			want, err := os.ReadFile(path)
			if err != nil && !*update {
				t.Fatalf("%v (run go test ./internal/bench -run TestLedgerGolden -update to create it)", err)
			}
			ran[tb.Name] = true
			got, wantLines := canon(tb.Name, buf.String(), used), canon(tb.Name, string(want), nil)
			diffs := lineDiffs(got, wantLines)
			if *update && len(diffs) > 0 {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			for _, d := range diffs {
				t.Error(d)
			}
		})
	}
	for i, u := range unstable {
		if ran[u.table] && !used[i] {
			t.Errorf("unstable entry %+v matches no cell; remove it", u)
		}
	}
}

// canon renders a table's output one string per line for comparison.
// A table row becomes its trimmed cells joined by " | ", so padding does
// not count and an unstable cell may change width; the unstable cells
// read "~".  used, if set, records which unstable entries matched.
func canon(table, text string, used []bool) []string {
	lines := strings.Split(text, "\n")
	var out []string
	var title string
	var cols []int // rune offset of each column of the table being read
	var headers []string
	for i, l := range lines {
		if i+1 < len(lines) && l != "" && lines[i+1] == strings.Repeat("=", len(l)) {
			title = l
		}
		if cols == nil && i+1 < len(lines) && isSeparator(lines[i+1]) {
			cols = columnStarts(lines[i+1])
			headers = splitCells(l, cols)
			out = append(out, strings.Join(headers, " | "))
			continue
		}
		if cols != nil && isSeparator(l) {
			continue
		}
		if cols == nil || l == "" || strings.HasPrefix(l, "  note: ") {
			cols = nil
			out = append(out, l)
			continue
		}
		cells := splitCells(l, cols)
		for c := range cells {
			for u, e := range unstable {
				if e.table == table && strings.HasPrefix(title, e.title) &&
					(e.row == "*" || e.row == cells[0]) && c < len(headers) && slices.Contains(e.cols, headers[c]) {
					cells[c] = "~"
					if used != nil {
						used[u] = true
					}
				}
			}
		}
		out = append(out, strings.Join(cells, " | "))
	}
	return out
}

// isSeparator reports whether l is a table's dashed header rule.
func isSeparator(l string) bool {
	s := strings.TrimSpace(l)
	return strings.HasPrefix(l, "  -") && strings.Trim(s, "- ") == ""
}

// columnStarts returns the rune offset at which each dash run of a
// header rule starts.
func columnStarts(sep string) []int {
	var starts []int
	prev := ' '
	for i, r := range []rune(sep) {
		if r == '-' && prev == ' ' {
			starts = append(starts, i)
		}
		prev = r
	}
	return starts
}

// splitCells cuts a table line at the column offsets.
func splitCells(l string, cols []int) []string {
	rs := []rune(l)
	cells := make([]string, len(cols))
	for c, start := range cols {
		end := len(rs)
		if c+1 < len(cols) {
			end = min(cols[c+1], len(rs))
		}
		if start < end {
			cells[c] = strings.TrimSpace(string(rs[start:end]))
		}
	}
	return cells
}

// lineDiffs describes the first lines where got and want differ.
func lineDiffs(got, want []string) []string {
	var diffs []string
	for i := 0; i < max(len(got), len(want)) && len(diffs) < 10; i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			diffs = append(diffs, fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, g, w))
		}
	}
	return diffs
}
