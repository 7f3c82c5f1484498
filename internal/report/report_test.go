package report

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := Table{
		Title:   "Demo",
		Headers: []string{"name", "value"},
	}
	tb.AddRow("x", 1)
	tb.AddRow("longer-name", 2.5)
	var sb strings.Builder
	tb.Fprint(&sb)
	out := sb.String()
	if !strings.Contains(out, "Demo\n====") {
		t.Fatalf("missing title underline:\n%s", out)
	}
	if !strings.Contains(out, "longer-name") {
		t.Fatalf("missing row:\n%s", out)
	}
	if !strings.Contains(out, "2.50") {
		t.Fatalf("float not formatted:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title, underline, header, separator, two rows.
	if len(lines) != 6 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
}

func TestTableNote(t *testing.T) {
	tb := Table{Headers: []string{"a"}, Note: "hello"}
	tb.AddRow("1")
	var sb strings.Builder
	tb.Fprint(&sb)
	if !strings.Contains(sb.String(), "note: hello") {
		t.Fatalf("missing note:\n%s", sb.String())
	}
}

func TestSeries(t *testing.T) {
	s := Series{Title: "Fig", XLabel: "size", Lines: []string{"a", "b"}}
	s.AddPoint("4KiB", 1.0, 2.0)
	s.AddPoint("8KiB", 3, 4)
	var sb strings.Builder
	s.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"size", "a", "b", "4KiB", "1.00", "3", "Fig"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestLedgerMasksWallColumns(t *testing.T) {
	s := Series{XLabel: "n", Lines: []string{"kops/s", "sim-µs"}, Wall: []string{"kops/s"}}
	s.AddPoint(1, 1234.5, 2.0)
	var plain, masked strings.Builder
	s.Fprint(&plain)
	s.Fprint(Ledger(&masked))
	if !strings.Contains(plain.String(), "1234.50") {
		t.Fatalf("plain output lost the wall-clock cell:\n%s", plain.String())
	}
	want := "  n  kops/s  sim-µs\n  -  ------  ------\n  1  ~       2.00\n\n"
	if masked.String() != want {
		t.Fatalf("ledger output:\n%q\nwant\n%q", masked.String(), want)
	}
}

func TestBytes(t *testing.T) {
	cases := map[int]string{
		100:     "100B",
		1024:    "1KiB",
		4096:    "4KiB",
		1 << 20: "1MiB",
		3 << 20: "3MiB",
		1500:    "1500B",
	}
	for n, want := range cases {
		if got := Bytes(n); got != want {
			t.Errorf("Bytes(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestBool(t *testing.T) {
	if Bool(true) != "yes" || Bool(false) != "no" {
		t.Fatal("Bool broken")
	}
}
