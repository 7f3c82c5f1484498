package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestObsGolden pins the E18 report byte-for-byte, padding included:
// the scenario runs entirely in virtual time and has no wall-clock
// column, so any drift means the instrumentation (or the simulated cost
// model underneath it) changed.  Regenerate testdata/obs.golden
// deliberately with go test ./internal/bench -run TestLedgerGolden/obs
// -update.
func TestObsGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := Obs(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "obs.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("obs report drifted from golden file.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestObsDeterministic runs the scenario twice and demands identical
// output — the property the golden test depends on.
func TestObsDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := Obs(&a); err != nil {
		t.Fatal(err)
	}
	if err := Obs(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("obs report differs between identical runs")
	}
}

// TestObsRunExports checks the optional side outputs: the Chrome trace
// file parses as trace_event JSON with events from every instrumented
// subsystem, and the metrics dump carries the registry's instruments.
func TestObsRunExports(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	var tables, metricsOut bytes.Buffer
	if err := ObsRun(&tables, tracePath, &metricsOut); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Cat string `json:"cat"`
			Ph  string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace export is empty")
	}
	cats := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		cats[ev.Cat] = true
	}
	for _, want := range []string{"kagent", "regcache", "via"} {
		if !cats[want] {
			t.Errorf("trace has no %q events (got %v)", want, cats)
		}
	}
	for _, want := range []string{"kagent.reg.total.simns", "regcache.hits", "via.desc.send.simns"} {
		if !strings.Contains(metricsOut.String(), want) {
			t.Errorf("metrics dump missing %q", want)
		}
	}
}
