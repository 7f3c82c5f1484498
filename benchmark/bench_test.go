package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"

	"repro/internal/simtime"
)

// tiny is a run small enough for go test: a handful of ops per batch,
// one set-up.
func tiny(workload string, traced bool) config {
	return config{workload: workload, seed: 1, seconds: 0.02, traced: traced, batches: 4, setups: 1}
}

// benchmarkJSON is the part of ../BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSpecMatchesBenchmarkJSON keeps the Go tables and BENCHMARK.json
// equal: same names in the same order, same units, directions, bounds.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.Name)
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, spec %q / %q", i, b.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, spec has %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		name(m.Name)
		j := b.EndToEnd[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better || j.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, spec %+v", i, j, m)
		}
		// No bound above 0.10, none above set-up time's.
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.10 || m.Bound > endToEnd[0].Bound {
			t.Errorf("end-to-end %s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, spec has %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		name(m.Name)
		j := b.PerLayer[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, spec %+v", i, j, m)
		}
		if !unitRE.MatchString(m.Unit) || m.Moves == "" {
			t.Errorf("per-layer %s: unit %q moves %q", m.Name, m.Unit, m.Moves)
		}
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, want %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
}

// TestOutputNames runs every workload in both modes at a tiny scale:
// the metrics printed are exactly the ones the contract lists, every op
// passes its check and every workload assertion holds.
func TestOutputNames(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := tiny(w.Name, traced)
			if !traced {
				cfg.setups = 2 // setup_s is the fastest of several: time more than one
			}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			spec := endToEnd
			if traced {
				spec = perLayer
			}
			if len(res.Metrics) != len(spec) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(spec))
			}
			for _, m := range spec {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want unit %q", w.Name, traced, m.Name, v, ok, m.Unit)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d violations=%v",
					w.Name, traced, res.Correct, res.Failed, res.Attempted, res.violations)
			}
			if !traced {
				for _, m := range endToEnd {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.Name, m.Name, res.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

// TestTracedRunWritesSpans checks the span file: every span closed, on
// both clocks, with a parent that is an op span.
func TestTracedRunWritesSpans(t *testing.T) {
	cfg := tiny("bulk_resident", true)
	var out bytes.Buffer
	cfg.traceOut = &out
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var spans []struct {
		ID, Parent int
		Name       string
		Start      int64 `json:"host_start_ns"`
		End        int64 `json:"host_end_ns"`
		SimStart   int64 `json:"sim_start_ns"`
		SimEnd     int64 `json:"sim_end_ns"`
	}
	if err := json.Unmarshal(out.Bytes(), &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans written")
	}
	for _, s := range spans {
		if s.End < s.Start || s.SimEnd < s.SimStart {
			t.Fatalf("span %+v runs backwards", s)
		}
		if s.Name == "op" != (s.Parent == -1) {
			t.Fatalf("span %+v: only op spans are roots", s)
		}
		if s.Parent >= 0 && spans[s.Parent].Name != "op" {
			t.Fatalf("span %+v: parent is %q", s, spans[s.Parent].Name)
		}
	}
	if d := res.Metrics["trace.dropped"].Value; d != 0 {
		t.Errorf("trace.dropped = %v", d)
	}
	if r := res.Metrics["trace.overhead_ratio"].Value; r <= 0 {
		t.Errorf("trace.overhead_ratio = %v", r)
	}
}

// TestCorruptedPayloadCounts flips one bit of what each workload reads
// back, on one op in three: those ops, and only those, are counted in
// failed.
func TestCorruptedPayloadCounts(t *testing.T) {
	for _, w := range workloads {
		cfg := tiny(w.Name, false)
		checks := 0
		// The check of one op may read several words (one per chunk, one
		// per rank): corrupt every word of every third op.
		perOp := map[string]int{"small_pingpong": 1, "bulk_resident": bulkBytes / bulkChunk,
			"reg_swapcold": bulkBytes / bulkChunk, "allreduce_64": allreduceRanks}[w.Name]
		cfg.tamper = func(b []byte) {
			if (checks/perOp)%3 == 0 {
				b[0] ^= 1
			}
			checks++
		}
		res, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		want := (res.Attempted + 2) / 3
		if res.Failed != want || res.Correct {
			t.Errorf("%s: failed=%d of %d correct=%v, want %d failed", w.Name, res.Failed, res.Attempted, res.Correct, want)
		}
	}
}

// TestSeedChangesPayloadNotCounts: another seed gives other bytes and
// other contributions, the same number of ops and the same simulated
// time.
func TestSeedChangesPayloadNotCounts(t *testing.T) {
	var a, b [pingBytes]byte
	fillPayload(a[:], 1, 7)
	fillPayload(b[:], 2, 7)
	if a == b {
		t.Error("seeds 1 and 2 give the same payload for op 7")
	}
	fillPayload(b[:], 1, 7)
	if a != b {
		t.Error("the same seed and op give different payloads")
	}
	fillPayload(b[:], 1, 8)
	if a == b {
		t.Error("ops 7 and 8 share a payload")
	}
	for _, w := range []string{"small_pingpong", "allreduce_64"} {
		c1, c2 := tiny(w, false), tiny(w, false)
		c2.seed = 99
		r1, err := run(c1)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := run(c2)
		if err != nil {
			t.Fatal(err)
		}
		if d := repeatDiffs(r1, r2); len(d) != 0 || !r2.Correct {
			t.Errorf("%s: seeds 1 and 99 differ in %v (correct=%v)", w, d, r2.Correct)
		}
	}
}

func TestEstimators(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v", got)
	}
	// One lucky batch and a slow tail (a neighbour took the box for a
	// third of the run) must not move the p90 rate out of the full-speed
	// batches.
	rates := make([]float64, 100)
	for i := range rates {
		rates[(i*37)%100] = 1000 + float64(i%5)
	}
	for i := 0; i < 30; i++ {
		rates[i] /= 3
	}
	rates[99] = 1e9
	if got := quantile(rates, 0.90); got < 1000 || got > 1004 {
		t.Errorf("p90 rate with a slow third and an outlier = %v, want 1000..1004", got)
	}
	if got := quantile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.90); got != 9 {
		t.Errorf("p90 of 1..10 = %v, want 9", got)
	}
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2 {
		t.Errorf("nearest-rank median of 4 = %v", got)
	}
	if got := fastest([]float64{0.41, 0.32, 0.48, 0.306, 0.33, 0.35, 0.36, 0.31, 0.4}); got != 0.306 {
		t.Errorf("fastest of nine = %v", got)
	}

	h := newSimHist()
	for i := 0; i < 990; i++ {
		h.add(10 * simtime.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.add(20 * simtime.Microsecond)
	}
	if h.quantile(0.5) != 10*simtime.Microsecond || h.quantile(0.99) != 10*simtime.Microsecond || h.quantile(0.991) != 20*simtime.Microsecond {
		t.Errorf("simHist quantiles %v %v %v", h.quantile(0.5), h.quantile(0.99), h.quantile(0.991))
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{name: spOp, parent: -1, h0: 0, h1: 100},
		{name: spSend, parent: 0, h0: 10, h1: 40},
		{name: spPeerRecv, parent: 0, h0: 20, h1: 60}, // another goroutine: overlaps the send
		{name: spVerify, parent: 0, h0: 70, h1: 90},
	}
	rows := summarize(spans)
	// Children cover [10,60) and [70,90): 30 ns of the op are its own.
	if len(rows) != 4 || rows[0].Name != "op" || rows[0].SelfHostUS != 0.03 || rows[0].HostUS != 0.1 {
		t.Errorf("summarize = %+v", rows)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ops, sim float64, failed int) string {
		path := dir + "/" + name
		for i := 0; i < 3; i++ {
			r := record{Workload: "small_pingpong", Seed: uint64(i), Seconds: 20, result: result{
				Correct: failed == 0, Attempted: 1000, Failed: failed,
				Metrics: map[string]value{
					"ops_per_s":     {ops + float64(i), "op/s"},
					"sim_us_per_op": {sim, "sim-us/op"},
				}}}
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a", 1000, 17.728, 0)
	for _, c := range []struct {
		name   string
		ops    float64
		sim    float64
		failed int
		ok     bool
	}{
		{"same", 1000, 17.728, 0, true},
		{"faster", 1500, 17.728, 0, true},
		{"within", 900, 17.728, 0, true},
		{"slower", 800, 17.728, 0, false},
		{"simdiff", 1000, 17.729, 0, false},
		{"simbetter", 1000, 17.727, 0, false},
		{"fails", 1000, 17.728, 1, false},
	} {
		ok, err := compareFiles(io.Discard, base, write(c.name, c.ops, c.sim, c.failed))
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok {
			t.Errorf("compare %s: ok=%v, want %v", c.name, ok, c.ok)
		}
	}
}
