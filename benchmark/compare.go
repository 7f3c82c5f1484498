package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// readRecords reads an -out file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// runSet is the runs of one workload in one file.
type runSet struct {
	values            map[string][]float64
	attempted, failed int
}

func group(recs []record) map[string]*runSet {
	sets := make(map[string]*runSet)
	for _, r := range recs {
		s := sets[r.Workload]
		if s == nil {
			s = &runSet{values: make(map[string][]float64)}
			sets[r.Workload] = s
		}
		s.attempted += r.Attempted
		s.failed += r.Failed
		for name, v := range r.Metrics {
			s.values[name] = append(s.values[name], v.Value)
		}
	}
	return sets
}

// worseBy is how much worse b is than a, as a share of a, in the
// metric's own direction (negative when b is better).
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		d = -d
	}
	return d
}

// compareFiles prints, per workload and end-to-end metric, the median of
// each file, the relative difference and the bound.  It reports false if
// b is worse than a by more than a bound, if a simulated metric differs
// at all, or if b failed a larger share of its ops.  Per-layer metrics
// are printed without a verdict: they have no bound.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	ra, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	rb, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	sa, sb := group(ra), group(rb)
	ok := true
	fmt.Fprintf(w, "%-16s %-28s %16s %16s %10s %8s  %s\n", "workload", "metric", "a (median)", "b (median)", "b worse", "bound", "verdict")
	for _, wl := range workloads {
		a, b := sa[wl.Name], sb[wl.Name]
		if a == nil || b == nil {
			if a != b {
				fmt.Fprintf(w, "%-16s present in only one file\n", wl.Name)
				ok = false
			}
			continue
		}
		for _, specs := range [][]metricSpec{endToEnd, perLayer} {
			for _, m := range specs {
				va, vb := a.values[m.Name], b.values[m.Name]
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				ma, mb := median(va), median(vb)
				d := worseBy(ma, mb, m.Better)
				verdict, bound := "", "-"
				if m.Bound > 0 {
					bound = fmt.Sprintf("%.3g", m.Bound)
					verdict = "ok"
					exact := strings.HasPrefix(m.Name, "sim_")
					if (exact && ma != mb) || d > m.Bound {
						verdict = "BREACH"
						ok = false
					}
				}
				fmt.Fprintf(w, "%-16s %-28s %16.6f %16.6f %+9.3f%% %8s  %s\n", wl.Name, m.Name, ma, mb, 100*d, bound, verdict)
			}
		}
		fa, fb := ratio(uint64(a.failed), uint64(a.attempted)), ratio(uint64(b.failed), uint64(b.attempted))
		verdict := "ok"
		if fb > fa {
			verdict = "BREACH"
			ok = false
		}
		fmt.Fprintf(w, "%-16s %-28s %9d/%-9d %9d/%-9d %27s\n", wl.Name, "ops_failed/ops_attempted", a.failed, a.attempted, b.failed, b.attempted, verdict)
	}
	return ok, nil
}

// selfCheck runs every workload twice in each mode at 1/20 of the
// default scale, in this process, and requires everything that depends
// only on the op sequence to repeat exactly: the simulated metrics, the
// per-op layer counts, the op counts and the workload assertions.
func selfCheck(w io.Writer) error {
	bad := 0
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			var first *result
			for rep := 0; rep < 2; rep++ {
				res, err := run(config{workload: wl.Name, seed: 1, seconds: defaultSeconds / 20, traced: traced, setups: 2})
				if err != nil {
					return fmt.Errorf("%s: %w", wl.Name, err)
				}
				for _, v := range res.violations {
					fmt.Fprintf(w, "FAIL %s traced=%v: %s\n", wl.Name, traced, v)
					bad++
				}
				if res.Failed != 0 {
					fmt.Fprintf(w, "FAIL %s traced=%v: %d of %d ops failed\n", wl.Name, traced, res.Failed, res.Attempted)
					bad++
				}
				if first == nil {
					first = res
					continue
				}
				for _, d := range repeatDiffs(first, res) {
					fmt.Fprintf(w, "FAIL %s traced=%v: %s\n", wl.Name, traced, d)
					bad++
				}
			}
			fmt.Fprintf(w, "ok   %s traced=%v: %d ops, %d exact values repeat\n", wl.Name, traced, first.Attempted, len(first.counts)+2)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d failures", bad)
	}
	return nil
}

// repeatDiffs lists what differs between two runs of the same code and
// seed among the values that must repeat exactly.
func repeatDiffs(a, b *result) []string {
	var out []string
	if a.Attempted != b.Attempted {
		out = append(out, fmt.Sprintf("ops_attempted %d vs %d", a.Attempted, b.Attempted))
	}
	for _, name := range []string{"sim_us_per_op", "sim_us_per_op_p99"} {
		va, okA := a.Metrics[name]
		vb, okB := b.Metrics[name]
		if okA != okB || va.Value != vb.Value {
			out = append(out, fmt.Sprintf("%s %v vs %v", name, va.Value, vb.Value))
		}
	}
	for name, va := range a.counts {
		if vb := b.counts[name]; va != vb {
			out = append(out, fmt.Sprintf("%s %v vs %v", name, va, vb))
		}
	}
	return out
}
