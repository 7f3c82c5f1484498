// Command benchmark is the repository's benchmark: four closed-loop
// workloads over the public API of the stack (cluster, msg, mpi,
// regcache, kagent, mm, via), every payload checked, end-to-end metrics
// from untraced sections and per-layer metrics from a traced run.  See
// README.md in this directory for the protocol and the glossary.
//
//	go run ./benchmark --workload small_pingpong --seed 1 --seconds 30 --trace 0
//	go run ./benchmark -compare a.jsonl b.jsonl
//	go run ./benchmark -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// record is one line of an -out file: a result with what produced it.
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	result
	// BatchSeconds are the timed batches of an untraced run.
	BatchSeconds []float64 `json:"batch_seconds,omitempty"`
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run (default: all four, one after another)")
		seed      = flag.Uint64("seed", 1, "seed of payload bytes and allreduce contributions")
		seconds   = flag.Float64("seconds", defaultSeconds, "run length the batch sizes are scaled to")
		traced    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		traceOut  = flag.String("trace-out", "", "write the benchmark-side spans of a traced run to this file")
		out       = flag.String("out", "", "append each result as a JSON line to this file (input of -compare)")
		compare   = flag.Bool("compare", false, "compare the medians of two -out files: -compare a.jsonl b.jsonl")
		selfcheck = flag.Bool("selfcheck", false, "run each workload twice at 1/20 scale and require exact repeats")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			exit(fmt.Errorf("-compare needs two files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err == nil && !ok {
			err = fmt.Errorf("the two sets of runs disagree")
		}
		exit(err)
	case *selfcheck:
		exit(selfCheck(os.Stdout))
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		exit(fmt.Errorf("-seconds must be positive and -trace 0 or 1"))
	}

	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else if _, ok := findWorkload(*workload); !ok {
		exit(fmt.Errorf("unknown workload %q", *workload))
	}
	var spanFile *os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			exit(err)
		}
		spanFile = f
	}
	allCorrect := true
	for _, name := range names {
		cfg := config{workload: name, seed: *seed, seconds: *seconds, traced: *traced == 1, log: os.Stdout}
		if spanFile != nil {
			cfg.traceOut = spanFile
		}
		res, err := run(cfg)
		if err != nil {
			exit(fmt.Errorf("%s: %w", name, err))
		}
		allCorrect = allCorrect && res.Correct
		printMetrics(os.Stdout, cfg, res)
		if *out != "" {
			rec := record{Workload: name, Seed: *seed, Seconds: *seconds, Traced: cfg.traced, result: *res, BatchSeconds: res.batchSeconds}
			if err := appendRecord(*out, rec); err != nil {
				exit(err)
			}
		}
		// The driver's contract: the last line is the result object.
		line, err := json.Marshal(res)
		if err != nil {
			exit(err)
		}
		fmt.Println(string(line))
	}
	if spanFile != nil {
		if err := spanFile.Close(); err != nil {
			exit(err)
		}
	}
	if !allCorrect {
		os.Exit(1)
	}
}

func exit(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// printMetrics prints every metric of the run by name with its unit, in
// the order of the spec; a per-layer metric is followed by what it
// should move.
func printMetrics(w *os.File, cfg config, res *result) {
	spec := endToEnd
	if cfg.traced {
		spec = perLayer
	}
	fmt.Fprintf(w, "# ops_attempted=%d ops_failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	for _, m := range spec {
		fmt.Fprintf(w, "%-16s %-32s %16.6f %-10s", cfg.workload, m.Name, res.Metrics[m.Name].Value, m.Unit)
		if m.Moves != "" {
			fmt.Fprintf(w, " -> %s", m.Moves)
		}
		fmt.Fprintln(w)
	}
}

func appendRecord(path string, r record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err == nil {
		_, err = f.Write(append(b, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
