// Command viabench regenerates the evaluation's tables and figures as
// parameter sweeps over the simulated stack, each at fixed sizes.
//
// Usage:
//
//	viabench [-table=all|<name>] [-trace=out.json] [-metrics]
//
// viabench -h lists the tables.  The obs table (E18, the observability
// layer's latency decomposition) accepts two extra flags: -trace=out.json
// exports its event trace as Chrome trace_event JSON (load in
// chrome://tracing or Perfetto), and -metrics dumps the full metrics
// registry after the table.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	var names []string
	for _, t := range bench.Tables {
		names = append(names, fmt.Sprintf("%s (%s)", t.Name, t.Exps))
	}
	choices := "all, or one of: " + strings.Join(names, ", ")
	table := flag.String("table", "all", "which table to regenerate: "+choices)
	tracePath := flag.String("trace", "", "obs: write Chrome trace_event JSON to this file")
	metricsDump := flag.Bool("metrics", false, "obs: dump the metrics registry after the table")
	flag.Parse()

	var run []bench.Table
	for _, t := range bench.Tables {
		if *table == "all" || *table == t.Name {
			run = append(run, t)
		}
	}
	if len(run) == 0 {
		fmt.Fprintf(os.Stderr, "viabench: unknown table %q; choose %s\n", *table, choices)
		os.Exit(2)
	}
	for _, t := range run {
		if t.Name == "obs" {
			var mw io.Writer
			if *metricsDump {
				mw = os.Stdout
			}
			t.Run = func(w io.Writer) error { return bench.ObsRun(w, *tracePath, mw) }
		}
		if err := t.Run(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "viabench %s: %v\n", t.Name, err)
			os.Exit(1)
		}
	}
}
