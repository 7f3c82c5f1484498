package main

// The benchmark's contract: workloads, end-to-end metrics with their
// bounds, per-layer metrics with the end-to-end metric and workload each
// one should move.  BENCHMARK.json at the repository root repeats the
// names, units, directions and bounds; TestSpecMatchesBenchmarkJSON
// keeps the two equal.  The "moves" column cannot live in
// BENCHMARK.json (its entries carry exactly name/unit/better), so it is
// kept here and printed beside each per-layer metric of a traced run.

// Batches is the number of timed batches per run.  Batch sizes scale
// with -seconds; the batch count never does, so the p90 always has ten
// batches beyond it.
const Batches = 100

// Setups is how many full set-ups an end-to-end run times.
const Setups = 9

// defaultSeconds is run_seconds of BENCHMARK.json: the -seconds the
// driver passes, and the scale the batch sizes below are meant for.
const defaultSeconds = 30

// exactBound is the bound of the simulated-time metrics.  Per-op
// sim-time is a whole number of sim-ns below 1e9, so any change is
// larger than this share: the bound is "identical to the digit".  It is
// not written as 0 so that a strict comparison still accepts two equal
// runs.
const exactBound = 1e-9

// metricSpec describes one metric.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end metrics only
	// Moves names the end-to-end metric and workload a per-layer metric
	// should move (the interaction table).
	Moves string
}

// workloadSpec describes one workload.
type workloadSpec struct {
	Name string
	Why  string
	// RefOpsPerSec is the closed-loop rate measured at the commit that
	// defined the benchmark (GOMAXPROCS=1).  It is a constant, not a
	// run-time calibration: batch size = RefOpsPerSec × seconds ×
	// timedShare / Batches, so the op count is a function of -seconds
	// alone and the simulated metrics repeat exactly.
	RefOpsPerSec float64
	// TraceOpsPerBatch is the size of one batch of the traced section:
	// small enough that the program's trace ring and the benchmark's own
	// span buffer hold every event (trace.dropped == 0).
	TraceOpsPerBatch int
}

// timedShare is the part of -seconds given to the timed section; the
// rest is left for the nine set-ups.
const timedShare = 0.8

var workloads = []workloadSpec{
	{
		Name:             "small_pingpong",
		Why:              "64 B eager round trip: per-message fixed cost in via post/doorbell/completion and msg framing; regcache, kagent and mm idle.",
		RefOpsPerSec:     190000,
		TraceOpsPerBatch: 2000,
	},
	{
		Name:             "bulk_resident",
		Why:              "1 MiB zero-copy send of a resident buffer, unbounded regcache: rendezvous control, RDMA and copying dominate; registration is bypassed (cache hits).",
		RefOpsPerSec:     10000,
		TraceOpsPerBatch: 100,
	},
	{
		Name:             "reg_swapcold",
		Why:              "The paper's scenario: 1 MiB send of swapped-out buffers through an 8-region regcache, so every chunk misses, evicts, re-registers and major-faults.",
		RefOpsPerSec:     1850,
		TraceOpsPerBatch: 100,
	},
	{
		Name:             "allreduce_64",
		Why:              "8-byte allreduce over 64 ranks on 4 nodes (lazy pairs, shared CQs, RDMA-eager rings): mpi log-step logic, CQ polling and goroutine hand-off dominate.",
		RefOpsPerSec:     290,
		TraceOpsPerBatch: 10,
	},
}

// hostBound is the bound of the two host-time metrics, and the largest
// bound the benchmark may carry: a host metric that does not repeat
// within it needs a better estimator or a longer run, not a wider bound.
const hostBound = 0.10

var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: hostBound},
	{Name: "ops_per_s", Unit: "op/s", Better: "higher", Bound: hostBound},
	{Name: "allocs_per_op", Unit: "allocs", Better: "lower", Bound: 0.005},
	{Name: "alloc_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.005},
	{Name: "heap_inuse_MiB", Unit: "MiB", Better: "lower", Bound: 0.05},
	{Name: "sim_us_per_op", Unit: "sim-us/op", Better: "lower", Bound: exactBound},
	{Name: "sim_us_per_op_p99", Unit: "sim-us/op", Better: "lower", Bound: exactBound},
}

var perLayer = []metricSpec{
	{Name: "mpi.allreduce_host_us", Unit: "us", Better: "lower", Moves: "ops_per_s on allreduce_64"},
	{Name: "mpi.allreduce_host_us_p99", Unit: "us", Better: "lower", Moves: "ops_per_s on allreduce_64"},
	{Name: "mpi.rank_skew_us", Unit: "us", Better: "lower", Moves: "ops_per_s on allreduce_64"},
	{Name: "mpi.goroutines", Unit: "count", Better: "lower", Moves: "heap_inuse_MiB, ops_per_s on allreduce_64"},
	{Name: "mpi.pairs", Unit: "count", Better: "lower", Moves: "heap_inuse_MiB, setup_s on allreduce_64"},

	{Name: "msg.send_host_us", Unit: "us", Better: "lower", Moves: "ops_per_s on small_pingpong, bulk_resident"},
	{Name: "msg.send_host_us_p99", Unit: "us", Better: "lower", Moves: "ops_per_s on small_pingpong, bulk_resident"},
	{Name: "msg.recv_host_us", Unit: "us", Better: "lower", Moves: "ops_per_s on small_pingpong, bulk_resident"},
	{Name: "msg.send_sim_us", Unit: "sim-us", Better: "lower", Moves: "sim_us_per_op on bulk_resident, small_pingpong"},
	{Name: "msg.inline_share", Unit: "ratio", Better: "higher", Moves: "ops_per_s, alloc_bytes_per_op on small_pingpong"},
	{Name: "msg.zerocopy_share", Unit: "ratio", Better: "higher", Moves: "sim_us_per_op on bulk_resident, reg_swapcold"},
	{Name: "msg.pipeline_chunks_per_op", Unit: "1/op", Better: "lower", Moves: "sim_us_per_op on bulk_resident; none on allreduce_64"},
	{Name: "msg.fallbacks", Unit: "count", Better: "lower", Moves: "sim_us_per_op on reg_swapcold"},
	{Name: "msg.sim_goodput_MBps", Unit: "MB/sim-s", Better: "higher", Moves: "sim_us_per_op on bulk_resident"},

	{Name: "regcache.hit_ratio", Unit: "ratio", Better: "higher", Moves: "ops_per_s on bulk_resident (hit path); none on small_pingpong"},
	{Name: "regcache.evictions_per_op", Unit: "1/op", Better: "lower", Moves: "ops_per_s on reg_swapcold"},
	{Name: "regcache.failures", Unit: "count", Better: "lower", Moves: "ops_failed on reg_swapcold"},
	{Name: "regcache.acquire_hit_host_ns", Unit: "ns", Better: "lower", Moves: "ops_per_s on bulk_resident"},
	{Name: "regcache.acquire_miss_host_us", Unit: "us", Better: "lower", Moves: "ops_per_s on reg_swapcold"},
	{Name: "regcache.acquire_miss_sim_us", Unit: "sim-us", Better: "lower", Moves: "sim_us_per_op on reg_swapcold"},

	{Name: "kagent.registrations_per_op", Unit: "1/op", Better: "lower", Moves: "ops_per_s, allocs_per_op on reg_swapcold; none on bulk_resident"},
	{Name: "kagent.register_host_us", Unit: "us", Better: "lower", Moves: "ops_per_s on reg_swapcold"},
	{Name: "kagent.deregister_host_us", Unit: "us", Better: "lower", Moves: "ops_per_s on reg_swapcold"},
	{Name: "kagent.register_sim_us", Unit: "sim-us", Better: "lower", Moves: "sim_us_per_op on reg_swapcold"},
	{Name: "kagent.register_cold_sim_us", Unit: "sim-us", Better: "lower", Moves: "sim_us_per_op on reg_swapcold"},
	{Name: "kagent.pin_sim_us", Unit: "sim-us", Better: "lower", Moves: "sim_us_per_op on reg_swapcold"},
	{Name: "kagent.tpt_sim_us", Unit: "sim-us", Better: "lower", Moves: "sim_us_per_op on reg_swapcold"},

	{Name: "mm.major_faults_per_op", Unit: "1/op", Better: "lower", Moves: "ops_per_s, sim_us_per_op on reg_swapcold only"},
	{Name: "mm.swap_ins_per_op", Unit: "1/op", Better: "lower", Moves: "sim_us_per_op on reg_swapcold only"},
	{Name: "mm.swap_outs_per_op", Unit: "1/op", Better: "lower", Moves: "sim_us_per_op on reg_swapcold only"},
	{Name: "mm.clock_scans_per_op", Unit: "1/op", Better: "lower", Moves: "ops_per_s on reg_swapcold only"},
	{Name: "mm.swapout_host_us", Unit: "us", Better: "lower", Moves: "ops_per_s on reg_swapcold only"},
	{Name: "mm.swapout_sim_us", Unit: "sim-us", Better: "lower", Moves: "sim_us_per_op on reg_swapcold only"},
	{Name: "mm.touch_host_ns_per_page", Unit: "ns/page", Better: "lower", Moves: "ops_per_s on reg_swapcold only"},

	{Name: "via.sends_per_op", Unit: "1/op", Better: "lower", Moves: "ops_per_s on small_pingpong, allreduce_64"},
	{Name: "via.rdma_writes_per_op", Unit: "1/op", Better: "lower", Moves: "sim_us_per_op on bulk_resident; ops_per_s on allreduce_64"},
	{Name: "via.doorbells_per_op", Unit: "1/op", Better: "lower", Moves: "sim_us_per_op, ops_per_s on small_pingpong, allreduce_64"},
	{Name: "via.inline_share", Unit: "ratio", Better: "higher", Moves: "ops_per_s on small_pingpong"},
	{Name: "via.bytes_tx_per_op", Unit: "B/op", Better: "lower", Moves: "sim_us_per_op on bulk_resident"},
	{Name: "via.post_to_complete_host_ns", Unit: "ns", Better: "lower", Moves: "ops_per_s on small_pingpong, allreduce_64"},
	{Name: "via.dma_sim_us_per_op", Unit: "sim-us/op", Better: "lower", Moves: "sim_us_per_op on bulk_resident"},
	{Name: "via.wire_sim_us_per_op", Unit: "sim-us/op", Better: "lower", Moves: "sim_us_per_op on bulk_resident, small_pingpong"},
	{Name: "via.scatter_sim_us_per_op", Unit: "sim-us/op", Better: "lower", Moves: "sim_us_per_op on bulk_resident"},
	{Name: "via.cq_drained_per_op", Unit: "1/op", Better: "lower", Moves: "ops_per_s on allreduce_64"},
	{Name: "via.cq_poller_parks_per_op", Unit: "1/op", Better: "lower", Moves: "ops_per_s on allreduce_64"},
	{Name: "via.faults", Unit: "count", Better: "lower", Moves: "ops_failed on every workload"},
	{Name: "via.recv_underflows", Unit: "count", Better: "lower", Moves: "ops_failed on every workload"},

	{Name: "cluster.build_host_ms", Unit: "ms", Better: "lower", Moves: "setup_s on every workload"},
	{Name: "cluster.warmup_host_ms", Unit: "ms", Better: "lower", Moves: "setup_s on every workload"},

	{Name: "host.gc_cycles_per_kop", Unit: "1/kop", Better: "lower", Moves: "ops_per_s wherever alloc_bytes_per_op moves"},
	{Name: "host.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s wherever alloc_bytes_per_op moves"},
	{Name: "host.goroutines_peak", Unit: "count", Better: "lower", Moves: "heap_inuse_MiB on allreduce_64"},

	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Moves: "none (cost of leaving observers attached)"},
	{Name: "trace.dropped", Unit: "count", Better: "lower", Moves: "none (must stay 0)"},
	{Name: "trace.unattributed_sim_share", Unit: "ratio", Better: "lower", Moves: "none (reported, not gated)"},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
