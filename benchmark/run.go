package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/metrics"
	"repro/internal/mm"
	"repro/internal/msg"
	"repro/internal/regcache"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/via"
)

// config is one run.
type config struct {
	workload string
	seed     uint64
	// seconds scales the batch sizes (a float so that tests and
	// -selfcheck can run a fraction of a second's worth of ops).
	seconds float64
	traced  bool
	// batches and setups default to Batches and Setups; tests shrink
	// them.
	batches int
	setups  int
	// traceOut receives the benchmark-side spans of a traced run.
	traceOut io.Writer
	// log receives the human-readable lines.
	log io.Writer
	// tamper is the test hook handed to the world.
	tamper func([]byte)
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports.  The first four fields are the
// driver's contract (the last line of standard output).
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	// counts are the per-op layer counters and the assertion inputs,
	// taken in both modes; -selfcheck requires them to repeat exactly.
	counts map[string]float64
	// violations lists the workload assertions that did not hold.
	violations []string
	// batchSeconds are the timed batches of an untraced run.
	batchSeconds []float64
}

// batchOps is the size of one timed batch.
func batchOps(w workloadSpec, seconds float64) int {
	n := int(w.RefOpsPerSec*seconds*timedShare/Batches + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// counters is a snapshot of every layer's public Stats.
type counters struct {
	msg   msg.Stats
	cache regcache.Stats
	mm    mm.Stats
	nic   via.Stats
	mux   via.CQMuxStats
}

func snapshot(w *world) counters {
	var c counters
	for _, e := range w.eps {
		s := e.Stats()
		c.msg.SentMsgs += s.SentMsgs
		c.msg.InlineSends += s.InlineSends
		c.msg.ZeroCopies += s.ZeroCopies
		c.msg.PipelineChunks += s.PipelineChunks
		c.msg.PipelineFallbacks += s.PipelineFallbacks
		c.msg.RemapFallbacks += s.RemapFallbacks
		addCache(&c.cache, e.Cache().Stats())
	}
	if w.mpi != nil {
		addCache(&c.cache, w.mpi.CacheStats())
	}
	for _, r := range w.ranks {
		if m := r.Mux(); m != nil {
			s := m.Stats()
			c.mux.Drained += s.Drained
			c.mux.PollerParks += s.PollerParks
		}
	}
	for _, n := range w.cl.Nodes {
		k := n.Kernel.Stats()
		c.mm.MajorFaults += k.MajorFaults
		c.mm.SwapIns += k.SwapIns
		c.mm.SwapOuts += k.SwapOuts
		c.mm.ClockScans += k.ClockScans
		s := n.NIC.Stats()
		c.nic.Sends += s.Sends
		c.nic.RDMAWrites += s.RDMAWrites
		c.nic.Doorbells += s.Doorbells
		c.nic.InlineSends += s.InlineSends
		c.nic.BytesTX += s.BytesTX
		c.nic.Faults += s.Faults
		c.nic.RecvUnderflows += s.RecvUnderflows
	}
	return c
}

func addCache(t *regcache.Stats, s regcache.Stats) {
	t.Hits += s.Hits
	t.Misses += s.Misses
	t.Evictions += s.Evictions
	t.Failures += s.Failures
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerCounts turns two snapshots into the per-op count metrics.
func layerCounts(a, b counters, ops int) map[string]float64 {
	n := float64(ops)
	sent := b.msg.SentMsgs - a.msg.SentMsgs
	sends := b.nic.Sends - a.nic.Sends
	lookups := (b.cache.Hits - a.cache.Hits) + (b.cache.Misses - a.cache.Misses)
	return map[string]float64{
		"msg.inline_share":           ratio(b.msg.InlineSends-a.msg.InlineSends, sent),
		"msg.zerocopy_share":         ratio(b.msg.ZeroCopies-a.msg.ZeroCopies, sent),
		"msg.pipeline_chunks_per_op": float64(b.msg.PipelineChunks-a.msg.PipelineChunks) / n,
		"msg.fallbacks": float64((b.msg.PipelineFallbacks - a.msg.PipelineFallbacks) +
			(b.msg.RemapFallbacks - a.msg.RemapFallbacks)),
		"regcache.hit_ratio":         ratio(b.cache.Hits-a.cache.Hits, lookups),
		"regcache.evictions_per_op":  float64(b.cache.Evictions-a.cache.Evictions) / n,
		"regcache.failures":          float64(b.cache.Failures - a.cache.Failures),
		"mm.major_faults_per_op":     float64(b.mm.MajorFaults-a.mm.MajorFaults) / n,
		"mm.swap_ins_per_op":         float64(b.mm.SwapIns-a.mm.SwapIns) / n,
		"mm.swap_outs_per_op":        float64(b.mm.SwapOuts-a.mm.SwapOuts) / n,
		"mm.clock_scans_per_op":      float64(b.mm.ClockScans-a.mm.ClockScans) / n,
		"via.sends_per_op":           float64(sends) / n,
		"via.rdma_writes_per_op":     float64(b.nic.RDMAWrites-a.nic.RDMAWrites) / n,
		"via.doorbells_per_op":       float64(b.nic.Doorbells-a.nic.Doorbells) / n,
		"via.inline_share":           ratio(b.nic.InlineSends-a.nic.InlineSends, sends),
		"via.bytes_tx_per_op":        float64(b.nic.BytesTX-a.nic.BytesTX) / n,
		"via.cq_drained_per_op":      float64(b.mux.Drained-a.mux.Drained) / n,
		"via.cq_poller_parks_per_op": float64(b.mux.PollerParks-a.mux.PollerParks) / n,
		"via.faults":                 float64(b.nic.Faults - a.nic.Faults),
		"via.recv_underflows":        float64(b.nic.RecvUnderflows - a.nic.RecvUnderflows),
	}
}

// exactCounts are the layer counts that depend only on the op sequence.
// CQ drains and poller parks depend on how the Go scheduler interleaves
// the pollers with the ranks, so they are reported but not required to
// repeat.
func exactCounts(c map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(c))
	for k, v := range c {
		if k != "via.cq_drained_per_op" && k != "via.cq_poller_parks_per_op" {
			out[k] = v
		}
	}
	return out
}

// assertions checks what each workload is built to exercise.
func assertions(name string, c map[string]float64) []string {
	var bad []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	check(c["via.faults"] == 0, "via.faults = %v, want 0", c["via.faults"])
	check(c["regcache.failures"] == 0, "regcache.failures = %v, want 0", c["regcache.failures"])
	switch name {
	case "small_pingpong":
		check(c["msg.inline_share"] == 1, "msg.inline_share = %v, want 1", c["msg.inline_share"])
	case "bulk_resident":
		check(c["regcache.hit_ratio"] >= 0.99, "regcache.hit_ratio = %v, want >= 0.99", c["regcache.hit_ratio"])
	case "reg_swapcold":
		check(c["regcache.hit_ratio"] <= 0.05, "regcache.hit_ratio = %v, want <= 0.05", c["regcache.hit_ratio"])
		check(c["mm.major_faults_per_op"] > 0, "mm.major_faults_per_op = %v, want > 0", c["mm.major_faults_per_op"])
	}
	return bad
}

// setupSample is one timed set-up: host seconds of its two phases.
type setupSample struct{ buildS, warmS float64 }

// setup builds the workload and runs one batch of warm-up ops, so that
// caches are filled and lazy pairing has finished before anything is
// timed.
func setup(cfg config, warm int) (*world, setupSample, error) {
	t0 := time.Now()
	w, err := build(cfg.workload, cfg.seed)
	if err != nil {
		return nil, setupSample{}, err
	}
	t1 := time.Now()
	for i := 0; i < warm; i++ {
		// Warm-up ops take the indices just below 2^63, timed ops count
		// up from 0: the two never share a payload.
		ok, err := w.op(1<<63 - 1 - uint64(i))
		if err != nil || !ok {
			w.stop()
			return nil, setupSample{}, fmt.Errorf("warm-up op %d: ok=%v err=%v", i, ok, err)
		}
	}
	t2 := time.Now()
	return w, setupSample{t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()}, nil
}

// section is the outcome of a run of batches of ops operations each.
type section struct {
	ops       int
	seconds   []float64 // host time of each batch
	attempted int
	failed    int
	// Go runtime deltas summed over the batches alone, without the
	// whole-buffer checks between them.
	mallocs, allocBytes, gcCycles, gcPauseNS uint64
}

// rates returns ops/s per batch.
func (s *section) rates() []float64 {
	out := make([]float64, len(s.seconds))
	for i, sec := range s.seconds {
		out[i] = float64(s.ops) / sec
	}
	return out
}

func (s *section) add(o section) {
	s.ops = o.ops
	s.seconds = append(s.seconds, o.seconds...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.mallocs += o.mallocs
	s.allocBytes += o.allocBytes
	s.gcCycles += o.gcCycles
	s.gcPauseNS += o.gcPauseNS
}

// runBatches runs n batches of size ops starting at op index *next.
func runBatches(w *world, n, ops int, next *uint64) (section, error) {
	s := section{ops: ops, seconds: make([]float64, 0, n)}
	var m0, m1 runtime.MemStats
	for b := 0; b < n; b++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			ok, err := w.op(*next)
			*next++
			s.attempted++
			if err != nil {
				s.failed++
				return s, err
			}
			if !ok {
				s.failed++
			}
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		s.seconds = append(s.seconds, d.Seconds())
		s.mallocs += m1.Mallocs - m0.Mallocs
		s.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		s.gcCycles += uint64(m1.NumGC - m0.NumGC)
		s.gcPauseNS += m1.PauseTotalNs - m0.PauseTotalNs
		if w.fullCheck != nil {
			ok, err := w.fullCheck()
			if err != nil {
				return s, err
			}
			if !ok {
				// A whole-buffer mismatch the per-op stamps did not
				// catch: charge it to the batch's last op.
				s.failed++
			}
		}
	}
	return s, nil
}

// run executes one workload in one mode.
func run(cfg config) (*result, error) {
	spec, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.batches == 0 {
		cfg.batches = Batches
	}
	if cfg.setups == 0 {
		cfg.setups = Setups
	}
	if cfg.log == nil {
		cfg.log = io.Discard
	}
	// One P: a second P measures cross-thread goroutine wake-ups and
	// whether a neighbour left the other vCPU free, not the program.
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	ops := batchOps(spec, cfg.seconds)
	fmt.Fprintf(cfg.log, "# workload=%s seed=%d seconds=%g traced=%v GOMAXPROCS=%d batches=%d batch_ops=%d setups=%d go=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.traced, runtime.GOMAXPROCS(0), cfg.batches, ops, cfg.setups, runtime.Version())

	// Set-up, repeated; the last world is kept and measured.
	var w *world
	var setups []setupSample
	for i := 0; i < cfg.setups; i++ {
		if w != nil {
			w.stop()
			w = nil
			runtime.GC()
		}
		nw, sample, err := setup(cfg, ops)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		w = nw
		setups = append(setups, sample)
	}
	defer w.stop()
	w.tamper = cfg.tamper
	goroutines := runtime.NumGoroutine()

	res := &result{Metrics: make(map[string]value)}
	var next uint64
	if cfg.traced {
		if err := runTraced(cfg, spec, w, res, ops, &next); err != nil {
			return nil, err
		}
		var buildMS, warmMS []float64
		for _, s := range setups {
			buildMS, warmMS = append(buildMS, s.buildS*1e3), append(warmMS, s.warmS*1e3)
		}
		res.Metrics["cluster.build_host_ms"] = value{median(buildMS), ""}
		res.Metrics["cluster.warmup_host_ms"] = value{median(warmMS), ""}
		if w.mpi != nil {
			res.Metrics["mpi.goroutines"] = value{float64(goroutines), ""}
			res.Metrics["mpi.pairs"] = value{float64(w.mpi.Pairs()), ""}
		}
		fillUnits(res, perLayer)
	} else {
		if err := runTimed(cfg, w, res, ops, &next); err != nil {
			return nil, err
		}
		var total []float64
		for _, s := range setups {
			total = append(total, s.buildS+s.warmS)
		}
		// The fastest set-up is the one the box left alone: on same-code
		// runs it repeats better than the median of the nine.
		res.Metrics["setup_s"] = value{fastest(total), ""}
		fmt.Fprintf(cfg.log, "# setup_s: fastest %.4f median %.4f slowest %.4f of %d\n",
			fastest(total), median(total), quantile(total, 1), len(total))
		fillUnits(res, endToEnd)
	}
	res.violations = append(res.violations, assertions(cfg.workload, res.counts)...)
	for _, v := range res.violations {
		fmt.Fprintf(cfg.log, "# ASSERTION FAILED: %s\n", v)
	}
	res.Correct = res.Failed == 0 && len(res.violations) == 0
	return res, nil
}

// fillUnits gives every metric of the spec its unit, and a zero value
// where the workload has nothing to report (mpi.* outside allreduce_64).
func fillUnits(res *result, spec []metricSpec) {
	for _, m := range spec {
		v := res.Metrics[m.Name]
		v.Unit = m.Unit
		res.Metrics[m.Name] = v
	}
}

// runTimed is the untraced section: the end-to-end metrics.
func runTimed(cfg config, w *world, res *result, ops int, next *uint64) error {
	w.sim.reset()
	before := snapshot(w)
	runtime.GC()
	sec, err := runBatches(w, cfg.batches, ops, next)
	if err != nil {
		return err
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	after := snapshot(w)

	n := float64(sec.attempted)
	rates := sec.rates()
	res.Attempted, res.Failed = sec.attempted, sec.failed
	res.batchSeconds = sec.seconds
	res.counts = exactCounts(layerCounts(before, after, sec.attempted))
	res.Metrics["ops_per_s"] = value{quantile(rates, 0.90), ""}
	res.Metrics["allocs_per_op"] = value{float64(sec.mallocs) / n, ""}
	res.Metrics["alloc_bytes_per_op"] = value{float64(sec.allocBytes) / n, ""}
	res.Metrics["heap_inuse_MiB"] = value{float64(ms.HeapInuse) / (1 << 20), ""}
	res.Metrics["sim_us_per_op"] = value{w.sim.quantile(0.5).Micros(), ""}
	res.Metrics["sim_us_per_op_p99"] = value{w.sim.quantile(0.99).Micros(), ""}
	fmt.Fprintf(cfg.log, "# batch rates op/s: p10 %.1f p25 %.1f median %.1f p75 %.1f p90 %.1f (%d batches, median %.3f s each)\n",
		quantile(rates, 0.10), quantile(rates, 0.25), median(rates), quantile(rates, 0.75), quantile(rates, 0.90),
		len(rates), median(sec.seconds))
	fmt.Fprintf(cfg.log, "# sim samples %d, distinct values %d; gc cycles %d\n",
		w.sim.n, len(w.sim.counts), sec.gcCycles)
	return nil
}

// tracedBatches is the size of the traced section: ten batches with
// every observer attached, each preceded by an untraced reference batch
// of the same size, so both sides of trace.overhead_ratio see the same
// minutes of the box.
const tracedBatches = 10

// runTraced is the traced section and the layer probes: the per-layer
// metrics.
func runTraced(cfg config, spec workloadSpec, w *world, res *result, ops int, next *uint64) error {
	tops := spec.TraceOpsPerBatch
	if tops > ops {
		tops = ops
	}
	meter := w.cl.Meter

	// The program's own observers: one registry for the stage sums, one
	// ring sized from a one-op rehearsal so that nothing is dropped.
	reg := metrics.NewRegistry()
	attach := func(trc *trace.Tracer, reg *metrics.Registry) {
		for _, n := range w.cl.Nodes {
			n.Agent.AttachObs(trc, reg)
			n.NIC.AttachObs(trc, reg)
		}
		for _, e := range w.eps {
			e.AttachObs(trc, reg)
			e.Cache().AttachObs(trc, reg)
		}
		for _, r := range w.ranks {
			r.Cache().AttachObs(trc, reg)
		}
	}
	rehearsal := trace.New(meter, 1<<16)
	attach(rehearsal, metrics.NewRegistry())
	if ok, err := w.op(1 << 62); err != nil || !ok {
		return fmt.Errorf("rehearsal op: ok=%v err=%v", ok, err)
	}
	attach(nil, nil)
	perOp := int(rehearsal.Emitted()) + 1
	trc := trace.New(meter, perOp*tops*tracedBatches*5/4)
	rec := newSpanRec(meter, (len(w.ranks)+8)*tops*tracedBatches)

	before := snapshot(w)
	runtime.GC()
	var plain, traced section
	var tracedSim simtime.Duration
	peak := runtime.NumGoroutine()
	for b := 0; b < tracedBatches; b++ {
		s, err := runBatches(w, 1, tops, next)
		if err != nil {
			return err
		}
		plain.add(s)

		attach(trc, reg)
		w.rec = rec
		sim0 := w.sim.sum
		s, err = runBatches(w, 1, tops, next)
		w.rec = nil
		attach(nil, nil)
		if err != nil {
			return err
		}
		traced.add(s)
		tracedSim += w.sim.sum - sim0
		if g := runtime.NumGoroutine(); g > peak {
			peak = g
		}
	}
	after := snapshot(w)

	totalOps := plain.attempted + traced.attempted
	res.Attempted, res.Failed = totalOps, plain.failed+traced.failed
	counts := layerCounts(before, after, totalOps)
	res.counts = exactCounts(counts)
	for k, v := range counts {
		res.Metrics[k] = value{v, ""}
	}
	tn := float64(traced.attempted)
	set := func(name string, v float64) { res.Metrics[name] = value{v, ""} }

	// Benchmark-side spans: host and sim time of each public call.
	spans := rec.recorded()
	sendHost := durations(spans, spSend, (*span).hostUS)
	set("msg.send_host_us", quantile(sendHost, 0.5))
	set("msg.send_host_us_p99", quantile(sendHost, 0.99))
	recvHost := durations(spans, spRecv, (*span).hostUS)
	if len(recvHost) == 0 {
		recvHost = durations(spans, spPeerRecv, (*span).hostUS)
	}
	set("msg.recv_host_us", quantile(recvHost, 0.5))
	set("msg.send_sim_us", quantile(durations(spans, spSend, (*span).simUS), 0.5))
	if w.mpi != nil {
		// One sample per rank and op: 64 times the ops, so the p99 has
		// more than ten samples beyond it.
		callHost := durations(spans, spAllreduce, (*span).hostUS)
		set("mpi.allreduce_host_us", quantile(callHost, 0.5))
		set("mpi.allreduce_host_us_p99", quantile(callHost, 0.99))
		set("mpi.rank_skew_us", quantile(rankSkews(spans), 0.5))
	}
	if tracedSim > 0 && len(w.eps) > 0 {
		set("msg.sim_goodput_MBps", float64(w.payloadBytes)*tn/(float64(tracedSim)/float64(simtime.Second))/1e6)
	}

	// The program's stage marks, summed over the traced batches.
	sumUS := func(name string) float64 { return float64(reg.Histogram(name).Snapshot().Sum) / 1e3 }
	dma, wire, scatter := sumUS("via.dma.tx.simns"), sumUS("via.wire.simns"), sumUS("via.dma.rx.simns")
	set("via.dma_sim_us_per_op", dma/tn)
	set("via.wire_sim_us_per_op", wire/tn)
	set("via.scatter_sim_us_per_op", scatter/tn)
	set("kagent.registrations_per_op", float64(reg.Counter("kagent.registers").Load())/tn)
	kagentUS := sumUS("kagent.reg.total.simns") + sumUS("kagent.dereg.total.simns")
	swapUS := 0.0
	for _, d := range durations(spans, spSwapOut, (*span).simUS) {
		swapUS += d
	}
	if tracedSim > 0 {
		set("trace.unattributed_sim_share", 1-(dma+wire+scatter+kagentUS+swapUS)/tracedSim.Micros())
	}
	// Each traced batch follows its untraced twin, so the two medians
	// saw the same minutes of the box.
	set("trace.overhead_ratio", median(plain.rates())/median(traced.rates()))
	set("trace.dropped", float64(trc.Dropped())+float64(rec.dropped.Load()))

	set("host.gc_cycles_per_kop", float64(plain.gcCycles+traced.gcCycles)/float64(totalOps)*1e3)
	set("host.gc_pause_ms", float64(plain.gcPauseNS+traced.gcPauseNS)/1e6)
	set("host.goroutines_peak", float64(peak))

	fmt.Fprintf(cfg.log, "# traced section: %d+%d ops in %d batch pairs, %d program events (%d per op), %d spans\n",
		plain.attempted, traced.attempted, tracedBatches, trc.Emitted(), perOp-1, len(spans))
	fmt.Fprintf(cfg.log, "# %-28s %8s %14s %14s %14s\n", "span", "count", "host_us", "self_host_us", "sim_us")
	for _, r := range summarize(spans) {
		fmt.Fprintf(cfg.log, "# %-28s %8d %14.1f %14.1f %14.1f\n", r.Name, r.Count, r.HostUS, r.SelfHostUS, r.SimUS)
	}
	if cfg.traceOut != nil {
		if err := writeSpans(cfg.traceOut, cfg.workload, spans); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if d := trc.Dropped() + uint64(rec.dropped.Load()); d != 0 {
		res.violations = append(res.violations, fmt.Sprintf("trace.dropped = %d, want 0", d))
	}
	return probe(w, res)
}

// rankSkews returns, per op, how much later the slowest rank finished
// its allreduce than the median rank (µs of host time).
func rankSkews(spans []span) []float64 {
	byOp := make(map[uint64][]float64)
	for i := range spans {
		if spans[i].name == spAllreduce {
			byOp[spans[i].op] = append(byOp[spans[i].op], float64(spans[i].h1)/1e3)
		}
	}
	out := make([]float64, 0, len(byOp))
	for _, ends := range byOp {
		out = append(out, quantile(ends, 1)-quantile(ends, 0.5))
	}
	return out
}
