package bench

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/msg"
	"repro/internal/regcache"
)

// sweepOutput runs a sweep into a buffer and returns the text.
func sweepOutput(t *testing.T, f func(w *strings.Builder) error) string {
	t.Helper()
	var sb strings.Builder
	if err := f(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestSurvivalShape(t *testing.T) {
	out := sweepOutput(t, func(w *strings.Builder) error { return Survival(w) })
	// At pressure 2.00 refcount must be 0%, kiobuf 100%.
	var line string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(strings.TrimSpace(l), "2.00") {
			line = l
		}
	}
	if line == "" {
		t.Fatalf("no 2.00 row in:\n%s", out)
	}
	fields := strings.Fields(line)
	// pressure none refcount pageflag mlock kiobuf
	if len(fields) != 6 {
		t.Fatalf("row %q", line)
	}
	if fields[2] != "0.00" {
		t.Fatalf("refcount at 2.00 = %s, want 0.00", fields[2])
	}
	if fields[5] != "100.00" {
		t.Fatalf("kiobuf at 2.00 = %s, want 100.00", fields[5])
	}
}

func TestMultiRegVerdicts(t *testing.T) {
	out := sweepOutput(t, func(w *strings.Builder) error { return MultiReg(w) })
	for _, want := range []string{"kiobuf", "CORRECT", "pageflag"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	// pageflag must be BROKEN and kiobuf CORRECT.
	for _, l := range strings.Split(out, "\n") {
		f := strings.Fields(l)
		if len(f) >= 4 && f[0] == "pageflag" && f[3] != "BROKEN" {
			t.Fatalf("pageflag verdict %q", f[3])
		}
		if len(f) >= 4 && f[0] == "kiobuf" && f[3] != "CORRECT" {
			t.Fatalf("kiobuf verdict %q", f[3])
		}
	}
}

func TestDivergenceShape(t *testing.T) {
	out := sweepOutput(t, func(w *strings.Builder) error { return Divergence(w) })
	if !strings.Contains(out, "E10") {
		t.Fatalf("missing header:\n%s", out)
	}
	// The last row must show refcount < kiobuf.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var last []string
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) == 3 && strings.HasPrefix(f[0], "2.00") {
			last = f
		}
	}
	if len(last) != 3 {
		t.Fatalf("no 2.00 row:\n%s", out)
	}
	if last[1] == last[2] {
		t.Fatalf("refcount (%s) did not diverge from kiobuf (%s)", last[1], last[2])
	}
}

func TestPIODMACrossover(t *testing.T) {
	out := sweepOutput(t, func(w *strings.Builder) error { return PIODMA(w) })
	// 64B must go to SHM, 1KiB to DMA — the companion's ~128B switch.
	var shm64, dma1k bool
	for _, l := range strings.Split(out, "\n") {
		f := strings.Fields(l)
		if len(f) >= 6 && f[0] == "64B" && f[5] == "SHM" {
			shm64 = true
		}
		if len(f) >= 6 && f[0] == "1KiB" && f[5] == "DMA" {
			dma1k = true
		}
	}
	if !shm64 || !dma1k {
		t.Fatalf("crossover missing (shm64=%v dma1k=%v):\n%s", shm64, dma1k, out)
	}
}

func TestLatencyOrdering(t *testing.T) {
	out := sweepOutput(t, func(w *strings.Builder) error { return Latency(w) })
	if !strings.Contains(out, "E12") {
		t.Fatalf("missing header:\n%s", out)
	}
	// For small transfers PIO must be the fastest column.
	for _, l := range strings.Split(out, "\n") {
		f := strings.Fields(l)
		if len(f) == 4 && f[0] == "64" {
			var pio, rdma, send float64
			if _, err := fscan(f[1], &pio); err != nil {
				t.Fatal(err)
			}
			if _, err := fscan(f[2], &rdma); err != nil {
				t.Fatal(err)
			}
			if _, err := fscan(f[3], &send); err != nil {
				t.Fatal(err)
			}
			if !(pio < rdma && rdma < send) {
				t.Fatalf("ordering violated: pio=%v rdma=%v send=%v", pio, rdma, send)
			}
		}
	}
}

func TestAblationEvictionPolicy(t *testing.T) {
	classMisses, _, err := evictionWorkload(regcache.PolicyClassLRU)
	if err != nil {
		t.Fatal(err)
	}
	lruMisses, _, err := evictionWorkload(regcache.PolicyGlobalLRU)
	if err != nil {
		t.Fatal(err)
	}
	if classMisses >= lruMisses {
		t.Fatalf("class policy (%d misses) not better than global LRU (%d)", classMisses, lruMisses)
	}
}

func TestAblationSecondChance(t *testing.T) {
	withMF, _, err := secondChanceWorkload(false)
	if err != nil {
		t.Fatal(err)
	}
	withoutMF, _, err := secondChanceWorkload(true)
	if err != nil {
		t.Fatal(err)
	}
	if withMF >= withoutMF {
		t.Fatalf("second chance (%d major faults) not better than none (%d)", withMF, withoutMF)
	}
}

func TestAblationIgnoreLocks(t *testing.T) {
	c, total, err := ignoreLocksRun("pageflag")
	if err != nil {
		t.Fatal(err)
	}
	if c == total {
		t.Fatal("pageflag survived a kernel that ignores PG_* flags")
	}
	c, total, err = ignoreLocksRun("kiobuf")
	if err != nil {
		t.Fatal(err)
	}
	if c != total {
		t.Fatalf("kiobuf lost pages (%d/%d) — pins must hold", c, total)
	}
}

// fscan parses a float in table cells.
func fscan(s string, out *float64) (int, error) {
	return fmt.Sscanf(s, "%f", out)
}

func TestBigphysSlowdownShape(t *testing.T) {
	tb, err := bigphysTransfer(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := kiobufTransfer(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if tb <= tk {
		t.Fatalf("bigphys staging (%v) should cost more than registered transfer (%v)", tb, tk)
	}
}

func TestRegCachePointShape(t *testing.T) {
	cached, hit, err := regCachePoint(20, 4, 16<<10, 100, true)
	if err != nil {
		t.Fatal(err)
	}
	uncached, _, err := regCachePoint(20, 4, 16<<10, 100, false)
	if err != nil {
		t.Fatal(err)
	}
	if cached >= uncached {
		t.Fatalf("cached (%v µs) not faster than uncached (%v µs)", cached, uncached)
	}
	if hit < 50 {
		t.Fatalf("hit rate %v%% at full reuse", hit)
	}
}

func TestRegConcPointShape(t *testing.T) {
	kops, hit, err := regConcPoint(4, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if kops <= 0 {
		t.Fatalf("throughput %v kops/s", kops)
	}
	// 15/16 of the ops target the hot set; the hit rate must reflect it.
	if hit < 80 {
		t.Fatalf("hit rate %v%% on a 1/16-miss workload", hit)
	}
}

func TestMsgRatePointShape(t *testing.T) {
	kmsg, simUS, err := msgRatePoint(4, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if kmsg <= 0 {
		t.Fatalf("rate %v kmsg/s", kmsg)
	}
	if simUS <= 0 {
		t.Fatalf("virtual cost %v µs/msg", simUS)
	}
}

func TestProtocolPointShapes(t *testing.T) {
	// Cold zero-copy must lose to eager at 4 KiB and win at 1 MiB (warm).
	eagerSmall, err := protocolPoint(4<<10, "eager", true)
	if err != nil {
		t.Fatal(err)
	}
	zcColdSmall, err := protocolPoint(4<<10, "zerocopy", false)
	if err != nil {
		t.Fatal(err)
	}
	if zcColdSmall >= eagerSmall {
		t.Fatalf("cold zero-copy (%v MB/s) beat eager (%v MB/s) at 4KiB", zcColdSmall, eagerSmall)
	}
	eagerBig, err := protocolPoint(1<<20, "eager", true)
	if err != nil {
		t.Fatal(err)
	}
	zcWarmBig, err := protocolPoint(1<<20, "zerocopy", true)
	if err != nil {
		t.Fatal(err)
	}
	if zcWarmBig <= eagerBig {
		t.Fatalf("warm zero-copy (%v MB/s) lost to eager (%v MB/s) at 1MiB", zcWarmBig, eagerBig)
	}
}

// TestRendezvousPointShape checks the E19 headline at one point: on
// swap-cold buffers the pipelined rendezvous must beat the serialized
// one by at least 1.5x, and the trace spans must prove substantial
// registration/transfer overlap.  The serialized column is the same
// loop with one grant: one registration per side, one transfer.
func TestRendezvousPointShape(t *testing.T) {
	const size = 256 * 1024
	ser, err := rendezvousRun(size, rendezvousShapes[0](size), true)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := rendezvousRun(size, rendezvousShapes[2](size), true)
	if err != nil {
		t.Fatal(err)
	}
	if ser.regSpans != 2 || ser.xferSpans != 1 {
		t.Errorf("serialized run emitted %d chunk-reg and %d chunk-xfer spans, want 2 (one per side) and 1",
			ser.regSpans, ser.xferSpans)
	}
	if want := size / msg.DefaultPipelineChunk; pipe.regSpans != 2*want || pipe.xferSpans != want {
		t.Fatalf("pipelined run emitted %d chunk-reg and %d chunk-xfer spans, want %d and %d",
			pipe.regSpans, pipe.xferSpans, 2*want, want)
	}
	speedup := float64(ser.elapsed) / float64(pipe.elapsed)
	if speedup < 1.5 {
		t.Errorf("swap-cold speedup = %.2fx, want >= 1.5x (serialized %v, pipelined %v)",
			speedup, ser.elapsed, pipe.elapsed)
	}
	if pipe.overlap < 0.5 {
		t.Errorf("overlap fraction = %.2f, want >= 0.5", pipe.overlap)
	}
}

// TestChaosStripeClass runs the E17 multi-rail class end to end: the
// class's own contract (verified failover deliveries, typed
// all-rails-down failures, full recovery, zero corruption/leaks) is the
// assert — an error from the runner is a failed invariant.
func TestChaosStripeClass(t *testing.T) {
	res, err := chaosStripe()
	if err != nil {
		t.Fatal(err)
	}
	if res.ok == 0 || res.loud == 0 || res.injected == 0 {
		t.Fatalf("scoreboard %+v: a dead schedule slipped past the runner", res)
	}
}

// TestChaosNoPinLoop runs the E17 pin-free class forty times over.  One
// run moves 80 verified payloads through a swap storm; with the notifier
// fired after the page image was taken, or with nothing making the
// invalidation wait for DMA already past translation, about one run in
// fifteen delivered a payload whose last DMA write had missed the image
// ("silent corruption").  Forty clean runs put a reintroduction beyond
// doubt; under -race the same runs check that no frame is read for
// swap-out while a DMA write to it is still in flight.
func TestChaosNoPinLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("forty chaos rounds")
	}
	for idx, cl := range chaosClasses() {
		if cl.name != "nopin" {
			continue
		}
		for run := 0; run < 40; run++ {
			res, err := runChaosClass(cl, idx)
			if err != nil {
				t.Fatalf("run %d: %v", run, err)
			}
			if res.ok == 0 || res.nic.IOPageFaults == 0 {
				t.Fatalf("run %d: scoreboard %+v: the storm never reached the TPT", run, res)
			}
		}
		return
	}
	t.Fatal("no nopin class")
}

// TestChaosBatchClass runs the E17 small-message batching class end to
// end: exactly-once completion for every descriptor of every batch
// under mid-batch lane and link faults, verified inline payloads, and
// no stranded waiters.
func TestChaosBatchClass(t *testing.T) {
	res, err := chaosBatch()
	if err != nil {
		t.Fatal(err)
	}
	if res.ok == 0 || res.loud == 0 || res.injected == 0 {
		t.Fatalf("scoreboard %+v: a dead schedule slipped past the runner", res)
	}
}

// TestSmallMsgPointShapes pins E24's headline claims at point level: the
// inline path beats the staged path by at least 2× at 64 B on the
// virtual clock, and batched posting divides doorbells/op by the batch
// size.  (Wakeups/op is scheduling-sensitive at point scale, so only
// its sanity range is asserted here; the table shows the curve.)
func TestSmallMsgPointShapes(t *testing.T) {
	in, err := smallMsgPathPoint(64, true, 1024)
	if err != nil {
		t.Fatal(err)
	}
	st, err := smallMsgPathPoint(64, false, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if st < 2*in {
		t.Fatalf("inline %v sim-µs/msg vs staged %v: speedup %.2f×, want >= 2×", in, st, st/in)
	}
	db1, wk1, _, err := smallMsgBatchPoint(1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	db8, wk8, _, err := smallMsgBatchPoint(8, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if db1 < 0.99 || db1 > 1.01 {
		t.Fatalf("unbatched doorbells/op = %v, want 1", db1)
	}
	if db8 < 0.115 || db8 > 0.135 {
		t.Fatalf("batch-8 doorbells/op = %v, want 1/8", db8)
	}
	for _, wk := range []float64{wk1, wk8} {
		if wk <= 0 || wk > 1.2 {
			t.Fatalf("wakeups/op out of sanity range: %v and %v", wk1, wk8)
		}
	}
}
