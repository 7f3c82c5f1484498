package bench

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/cluster"
	"repro/internal/msg"
	"repro/internal/report"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// E19: the pipelined rendezvous.  For each message size the same
// first-touch (cache-cold) zero-copy send runs under three shapes of
// the one rendezvous loop — serialized (a single grant: whole-buffer
// registration before the first byte moves), the chunked-but-lockstep
// ablation (PipelineDepth 1), and the double-buffered pipeline
// (PipelineDepth 2, the default) — and the table reports the end-to-end
// simulated time plus the overlap fraction measured from the trace: how
// much of the chunk-registration span union lies inside the
// chunk-transfer span union.
//
// Two buffer states bracket the registration cost the pipeline can
// hide.  "resident" buffers are faulted in beforehand, so registration
// is just pin + TPT time and the transfer dominates — pipelining is
// roughly neutral there, which is the no-regression half of the story.
// "swap-cold" buffers have been evicted to the swap device, so
// registration pays a 6 ms page-in per page (the paper's E3/E4
// scenario); that cost dominates the transfer and the pipeline hides
// one side's registration behind the other's, approaching the 2×
// bound of max(reg, reg, transfer) vs reg + reg + transfer.

// rendezvousSizes is the message-size sweep (all above OneCopyMax).
var rendezvousSizes = []int{256 * 1024, 512 * 1024, 1024 * 1024}

// rendezvousShapes are the compared pipeline shapes, in column order,
// as the endpoint options that select them for a message of size bytes.
var rendezvousShapes = []func(size int) msg.Options{
	func(size int) msg.Options { return msg.Options{PipelineDepth: 1, PipelineChunk: size} },
	func(int) msg.Options { return msg.Options{PipelineDepth: 1} },
	func(int) msg.Options { return msg.Options{PipelineDepth: 2} },
}

// rendezvousResult is one cell of the sweep.
type rendezvousResult struct {
	elapsed simtime.Duration
	overlap float64 // fraction of reg-span union inside xfer-span union
	// regSpans / xferSpans count the chunk-registration and
	// chunk-transfer spans the run emitted, both sides together.
	regSpans, xferSpans int
}

// rendezvousRun performs one cold zero-copy send of size bytes under
// the given pipeline options and reports the simulated time and span
// overlap.
func rendezvousRun(size int, opts msg.Options, swapCold bool) (rendezvousResult, error) {
	var res rendezvousResult
	c, err := cluster.New(cluster.Config{
		Nodes:    2,
		Kernel:   benchKernelConfig(),
		TPTSlots: 4096,
	})
	if err != nil {
		return res, err
	}
	ea, eb, err := c.EndpointPair(0, 1, 0, opts)
	if err != nil {
		return res, err
	}
	trc := trace.New(c.Meter, 1<<14)
	ea.AttachObs(trc, nil)
	eb.AttachObs(trc, nil)

	src, err := ea.Process().Malloc(size)
	if err != nil {
		return res, err
	}
	dst, err := eb.Process().Malloc(size)
	if err != nil {
		return res, err
	}
	// Fault every page in (first touch), then optionally push the
	// buffers out to the swap device so registration has to page them
	// back in.  Ring and bounce buffers are registered, hence pinned,
	// hence skipped by swap_out.
	if err := src.FillPattern(0x5a); err != nil {
		return res, err
	}
	if err := dst.FillPattern(0x00); err != nil {
		return res, err
	}
	if swapCold {
		// Multiple passes: the clock algorithm's first visit only clears
		// a page's accessed bit (second chance); a later visit evicts it.
		for _, n := range c.Nodes {
			for i := 0; i < 4; i++ {
				n.Kernel.SwapOut(4096)
			}
		}
	}

	start := c.Meter.Now()
	errc := make(chan error, 1)
	go func() {
		_, err := eb.Recv(dst)
		errc <- err
	}()
	if _, err := ea.Send(src, msg.ZeroCopy); err != nil {
		return res, err
	}
	if err := <-errc; err != nil {
		return res, err
	}
	res.elapsed = c.Meter.Now() - start
	if bad, err := dst.VerifyPattern(0x5a); err != nil || len(bad) > 0 {
		return res, fmt.Errorf("rendezvous payload corrupt: %d bad pages, %v", len(bad), err)
	}
	res.overlap, res.regSpans, res.xferSpans = spanOverlap(trc.Snapshot())
	return res, nil
}

// interval is one closed-open sim-time range.
type interval struct{ lo, hi simtime.Duration }

// spanOverlap pairs the trace's chunk-registration and chunk-transfer
// spans and reports how much of the cheaper activity's span time lies
// inside the other's — the pipelining proof: whichever of registration
// and transfer is smaller is the cost the pipeline can hide, so the
// fraction is intersection / min(reg total, transfer total).  nreg and
// nxfer count the spans of each kind.
func spanOverlap(events []trace.Event) (frac float64, nreg, nxfer int) {
	begins := make(map[trace.SpanID]trace.Event)
	var regs, xfers []interval
	for _, ev := range events {
		switch ev.Kind {
		case trace.KindChunkReg, trace.KindChunkXfer:
		default:
			continue
		}
		switch ev.Phase {
		case trace.PhaseBegin:
			begins[ev.Span] = ev
		case trace.PhaseEnd:
			b, ok := begins[ev.Span]
			if !ok || ev.Sim <= b.Sim {
				continue
			}
			iv := interval{lo: b.Sim, hi: ev.Sim}
			if ev.Kind == trace.KindChunkReg {
				regs = append(regs, iv)
			} else {
				xfers = append(xfers, iv)
			}
		}
	}
	nreg, nxfer = len(regs), len(xfers)
	regs, xfers = mergeIntervals(regs), mergeIntervals(xfers)
	var regTotal, xferTotal, inside simtime.Duration
	for _, x := range xfers {
		xferTotal += x.hi - x.lo
	}
	for _, r := range regs {
		regTotal += r.hi - r.lo
		for _, x := range xfers {
			lo, hi := maxD(r.lo, x.lo), minD(r.hi, x.hi)
			if hi > lo {
				inside += hi - lo
			}
		}
	}
	if denom := minD(regTotal, xferTotal); denom > 0 {
		frac = float64(inside) / float64(denom)
	}
	return frac, nreg, nxfer
}

// mergeIntervals unions overlapping intervals (sorts in place).
func mergeIntervals(ivs []interval) []interval {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	out := ivs[:0]
	for _, iv := range ivs {
		if n := len(out); n > 0 && iv.lo <= out[n-1].hi {
			if iv.hi > out[n-1].hi {
				out[n-1].hi = iv.hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

func maxD(a, b simtime.Duration) simtime.Duration {
	if a > b {
		return a
	}
	return b
}

func minD(a, b simtime.Duration) simtime.Duration {
	if a < b {
		return a
	}
	return b
}

// Rendezvous regenerates E19: serialized vs pipelined rendezvous over
// cold buffers, with the overlap fraction derived from trace spans.
func Rendezvous(w io.Writer) error {
	for _, swapCold := range []bool{false, true} {
		state, unit := "resident", "µs"
		if swapCold {
			state, unit = "swap-cold", "ms"
		}
		t := report.Table{
			Title:   fmt.Sprintf("E19: pipelined rendezvous — first-touch zero-copy send, %s buffers (simulated %s)", state, unit),
			Headers: []string{"size", "serialized", "chunked", "pipelined", "speedup", "overlap"},
			Note: "serialized = whole-buffer registration then one RDMA (one grant: PipelineChunk = size); chunked = per-chunk lockstep, no overlap (depth 1); " +
				"pipelined = double-buffered (depth 2, default); speedup = serialized/pipelined; overlap = fraction of the cheaper span set (chunk registration vs chunk transfer) hidden inside the other",
		}
		for _, size := range rendezvousSizes {
			cells := make([]rendezvousResult, len(rendezvousShapes))
			for i, shape := range rendezvousShapes {
				r, err := rendezvousRun(size, shape(size), swapCold)
				if err != nil {
					return fmt.Errorf("rendezvous size %d shape %d: %w", size, i, err)
				}
				cells[i] = r
			}
			val := func(d simtime.Duration) float64 {
				if swapCold {
					return float64(d) / float64(simtime.Millisecond)
				}
				return d.Micros()
			}
			t.AddRow(
				report.Bytes(size),
				val(cells[0].elapsed),
				val(cells[1].elapsed),
				val(cells[2].elapsed),
				fmt.Sprintf("%.2fx", float64(cells[0].elapsed)/float64(cells[2].elapsed)),
				fmt.Sprintf("%.0f%%", 100*cells[2].overlap),
			)
		}
		t.Fprint(w)
		fmt.Fprintln(w)
	}
	return nil
}
