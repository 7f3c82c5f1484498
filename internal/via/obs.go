package via

import (
	"repro/internal/metrics"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// Observability (DESIGN.md §8).  The NIC carries an atomically attached
// observer bundling a tracer and pre-resolved metric instruments; the
// detached configuration (the default) costs one atomic load and a
// branch per instrumentation point, and the data path never allocates
// for observability in either configuration.

// nicObs is the attached observer: the tracer plus the instruments the
// data path records into, resolved once at attach time.
type nicObs struct {
	trc *trace.Tracer

	// Descriptor lifecycle (post → complete), sim-ns.
	descSend *metrics.Histogram
	descRecv *metrics.Histogram
	// Data-path stage costs, sim-ns.
	dmaTX *metrics.Histogram
	wire  *metrics.Histogram
	dmaRX *metrics.Histogram
	// Engine lane queue depth sampled at enqueue.
	laneDepth *metrics.Histogram

	translates    *metrics.Counter
	translateErrs *metrics.Counter
	viErrors      *metrics.Counter
	viResets      *metrics.Counter
	retries       *metrics.Counter

	// Nopin data path: IO page faults, fault-and-retry resolutions,
	// speculative retransmits, notifier invalidations and repairs.
	ioFaults        *metrics.Counter
	faultRetries    *metrics.Counter
	specRetransmits *metrics.Counter
	tptInvalidates  *metrics.Counter
	tptRepairs      *metrics.Counter

	// Completion-queue overflow drops (ErrCQOverflow events).
	cqOverflows *metrics.Counter
}

// AttachObs attaches (or, with two nils, detaches) an observer to the
// NIC's data path.  Either argument may be nil: a nil tracer records
// only metrics, a nil registry only trace events.  Attach while the
// NIC is quiescent; in-flight descriptors posted before the attach
// complete without lifecycle events.
func (n *NIC) AttachObs(trc *trace.Tracer, reg *metrics.Registry) {
	if trc == nil && reg == nil {
		n.obs.Store(nil)
		n.tpt.obs.Store(nil)
		return
	}
	o := &nicObs{
		trc:           trc,
		descSend:      reg.Histogram("via.desc.send.simns"),
		descRecv:      reg.Histogram("via.desc.recv.simns"),
		dmaTX:         reg.Histogram("via.dma.tx.simns"),
		wire:          reg.Histogram("via.wire.simns"),
		dmaRX:         reg.Histogram("via.dma.rx.simns"),
		laneDepth:     reg.Histogram("via.lane.depth"),
		translates:    reg.Counter("via.translate.ops"),
		translateErrs: reg.Counter("via.translate.errors"),
		viErrors:      reg.Counter("via.vi.errors"),
		viResets:      reg.Counter("via.vi.resets"),
		retries:       reg.Counter("via.retries"),

		ioFaults:        reg.Counter("via.nopin.iofaults"),
		faultRetries:    reg.Counter("via.nopin.retries"),
		specRetransmits: reg.Counter("via.nopin.retransmits"),
		tptInvalidates:  reg.Counter("via.nopin.invalidates"),
		tptRepairs:      reg.Counter("via.nopin.repairs"),

		cqOverflows: reg.Counter("via.cq.overflows"),
	}
	n.obs.Store(o)
	n.tpt.obs.Store(o)
}

// obsStage measures per-stage virtual-time deltas along one descriptor's
// processing.  The zero value (observer detached) is inert.  Stage
// deltas are exact in single-threaded scenarios; under concurrency the
// shared clock interleaves other actors' charges into a stage, so the
// histograms then show upper bounds (documented in DESIGN.md §8).
type obsStage struct {
	obs  *nicObs
	m    *simtime.Meter
	last simtime.Duration
}

// stageStart opens a stage clock over the NIC's meter (inert when the
// observer is detached).
func (n *NIC) stageStart() obsStage {
	obs := n.obs.Load()
	if obs == nil {
		return obsStage{}
	}
	return obsStage{obs: obs, m: n.meter, last: n.meter.Now()}
}

// mark closes the current stage under the kind, recording the sim-ns
// delta into the kind's histogram and an instant event carrying
// (bytes, delta).
func (s *obsStage) mark(k trace.Kind, bytes int) {
	if s.obs == nil {
		return
	}
	now := s.m.Now()
	d := now - s.last
	s.last = now
	var h *metrics.Histogram
	switch k {
	case trace.KindDMA:
		h = s.obs.dmaTX
	case trace.KindWire:
		h = s.obs.wire
	case trace.KindScatter:
		h = s.obs.dmaRX
	}
	h.Observe(int64(d))
	s.obs.trc.Instant(k, uint64(bytes), uint64(d))
}
