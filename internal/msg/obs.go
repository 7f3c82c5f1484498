package msg

import (
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Observability (DESIGN.md §8).  The endpoint mirrors the stack-wide
// discipline: an atomically attached observer, one atomic load and a
// branch per protocol event when detached, no allocation either way.
// The hot eager send/receive path itself carries no hooks — only the
// rendezvous pipeline and the ownership-transfer protocol are
// instrumented, which is where the interesting events are.

// epObs bundles the tracer and the endpoint's protocol instruments.
type epObs struct {
	trc *trace.Tracer

	pipeSends     *metrics.Counter
	pipeChunks    *metrics.Counter
	pipeFallbacks *metrics.Counter

	scribbles      *metrics.Counter
	remapSends     *metrics.Counter
	remapRecvs     *metrics.Counter
	remapFallbacks *metrics.Counter
}

// AttachObs attaches (or, with two nils, detaches) an observer to the
// endpoint's protocol engines.  Either argument may be nil: a nil
// tracer records only metrics, a nil registry only trace events.
func (e *Endpoint) AttachObs(trc *trace.Tracer, reg *metrics.Registry) {
	if trc == nil && reg == nil {
		e.obs.Store(nil)
		return
	}
	e.obs.Store(&epObs{
		trc:            trc,
		pipeSends:      reg.Counter("msg.pipeline.sends"),
		pipeChunks:     reg.Counter("msg.pipeline.chunks"),
		pipeFallbacks:  reg.Counter("msg.pipeline.fallbacks"),
		scribbles:      reg.Counter("msg.scribbles"),
		remapSends:     reg.Counter("msg.remap.sends"),
		remapRecvs:     reg.Counter("msg.remap.recvs"),
		remapFallbacks: reg.Counter("msg.remap.fallbacks"),
	})
}

// event emits a protocol trace instant and bumps the matching
// counter.  Arg conventions follow trace.Kind's documentation.  Like
// pipeline it is a no-op on a nil (detached) observer, so call sites
// are a bare e.obs.Load().event(...).
func (o *epObs) event(k trace.Kind, a1, a2 uint64) {
	if o == nil {
		return
	}
	switch k {
	case trace.KindPipeFallback:
		o.pipeFallbacks.Inc()
	case trace.KindScribbleDetected:
		o.scribbles.Inc()
	case trace.KindRemapSend:
		o.remapSends.Inc()
	case trace.KindRemapRecv:
		o.remapRecvs.Inc()
	case trace.KindRemapFallback:
		o.remapFallbacks.Inc()
	}
	o.trc.Instant(k, a1, a2)
}

// pipeline records one completed rendezvous send over registered
// buffers and the grants it moved.
func (o *epObs) pipeline(nchunks int) {
	if o == nil {
		return
	}
	o.pipeSends.Inc()
	o.pipeChunks.Add(uint64(nchunks))
}

// chunkSpanBegin opens a pipeline chunk span (registration or transfer)
// when an observer is attached; the returned pair is inert otherwise.
func (e *Endpoint) chunkSpanBegin(k trace.Kind, idx, n int) (*epObs, trace.SpanID) {
	obs := e.obs.Load()
	if obs == nil {
		return nil, 0
	}
	return obs, obs.trc.Begin(k, uint64(idx), uint64(n))
}

// chunkSpanEnd closes a span opened by chunkSpanBegin.
func (e *Endpoint) chunkSpanEnd(obs *epObs, sp trace.SpanID, k trace.Kind, ok bool, idx int) {
	if obs == nil {
		return
	}
	okArg := uint64(0)
	if ok {
		okArg = 1
	}
	obs.trc.End(sp, k, okArg, uint64(idx))
}
