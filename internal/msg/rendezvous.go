// The rendezvous engine: every payload that moves by RDMA write — a
// ZeroCopy send, a persistent request, a Remap/ProtectSend transfer —
// runs the one exchange below.
//
//	sender                                  receiver
//	RTS{size, nchunks, chunk, remap} ─────►
//	                           ◄─────────  GRANT{i, handle, offset, cost}
//	source region i
//	RDMA write(s) ≤ MaxTransferSize ──────►
//	FIN{i, cost}               ──────────►  next grant, or delivery
//
// The two loops are parameterised only by where a region comes from: a
// per-chunk cache.Acquire, a registration the caller already holds
// (persistent requests, the remap sender's pre-pinned payload), or — at a
// remap receiver — kernel-donated staging frames.  The serialized
// rendezvous is not a separate path: it is this loop with one grant.
//
// Every way out other than the final FIN is an ABORT carrying an
// abortReason, the single decision DESIGN.md §13 describes, and every
// wait on the control channel has an ABORT arm, so neither side can be
// left blocked by the other's failure.
package msg

import (
	"errors"
	"fmt"

	"repro/internal/proc"
	"repro/internal/regcache"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/via"
	"repro/internal/vipl"
)

// abortReason says why a side left the rendezvous, and thereby what
// both sides do next.  The data phase sits outside the reliability
// domain: nothing here retries, nothing blocks.
type abortReason uint8

const (
	// abortDegrade: a registration failed or a side declined before the
	// payload was committed.  Both sides release what they hold, the
	// sender re-sends through the reliable one-copy path (counted in
	// PipelineFallbacks / RemapFallbacks) and the receiver keeps
	// receiving, expecting that announcement.
	abortDegrade abortReason = iota
	// abortTransport: a posted RDMA write failed.  Both sides return
	// ErrTransport and release regions, staging frames and the write
	// guard on the spot.
	abortTransport
	// abortRefused: the receive buffer cannot hold the message, so no
	// fallback could deliver it either.  The receiver returns
	// ErrTooSmall, the sender ErrPeerAborted.
	abortRefused
)

// errRndvDegraded is the internal signal of an abortDegrade unwind: the
// sender turns it into the one-copy fallback, Recv's loop into "keep
// receiving".
var errRndvDegraded = errors.New("msg: rendezvous degraded to one-copy")

// rndvAbort leaves the rendezvous from this side: it tells the peer why
// and returns the error this side's caller sees.
func (e *Endpoint) rndvAbort(why abortReason, idx int, cause error) error {
	e.sendCtrl(ctrlMsg{kind: kRndvAbort, idx: idx, reason: why})
	if why == abortDegrade {
		return fmt.Errorf("%w: chunk %d: %w", errRndvDegraded, idx, cause)
	}
	return cause
}

// awaitRndv blocks for the peer's next rendezvous message, which must be
// kind `want` for chunk idx.  An ABORT instead ends the transfer with
// the error its reason assigns to the side that did not abort.
func (e *Endpoint) awaitRndv(want ctrlKind, idx int) (ctrlMsg, error) {
	m := <-e.ctrl
	switch {
	case m.kind == kRndvAbort && m.reason == abortDegrade:
		return m, fmt.Errorf("%w: peer unwound at chunk %d", errRndvDegraded, m.idx)
	case m.kind == kRndvAbort && m.reason == abortTransport:
		return m, fmt.Errorf("%w: peer aborted rendezvous at chunk %d", ErrTransport, m.idx)
	case m.kind == kRndvAbort:
		return m, fmt.Errorf("%w: receiver refused the message", ErrPeerAborted)
	case m.kind != want || m.idx != idx:
		return m, fmt.Errorf("msg: rendezvous expected kind %d chunk %d, got kind %d chunk %d", want, idx, m.kind, m.idx)
	}
	return m, nil
}

// sendRndv plans and runs one rendezvous send and books its outcome.
// held, when non-nil, is a whole-buffer registration the caller keeps;
// otherwise each chunk's registration comes from the cache.  remap
// selects frame-exchange delivery at the receiver.
func (e *Endpoint) sendRndv(b *proc.Buffer, held *vipl.MemRegion, remap bool) (int, error) {
	size, chunk := b.Bytes, e.opts.PipelineChunk
	if held != nil {
		chunk = size
	}
	nchunks := (size + chunk - 1) / chunk
	err := e.rndvSend(b, held, ctrlMsg{kind: kRTS, size: size, nchunks: nchunks, chunk: chunk, remap: remap})
	switch {
	case errors.Is(err, errRndvDegraded):
		// One-copy needs no receiver-side registration and rides the
		// reliability layer's retries.
		if remap {
			e.stats.RemapFallbacks++
			e.obs.Load().event(trace.KindRemapFallback, uint64(size), uint64(nchunks))
		} else {
			e.stats.PipelineFallbacks++
			e.obs.Load().event(trace.KindPipeFallback, uint64(size), uint64(nchunks))
		}
		return e.sendReliable(b, false)
	case err != nil:
		return 0, err
	}
	e.stats.SentMsgs++
	e.stats.SentBytes += uint64(size)
	if remap {
		e.stats.RemapSends++
		e.obs.Load().event(trace.KindRemapSend, uint64(size), uint64(b.Pages()))
		return size, nil
	}
	e.stats.ZeroCopies++
	e.stats.PipelinedSends++
	e.stats.PipelineChunks += uint64(nchunks)
	e.obs.Load().pipeline(nchunks)
	return size, nil
}

// rndvSend is the sender loop.  With PipelineDepth >= 2 and more than
// one chunk, while chunk i's RDMA write is in flight the receiver
// acquires chunk i+1's registration and the sender acquires its own upon
// the grant.  The shared virtual clock is a total-work meter, so that
// overlap is modelled explicitly: each side rewinds by the cost the
// incoming control message reports (the work the peer did "during" the
// same window), times its own work, and the sender closes every window
// by charging the deficit up to max(transfer, peer registration, own
// registration).  Trace spans (KindChunkXfer / KindChunkReg) carry the
// rewound timestamps, so an exported trace shows chunk i+1's
// registrations overlapping chunk i's transfer.  Otherwise the same
// message flow runs in strict lockstep: no rewinds, no deficit.
func (e *Endpoint) rndvSend(b *proc.Buffer, held *vipl.MemRegion, rts ctrlMsg) error {
	overlap := e.opts.PipelineDepth >= 2 && rts.nchunks > 1
	e.sendCtrl(rts)

	var acquired *vipl.MemRegion
	defer func() {
		if acquired != nil {
			_ = e.cache.Release(acquired)
		}
	}()
	var prevXfer simtime.Duration
	for i := 0; i < rts.nchunks; i++ {
		g, err := e.awaitRndv(kGrant, i)
		if err != nil {
			return err
		}
		off := i * rts.chunk
		n := min(rts.chunk, rts.size-off)
		reg, regOff := held, off
		if held == nil {
			// Overlap window: the receiver's registration (g.cost) and the
			// previous chunk's transfer (prevXfer) were concurrent with the
			// acquire below; rewind to the window start, do the acquire,
			// then close the window at the maximum of the three costs.
			if overlap {
				e.meter.Retreat(g.cost)
			}
			obs, sp := e.chunkSpanBegin(trace.KindChunkReg, i, n)
			sw := e.meter.Start()
			reg, err = e.cache.Acquire(b, off, n, e.payloadAttrs(false), regcache.ClassUser)
			regCost := sw.Elapsed()
			e.chunkSpanEnd(obs, sp, trace.KindChunkReg, err == nil, i)
			if err != nil {
				return e.rndvAbort(abortDegrade, i, err)
			}
			if overlap {
				if d := max(prevXfer, g.cost, regCost) - regCost; d > 0 {
					e.meter.Charge(d)
				}
			}
			// The previous chunk stays registered until this acquire has
			// succeeded, so a failure above unwinds with nothing leaked.
			if acquired != nil {
				_ = e.cache.Release(acquired)
			}
			acquired, regOff = reg, 0
		}

		obs, sp := e.chunkSpanBegin(trace.KindChunkXfer, i, n)
		sw := e.meter.Start()
		err = e.rndvWrite(reg, regOff, n, g)
		e.chunkSpanEnd(obs, sp, trace.KindChunkXfer, err == nil, i)
		if err != nil {
			return e.rndvAbort(abortTransport, i, err)
		}
		fin := ctrlMsg{kind: kFin, idx: i}
		if overlap {
			prevXfer = sw.Elapsed()
			fin.cost = prevXfer
		}
		e.sendCtrl(fin)
	}
	return nil
}

// rndvWrite moves n bytes of reg, from regOff, into the granted region
// as a train of RDMA writes no larger than the VI's MaxTransferSize.
// Every piece is armed here, on the endpoint's one send descriptor; any
// refused post or failed completion is a transport failure.
func (e *Endpoint) rndvWrite(reg *vipl.MemRegion, regOff, n int, g ctrlMsg) error {
	piece := e.vi.MaxTransferSize()
	for done := 0; done < n; done += piece {
		d := e.armSend(via.OpRDMAWrite, reg.Seg(regOff+done, min(piece, n-done)))
		d.Remote = via.RemoteSegment{Handle: g.handle, Offset: g.offset + done}
		if err := e.vi.PostSend(d); err != nil {
			return fmt.Errorf("%w: rendezvous post: %w", ErrTransport, err)
		}
		if st := e.waitDesc(d); st != via.StatusSuccess {
			return fmt.Errorf("%w: rendezvous RDMA write failed: %v", ErrTransport, st)
		}
	}
	return nil
}

// rndvRecv is the receiver loop: grant chunk i, await its FIN, and only
// after granting chunk i+1 release chunk i's registration, so at most
// two are live.  Each grant rewinds first by the transfer cost the FIN
// reported, so a registration's sim-time span overlaps the transfer it
// hid behind (the sender's deficit charge closes each window; see
// rndvSend).  held, when non-nil, is the caller's whole-buffer
// registration: grants are windows of it and cost nothing.  A remap RTS
// without one lands in donated staging frames, granted the same way and
// adopted into b after the final FIN.
func (e *Endpoint) rndvRecv(b *proc.Buffer, m ctrlMsg, held *vipl.MemRegion) (int, error) {
	if m.size > b.Bytes {
		return 0, e.rndvAbort(abortRefused, 0,
			fmt.Errorf("%w: message %d, buffer %d", ErrTooSmall, m.size, b.Bytes))
	}
	var stage staging
	if m.remap && held == nil {
		var err error
		if stage, err = e.stageFrames(m.size); err != nil {
			return 0, e.rndvAbort(abortDegrade, 0, err)
		}
		held = stage.reg
	}
	var acquired *vipl.MemRegion
	defer func() {
		if acquired != nil {
			_ = e.cache.Release(acquired)
		}
	}()
	var prevXfer simtime.Duration
	for i := 0; i < m.nchunks; i++ {
		off := i * m.chunk
		g := ctrlMsg{kind: kGrant, idx: i, offset: off}
		e.meter.Retreat(prevXfer)
		if held != nil {
			g.handle = held.Handle()
			e.sendCtrl(g)
		} else {
			n := min(m.chunk, m.size-off)
			obs, sp := e.chunkSpanBegin(trace.KindChunkReg, i, n)
			sw := e.meter.Start()
			reg, err := e.cache.Acquire(b, off, n, e.payloadAttrs(true), regcache.ClassUser)
			g.cost = sw.Elapsed()
			e.chunkSpanEnd(obs, sp, trace.KindChunkReg, err == nil, i)
			if err != nil {
				return 0, e.rndvAbort(abortDegrade, i, err)
			}
			g.handle, g.offset = reg.Handle(), 0
			e.sendCtrl(g)
			if acquired != nil {
				_ = e.cache.Release(acquired)
			}
			acquired = reg
		}
		fin, err := e.awaitRndv(kFin, i)
		if err != nil {
			if stage.reg != nil {
				e.unstage(stage)
			}
			return 0, err
		}
		prevXfer = fin.cost
	}
	if stage.reg != nil {
		if n, err := e.adoptStaged(b, stage, m.size); err != nil {
			return n, err
		}
	}
	e.stats.RecvMsgs++
	e.stats.RecvBytes += uint64(m.size)
	return m.size, nil
}
