// Package msg is a small message-passing library over the VIA stack,
// modelled on the CHEMPI protocols the paper motivates: an eager path
// through pre-registered bounce buffers for short messages, a one-copy
// path that streams chunks from registered user memory into the
// receiver's bounce ring, and a zero-copy rendezvous that registers the
// user buffers on the fly (through the registration cache) and moves the
// payload with RDMA writes (rendezvous.go).
//
// Control traffic (the "message info structs" the original keeps in SCI
// shared memory) travels over a per-endpoint control channel and is
// charged wire latency plus a small PIO cost.
package msg

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/mm"
	"repro/internal/phys"
	"repro/internal/proc"
	"repro/internal/regcache"
	"repro/internal/simtime"
	"repro/internal/via"
	"repro/internal/vipl"
)

// Protocol selects a transfer strategy.
type Protocol string

// The transfer protocols.
const (
	// Eager copies through pre-registered bounce buffers (two copies, no
	// registration on the fast path) — best for short messages.
	Eager Protocol = "eager"
	// OneCopy sends from registered user memory into the receiver's
	// bounce ring (one copy at the receiver).
	OneCopy Protocol = "onecopy"
	// ZeroCopy registers both user buffers and RDMA-writes the payload.
	ZeroCopy Protocol = "zerocopy"
	// Remap is the ownership-transfer protocol (Power's
	// memory-protection zero-copy): the sender revokes write permission
	// on the payload for the transfer's duration — concurrent stores
	// surface as typed ErrWriteDuringFlight or degrade copy-on-touch per
	// Options.ScribblePolicy — and the receiver delivers page-aligned
	// payloads by exchanging kernel-donated staging frames into its page
	// table instead of scatter-copying.  Sub-page payloads and declined
	// grants fall back to the one-copy path, still under the guard.
	Remap Protocol = "remap"
	// ProtectSend is the paper-facing name for Remap.
	ProtectSend = Remap
	// Auto picks a protocol from the message size.
	Auto Protocol = "auto"
)

// ScribblePolicy selects what happens when the application stores to a
// Remap/ProtectSend payload while it is in flight.
type ScribblePolicy uint8

const (
	// ScribbleFail (the default) fails the writer with a typed
	// ErrWriteDuringFlight on the faulting goroutine.
	ScribbleFail ScribblePolicy = iota
	// ScribbleCopy degrades copy-on-touch: the writer gets a private
	// copy of the page and proceeds; the transfer sends the original
	// pinned snapshot.
	ScribbleCopy
)

// Ring geometry: R bounce slots of SlotSize bytes per endpoint.
const (
	// SlotSize is one bounce slot (4 pages).
	SlotSize = 4 * phys.PageSize
	// RingSlots is the number of pre-posted bounce slots.
	RingSlots = 8
)

// Protocol switch points for Auto (tunable; see the crossover bench).
const (
	// EagerMax is the largest message sent eagerly.
	EagerMax = 8 * 1024
	// OneCopyMax is the largest message sent by chunked one-copy.
	OneCopyMax = 128 * 1024
)

// Pipelined-rendezvous defaults.
const (
	// DefaultPipelineChunk is the rendezvous pipeline chunk size.
	DefaultPipelineChunk = 64 * 1024
	// DefaultPipelineDepth double-buffers the pipeline: the next chunk's
	// registration is acquired while the previous chunk's RDMA is in
	// flight.
	DefaultPipelineDepth = 2
)

// Options tunes an endpoint's protocol thresholds and rendezvous
// pipeline.  The zero value of every field selects the default, so
// Options{} is equivalent to passing no options at all.
type Options struct {
	// EagerMax is the largest message Auto sends eagerly (0 = the
	// package-level EagerMax).
	EagerMax int
	// OneCopyMax is the largest message Auto sends by chunked one-copy
	// (0 = the package-level OneCopyMax).
	OneCopyMax int
	// PipelineDepth selects the rendezvous schedule: 0 picks
	// DefaultPipelineDepth; 1 keeps each chunk's registration and
	// transfer in strict lockstep (the overlap ablation); >= 2
	// double-buffers, hiding each chunk's registration behind the
	// previous chunk's transfer.  The deterministic schedule never holds
	// more than two chunks in flight, so depths above 2 behave exactly
	// like 2 (DESIGN.md §9).
	PipelineDepth int
	// PipelineChunk is the rendezvous chunk size in bytes (0 =
	// DefaultPipelineChunk).  A chunk at least as large as the message
	// makes the transfer a single grant: whole-buffer registration, then
	// the payload — the serialized rendezvous.
	PipelineChunk int
	// NoPin registers payload buffers pin-free (RegNoPin): the kernel
	// may evict their pages mid-transfer and the NIC recovers through IO
	// page faults.  The endpoint's own ring and bounce buffers stay
	// pinned — they are NIC-owned infrastructure, not user payload.
	NoPin bool
	// RingSlots / SlotBytes size the bounce ring (0 = the package-level
	// RingSlots / SlotSize).  Worlds with thousands of endpoints shrink
	// both to keep the pre-registered footprint O(ranks·log ranks)
	// affordable.
	RingSlots int
	SlotBytes int
	// Mux shares one completion poller across every endpoint created
	// with it: the endpoint's VI delivers completions to the mux's CQ
	// and descriptor waits go through CQMux.WaitDesc instead of each
	// descriptor's own channel — the epoll analogue, O(1) goroutines
	// per world instead of per VI.
	Mux *via.CQMux
	// SharedCache, when non-nil, replaces the endpoint's private
	// registration cache: all endpoints of one rank share it, so a
	// buffer registered for one peer is a cache hit when sent to the
	// next (the cross-iteration reuse MPICH2 builds on).
	SharedCache *regcache.Cache
	// RDMAEager switches the inline protocols to the MPICH2 RDMA-write
	// fast path: the sender writes each chunk directly into the peer's
	// pre-registered ring slot with an RDMA write and the receiver
	// polls the slot instead of posting receive descriptors — no
	// receive-descriptor matching, no repost doorbells, no
	// receiver-side DMA startup on the critical path.
	RDMAEager bool
	// RecvTimeout bounds how long Recv blocks waiting for the next
	// control announcement (0 = block forever, the default).  A timed
	// out Recv returns ErrRecvTimeout without consuming anything; the
	// endpoint stays usable.  Collective layers use this to detect a
	// dead partner and run their own abort protocol instead of hanging.
	RecvTimeout time.Duration
	// ScribblePolicy selects the Remap/ProtectSend write-guard policy:
	// ScribbleFail (default) fails a concurrent writer with
	// ErrWriteDuringFlight; ScribbleCopy degrades copy-on-touch.
	ScribblePolicy ScribblePolicy
}

// payloadAttrs builds the registration attributes for user payload
// buffers, honouring the endpoint's pin-free option.
func (e *Endpoint) payloadAttrs(rdmaWrite bool) via.MemAttrs {
	return via.MemAttrs{EnableRDMAWrite: rdmaWrite, NoPin: e.opts.NoPin}
}

// withDefaults fills zero fields with the package defaults.
func (o Options) withDefaults() Options {
	if o.EagerMax == 0 {
		o.EagerMax = EagerMax
	}
	if o.OneCopyMax == 0 {
		o.OneCopyMax = OneCopyMax
	}
	if o.PipelineDepth <= 0 {
		o.PipelineDepth = DefaultPipelineDepth
	}
	if o.PipelineChunk == 0 {
		o.PipelineChunk = DefaultPipelineChunk
	}
	if o.RingSlots <= 0 {
		o.RingSlots = RingSlots
	}
	if o.SlotBytes <= 0 {
		o.SlotBytes = SlotSize
	}
	return o
}

// Stats counts endpoint activity.
type Stats struct {
	SentMsgs   uint64
	SentBytes  uint64
	RecvMsgs   uint64
	RecvBytes  uint64
	EagerSends uint64
	// InlineSends counts eager sends that took the inline-descriptor
	// fast path (a subset of EagerSends).
	InlineSends uint64
	OneCopies   uint64
	ZeroCopies  uint64
	// PipelinedSends counts sends that completed through the rendezvous
	// engine over registered buffers (every ZeroCopy and persistent
	// send); PipelineChunks the grants they moved — one for a
	// single-grant transfer.
	PipelinedSends uint64
	PipelineChunks uint64
	// PipelineFallbacks counts such rendezvous that degraded to the
	// one-copy path after a chunk registration fault.
	PipelineFallbacks uint64
	// Remap protocol activity: RemapSends/RemapRecvs count completed
	// ownership-transfer messages, RemapPages the frames exchanged into
	// the receiver's page table, RemapTailBytes the unaligned tail bytes
	// that fell back to a copy, and RemapFallbacks the sends the
	// receiver declined (degraded to one-copy under the guard).
	RemapSends     uint64
	RemapRecvs     uint64
	RemapPages     uint64
	RemapTailBytes uint64
	RemapFallbacks uint64
	// ScribbleFaults counts application stores caught against in-flight
	// ProtectSend payloads (either policy).
	ScribbleFaults uint64
}

// Errors returned by endpoints.
var (
	ErrEmptyMessage = errors.New("msg: empty message")
	ErrTooSmall     = errors.New("msg: receive buffer smaller than message")
	ErrNotPaired    = errors.New("msg: endpoint not paired")
	// ErrTransport marks a failure of the underlying VI connection (a
	// faulted chunk, a flushed ring slot, a post refused by the error
	// state).  With reliability enabled these are retried; without, they
	// surface to the caller.
	ErrTransport = errors.New("msg: transport failure")
	// ErrRetriesExhausted reports a reliable send that failed every
	// attempt; the peer is told to stop waiting via kAbort.
	ErrRetriesExhausted = errors.New("msg: retries exhausted")
	// ErrPeerAborted reports that the peer gave up on the transfer: a
	// reliable sender out of retries, or a rendezvous receiver whose
	// buffer cannot hold the message.
	ErrPeerAborted = errors.New("msg: peer aborted transfer")
	// ErrRecvTimeout reports that Recv waited longer than the
	// endpoint's RecvTimeout for the next message announcement.
	ErrRecvTimeout = errors.New("msg: receive timed out")
	// ErrWriteDuringFlight is mm.ErrWriteDuringFlight re-exported: the
	// typed error a goroutine storing to an in-flight ProtectSend
	// payload observes under the fail-fast scribble policy.
	ErrWriteDuringFlight = mm.ErrWriteDuringFlight
)

type ctrlKind uint8

const (
	kInline     ctrlKind = iota // eager/one-copy announcement
	kRTS                        // rendezvous: request to send (size, chunking, remap mode)
	kGrant                      // rendezvous: one chunk's remote handle and offset
	kFin                        // rendezvous: one chunk's RDMA writes completed
	kRndvAbort                  // rendezvous: unwind, for the reason carried
	kReset                      // reliability: sender starts connection recovery
	kResetAck                   // reliability: receiver has reset its VI
	kRingRepost                 // reliability: connection is back, repost your ring
	kAbort                      // reliability: sender gave up, stop waiting
	kDone                       // reliability: receiver delivered the sequence number
)

type ctrlMsg struct {
	kind    ctrlKind
	size    int
	nchunks int
	handle  via.MemHandle
	// seq numbers reliable messages so a retransmit after a dropped
	// completion (data delivered, sender unsure) is detected and
	// discarded by the receiver instead of delivered twice.
	seq uint64
	// Rendezvous fields: chunk is the chunk size and remap the delivery
	// mode (both carried by the RTS), idx the chunk index, offset the
	// byte offset within the granted region the chunk lands at, cost the
	// sim-time the peer spent on the operation the message reports — the
	// other side's overlap accounting rewinds by it (DESIGN.md §9) — and
	// reason why an ABORT was sent.
	chunk  int
	remap  bool
	idx    int
	offset int
	cost   simtime.Duration
	reason abortReason
}

// ctrlBytes approximates the size of one control struct on the wire.
const ctrlBytes = 64

// Endpoint is one end of a paired message channel.  An endpoint is not
// safe for concurrent use: one goroutine may call Send and one other may
// concurrently be in Recv on the PEER, but a single endpoint's methods
// must not be called concurrently.
type Endpoint struct {
	name  string
	nic   *vipl.Nic
	vi    *via.VI
	cache *regcache.Cache
	meter *simtime.Meter

	peer *Endpoint
	nw   *via.Network // set by Pair; recovery reconnects through it
	ctrl chan ctrlMsg
	// rctrl carries the reliability traffic (handshake and delivery
	// acks) out of band from the data announcements, so a sender waiting
	// for a kResetAck or kDone never consumes a message meant for Recv.
	rctrl chan ctrlMsg
	// heldRctrl is a reliability message Recv has read but holds back
	// until the data announcements sent before it are consumed (nextCtrl).
	heldRctrl ctrlMsg
	holding   bool
	// credits gate this endpoint's inline sends: one token per free
	// receive slot at the peer.  The peer refills it after reposting.
	credits chan struct{}

	// obs is the attached observer (set through AttachObs, nil in
	// production).
	obs atomic.Pointer[epObs]

	// urgent is the out-of-band token sink fed by the peer's Notify
	// (nil unless SetUrgentSink was called).
	urgent atomic.Pointer[func(uint64)]

	// Reliability layer (nil unless EnableReliability was called).
	rel           *relState
	nextSeq       uint64 // last sequence number this side assigned
	lastDelivered uint64 // highest sequence delivered to the application

	// bounce ring (receive side) and one send bounce slot.  ringSlots
	// and slotSize are the per-endpoint geometry (Options, defaulted).
	ringBuf   *proc.Buffer
	ringReg   *vipl.MemRegion
	ringDescs []*via.Descriptor
	ringSlots int
	slotSize  int
	rxIdx     uint64

	// RDMA-eager state: the peer's ring handle (RDMA-write target),
	// the sender-side slot cursor, and the flag-poll channel — the
	// sender raises a token when a chunk's RDMA write has landed in
	// the peer's ring (the receiver's poll on the slot's dirty flag; a
	// negative token poisons the in-flight message after a fault).
	peerRing  via.MemHandle
	txIdx     uint64
	rdmaReady chan int

	sendBuf *proc.Buffer
	sendReg *vipl.MemRegion

	// sendDesc is the endpoint's reusable send descriptor (inline image,
	// ring chunk, RDMA-eager write, rendezvous write train); an endpoint
	// has at most one such send in flight.
	sendDesc *via.Descriptor

	// Batched-repost scratch: slot indices accumulated by recvInline and
	// the descriptor slice handed to PostRecvBatch.  Reused so the
	// receive path does not allocate per flush.
	repostSlots []int
	repostDescs []*via.Descriptor

	opts  Options
	stats Stats

	// scribbles counts guarded write faults against this endpoint's
	// in-flight ProtectSend payloads.  It is atomic because the guard
	// callback runs on the faulting (application) goroutine, not the
	// sender's.
	scribbles atomic.Uint64
}

// NewEndpoint builds an endpoint for a process on its NIC handle.
// cacheRegions bounds the registration cache (0 = unbounded).  At most
// one Options value may follow; omitted (or zero) fields keep the
// package defaults.
func NewEndpoint(name string, nic *vipl.Nic, meter *simtime.Meter, cacheRegions int, opts ...Options) (*Endpoint, error) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	o = o.withDefaults()
	e := &Endpoint{
		name:      name,
		nic:       nic,
		meter:     meter,
		opts:      o,
		ctrl:      make(chan ctrlMsg, 4*o.RingSlots),
		rctrl:     make(chan ctrlMsg, 4*o.RingSlots),
		credits:   make(chan struct{}, o.RingSlots),
		ringSlots: o.RingSlots,
		slotSize:  o.SlotBytes,
		ringDescs: make([]*via.Descriptor, o.RingSlots),
	}
	if o.SharedCache != nil {
		e.cache = o.SharedCache
	} else {
		e.cache = regcache.New(nic, cacheRegions)
	}
	if o.RDMAEager {
		e.rdmaReady = make(chan int, 4*o.RingSlots)
	}
	var err error
	if o.Mux != nil {
		e.vi, err = nic.CreateViCQ(o.Mux.CQ())
	} else {
		e.vi, err = nic.CreateVi()
	}
	if err != nil {
		return nil, err
	}
	if e.ringBuf, err = nic.Process().Malloc(e.ringSlots * e.slotSize); err != nil {
		return nil, err
	}
	// In RDMA-eager mode the ring is the peer's RDMA-write target.
	if e.ringReg, err = nic.RegisterMem(e.ringBuf, via.MemAttrs{EnableRDMAWrite: o.RDMAEager}); err != nil {
		return nil, err
	}
	if e.sendBuf, err = nic.Process().Malloc(e.slotSize); err != nil {
		return nil, err
	}
	if e.sendReg, err = nic.RegisterMem(e.sendBuf, via.MemAttrs{}); err != nil {
		return nil, err
	}
	return e, nil
}

// Pair connects two endpoints over the fabric and pre-posts both bounce
// rings.
func Pair(nw *via.Network, a, b *Endpoint) error {
	if err := nw.Connect(a.vi, b.vi); err != nil {
		return err
	}
	a.peer, b.peer = b, a
	a.nw, b.nw = nw, nw
	a.peerRing, b.peerRing = b.ringReg.Handle(), a.ringReg.Handle()
	for _, e := range []*Endpoint{a, b} {
		// One batched post covers the whole ring (RDMA-eager rings take
		// writes directly — repostRing just grants the credits there).
		if err := e.repostRing(); err != nil {
			return err
		}
	}
	return nil
}

// peerGrantCredit refills one send credit at the peer.
func (e *Endpoint) peerGrantCredit() {
	e.peer.credits <- struct{}{}
}

// rearm returns a descriptor ready for another post: d itself when it
// has completed — forgotten by the mux first, so nothing its previous
// life parked there can match the next one, then Reset — and a fresh
// one otherwise (first use, or a d whose post was refused or that is
// still queued on a dead connection, which must not be Reset).
func (e *Endpoint) rearm(d *via.Descriptor) *via.Descriptor {
	if d != nil && e.opts.Mux != nil {
		e.opts.Mux.Forget(d)
	}
	if d == nil || !d.Completed() {
		return new(via.Descriptor)
	}
	d.Reset()
	return d
}

// armSlot re-arms the ring slot's receive descriptor for posting.
//
// Slot 0 takes a fresh Segs slice on every ring wrap, on purpose (24 B
// per RingSlots messages, the one allocation left on the eager paths):
// the repository's benchmark, which a change claiming a gain may not
// edit, rejects allocs_per_op == 0 (benchmark.TestOutputNames; DESIGN.md
// "Allocation discipline").  Delete the clause once it accepts zero.
func (e *Endpoint) armSlot(slot int) *via.Descriptor {
	d := e.rearm(e.ringDescs[slot])
	if len(d.Segs) == 0 || slot == 0 {
		d.Op, d.Segs = via.OpRecv, []via.Segment{e.ringReg.Seg(slot*e.slotSize, e.slotSize)}
	}
	e.ringDescs[slot] = d
	return d
}

// armSend re-arms the endpoint's send descriptor as an op over segs;
// with none, the caller fills in the inline image.
func (e *Endpoint) armSend(op via.Op, segs ...via.Segment) *via.Descriptor {
	d := e.rearm(e.sendDesc)
	d.Op, d.Segs, d.Remote = op, append(d.Segs[:0], segs...), via.RemoteSegment{}
	e.sendDesc = d
	return d
}

// postSlot (re)posts the ring slot's receive descriptor.
func (e *Endpoint) postSlot(slot int) error {
	err := e.vi.PostRecv(e.armSlot(slot))
	if err != nil {
		e.ringDescs[slot] = nil // see flushReposts
	}
	return err
}

// takeCredit waits for a free ring slot at the peer.  With none in hand
// on a VI already in the error state it fails instead: the ring died
// with the connection, and only the recovery this error sets off brings
// credits back.
func (e *Endpoint) takeCredit() error {
	if len(e.credits) == 0 && e.vi.State() == via.VIError {
		return fmt.Errorf("%w: no ring credit", via.ErrVIErrorState)
	}
	<-e.credits
	return nil
}

// waitDesc waits for a descriptor's completion: through the shared
// poller when the endpoint is mux-attached, directly otherwise.  An
// empty ring slot (flushReposts) reads as cancelled.
func (e *Endpoint) waitDesc(d *via.Descriptor) via.Status {
	if d == nil {
		return via.StatusCancelled
	}
	if e.opts.Mux != nil {
		return e.opts.Mux.WaitDesc(d)
	}
	return d.Wait()
}

// rdmaToken signals the peer that one RDMA-eager chunk landed in its
// ring (n = byte count), or poisons the in-flight message (n < 0) so a
// receiver blocked on the slot flag observes the fault and falls into
// the recovery path.
func (e *Endpoint) rdmaToken(n int) {
	e.peer.rdmaReady <- n
}

// drainRdmaReady discards leftover slot tokens from a sender's failed
// attempts (recovery resets both cursors to slot zero).
func (e *Endpoint) drainRdmaReady() {
	if e.rdmaReady == nil {
		return
	}
	for {
		select {
		case <-e.rdmaReady:
		default:
			return
		}
	}
}

// SetUrgentSink registers a callback for urgent tokens delivered by
// the peer's Notify.  The sink runs on the notifier's goroutine, so it
// must be safe for concurrent use (an atomic flag, typically).
func (e *Endpoint) SetUrgentSink(fn func(uint64)) {
	e.urgent.Store(&fn)
}

// Notify rings the peer's urgent doorbell with a token, out of band
// from the data path: no credits, no ring slots, no blocking — the
// control channel analogue of VIA's connection notify.  Collective
// layers use it to cascade aborts without deadlocking against a
// clogged ring.  The token is dropped if the peer has no sink.
func (e *Endpoint) Notify(tok uint64) error {
	if e.peer == nil {
		return ErrNotPaired
	}
	e.meter.Charge(e.meter.Costs.WireLatency)
	if fn := e.peer.urgent.Load(); fn != nil {
		(*fn)(tok)
	}
	return nil
}

// sendCtrl delivers a control struct to the peer, charging the PIO
// write, the wire crossing and the peer's polling-detection delay.
// Reliability traffic rides the out-of-band rctrl channel; delivery
// acks are best-effort (dropped if the peer never drains them — the
// sender's ack wait then falls back to the recovery handshake).
func (e *Endpoint) sendCtrl(m ctrlMsg) {
	e.meter.Charge(e.meter.Costs.WireLatency + e.meter.Costs.SyncDetect)
	e.meter.ChargeN(e.meter.Costs.PIOPerByte, ctrlBytes)
	switch m.kind {
	case kReset, kResetAck, kRingRepost, kAbort:
		e.peer.rctrl <- m
	case kDone:
		select {
		case e.peer.rctrl <- m:
		default:
		}
	default:
		e.peer.ctrl <- m
	}
}

// Stats returns a snapshot of endpoint statistics.
func (e *Endpoint) Stats() Stats {
	s := e.stats
	s.ScribbleFaults = e.scribbles.Load()
	return s
}

// Cache exposes the registration cache (for stats and flushing).
func (e *Endpoint) Cache() *regcache.Cache { return e.cache }

// Process returns the endpoint's owning process (for buffer allocation).
func (e *Endpoint) Process() *proc.Process { return e.nic.Process() }

// VI exposes the endpoint's virtual interface (diagnostics).
func (e *Endpoint) VI() *via.VI { return e.vi }

// Choose maps a message size to the protocol Auto would use under the
// default thresholds.
func Choose(size int) Protocol {
	return Options{}.withDefaults().Choose(size)
}

// Choose maps a message size to the protocol Auto would use under these
// (default-filled) options.
func (o Options) Choose(size int) Protocol {
	switch {
	case size <= o.EagerMax:
		return Eager
	case size <= o.OneCopyMax:
		return OneCopy
	default:
		return ZeroCopy
	}
}

// Send transmits the whole buffer with the given protocol and returns
// the byte count.
func (e *Endpoint) Send(b *proc.Buffer, p Protocol) (int, error) {
	if e.peer == nil {
		return 0, ErrNotPaired
	}
	if b.Bytes <= 0 {
		return 0, ErrEmptyMessage
	}
	if p == Auto || p == "" {
		p = e.opts.Choose(b.Bytes)
	}
	switch p {
	case Eager:
		return e.sendReliable(b, true)
	case OneCopy:
		return e.sendReliable(b, false)
	case ZeroCopy:
		return e.sendRndv(b, nil, false)
	case Remap:
		return e.sendRemap(b)
	default:
		return 0, fmt.Errorf("msg: unknown protocol %q", p)
	}
}

// nextCtrl blocks for the next control announcement, servicing the
// out-of-band reliability channel when enabled and honouring the
// endpoint's RecvTimeout.  The timer only exists when a timeout is
// configured; the nil channel arm never fires otherwise.
//
// Out of band must not mean out of order.  A sender that runs ahead
// queues announcements of messages that have landed in the ring, then
// the announcement of the attempt that failed, then the kReset (or
// kAbort) that failure leads to; everything on ctrl at the moment a
// reliability message is read was sent before it.  So the reliability
// message is held back until ctrl is empty: the landed messages are
// delivered, the failed attempt fails fast on its flushed slot, and only
// then does the reset rebuild the ring.  Taken first, it would discard
// the landed messages' announcements as stale and rewind the ring under
// them — messages the sender was told were delivered.
func (e *Endpoint) nextCtrl() (ctrlMsg, error) {
	var timeout <-chan time.Time
	if e.opts.RecvTimeout > 0 {
		t := time.NewTimer(e.opts.RecvTimeout)
		defer t.Stop()
		timeout = t.C
	}
	if e.rel == nil {
		select {
		case m := <-e.ctrl:
			return m, nil
		case <-timeout:
			return ctrlMsg{}, ErrRecvTimeout
		}
	}
	for {
		select {
		case m := <-e.ctrl:
			return m, nil
		default:
		}
		if e.holding {
			e.holding = false
			return e.heldRctrl, nil
		}
		select {
		case m := <-e.ctrl:
			return m, nil
		case m := <-e.rctrl:
			if len(e.ctrl) == 0 {
				return m, nil
			}
			e.heldRctrl, e.holding = m, true
		case <-timeout:
			return ctrlMsg{}, ErrRecvTimeout
		}
	}
}

// Recv receives one message into the buffer and returns its length.
// With reliability enabled it also services the recovery handshake and
// discards retransmitted duplicates of already-delivered messages.
func (e *Endpoint) Recv(b *proc.Buffer) (int, error) {
	return e.recv(b, nil)
}

// recv is Recv with an optional caller-held RDMA-write registration of
// the whole buffer (a persistent receive), which a rendezvous lands in
// instead of registering per chunk.
func (e *Endpoint) recv(b *proc.Buffer, held *vipl.MemRegion) (int, error) {
	if e.peer == nil {
		return 0, ErrNotPaired
	}
	for {
		m, err := e.nextCtrl()
		if err != nil {
			return 0, err
		}
		switch m.kind {
		case kInline:
			if e.rel != nil && m.seq > 0 && m.seq <= e.lastDelivered {
				// Retransmit of a message that already reached the
				// application (the sender's completion was dropped): drain
				// the chunks to keep credits flowing, deliver nothing —
				// but do re-acknowledge the delivery.
				if err := e.drainDuplicate(m); err != nil {
					if !isTransport(err) {
						return 0, err
					}
					continue
				}
				e.sendCtrl(ctrlMsg{kind: kDone, seq: m.seq})
				continue
			}
			n, err := e.recvInline(b, m)
			if err != nil && e.rel != nil && isTransport(err) {
				// The connection died mid-message.  The sender drives
				// recovery and will retransmit; wait for its kReset.
				continue
			}
			if err == nil && e.rel != nil {
				e.lastDelivered = m.seq
				// Delivery ack: lets a sender whose final completion was
				// lost confirm the payload arrived without a retransmit.
				e.sendCtrl(ctrlMsg{kind: kDone, seq: m.seq})
			}
			return n, err
		case kRTS:
			n, err := e.rndvRecv(b, m, held)
			if errors.Is(err, errRndvDegraded) {
				// The rendezvous unwound before the payload was committed;
				// the sender degrades to the one-copy path, whose
				// announcement arrives next.  Keep receiving.
				continue
			}
			return n, err
		case kReset:
			if e.rel == nil {
				return 0, fmt.Errorf("msg: unexpected control message kind %d", m.kind)
			}
			if err := e.handlePeerReset(); err != nil {
				return 0, err
			}
			continue
		case kAbort:
			// The announcements of the peer's failed attempts are now
			// stale; drop them so they cannot alias a later message.
			e.drainStaleData()
			return 0, ErrPeerAborted
		case kDone:
			// Stale delivery ack from this endpoint's earlier role as a
			// sender; drop it.
			continue
		default:
			return 0, fmt.Errorf("msg: unexpected control message kind %d", m.kind)
		}
	}
}

// sendInline implements both eager (with the extra sender copy) and
// one-copy (sending straight from registered user memory).  seq is the
// reliability sequence number (0 when reliability is off).
func (e *Endpoint) sendInline(b *proc.Buffer, eager bool, seq uint64) (int, error) {
	size := b.Bytes
	if eager && !e.opts.RDMAEager && size <= via.MaxInlineData {
		return e.sendInlineDesc(b, seq)
	}
	nchunks := (size + e.slotSize - 1) / e.slotSize
	rdma := e.opts.RDMAEager

	// Acquire the registration before announcing the message: a
	// registration failure must leave no receiver-visible state, so the
	// caller can degrade (e.g. retry eagerly) without stranding the peer
	// waiting for chunks that will never arrive.
	var reg *vipl.MemRegion
	if !eager {
		var err error
		reg, err = e.cache.Acquire(b, 0, size, e.payloadAttrs(false), regcache.ClassUser)
		if err != nil {
			return 0, err
		}
		defer func() { _ = e.cache.Release(reg) }()
	}
	e.sendCtrl(ctrlMsg{kind: kInline, size: size, nchunks: nchunks, seq: seq})

	sent := 0
	var tmp []byte
	if eager {
		var pb *via.PayloadBuf
		tmp, pb = via.GetPayload(min(size, e.slotSize))
		defer via.PutPayload(pb)
	}
	for c := 0; c < nchunks; c++ {
		n := size - sent
		if n > e.slotSize {
			n = e.slotSize
		}
		if err := e.takeCredit(); err != nil {
			if rdma {
				e.rdmaToken(-1)
			}
			return sent, err
		}
		var src via.Segment
		if eager {
			// Copy the chunk into the registered send bounce.
			if err := b.Read(sent, tmp[:n]); err != nil {
				return sent, err
			}
			if err := e.sendBuf.Write(0, tmp[:n]); err != nil {
				return sent, err
			}
			e.meter.ChargeN(e.meter.Costs.PageCopy, (n+phys.PageSize-1)/phys.PageSize)
			src = e.sendReg.Seg(0, n)
		} else {
			src = reg.Seg(sent, n)
		}
		var d *via.Descriptor
		if rdma {
			// MPICH2 RDMA-write fast path: write the chunk straight
			// into the peer's next ring slot; the receiver polls the
			// slot flag instead of matching a receive descriptor.
			slot := int(e.txIdx % uint64(e.ringSlots))
			d = e.armSend(via.OpRDMAWrite, src)
			d.Remote = via.RemoteSegment{Handle: e.peerRing, Offset: slot * e.slotSize}
		} else {
			d = e.armSend(via.OpSend, src)
		}
		if err := e.vi.PostSend(d); err != nil {
			if rdma {
				e.rdmaToken(-1)
			}
			return sent, err
		}
		if st := e.waitChunk(d); st != via.StatusSuccess {
			if rdma {
				// A lost completion still placed the data (the write
				// precedes the completion write-back), so the slot flag
				// is genuinely set; anything else poisons the message.
				if st == via.StatusCompletionLost {
					e.txIdx++
					e.rdmaToken(n)
				} else {
					e.rdmaToken(-1)
				}
			}
			return sent, &chunkError{chunk: c, nchunks: nchunks, status: st}
		}
		if rdma {
			e.txIdx++
			e.rdmaToken(n)
		}
		sent += n
	}
	e.stats.SentMsgs++
	e.stats.SentBytes += uint64(sent)
	if eager {
		e.stats.EagerSends++
	} else {
		e.stats.OneCopies++
	}
	return sent, nil
}

// sendInlineDesc is the small-message fast path: the whole payload is
// copied once, from the user buffer straight into the image of the
// reusable send descriptor, and the NIC delivers it straight into the
// peer's posted ring descriptor — no TPT translation, no gather/scatter
// DMA, no bounce-slot traffic on either side.  Credits and sequence
// numbering are identical to the chunked eager path, so reliability
// retransmits and dedup work unchanged.
func (e *Endpoint) sendInlineDesc(b *proc.Buffer, seq uint64) (int, error) {
	size := b.Bytes
	e.sendCtrl(ctrlMsg{kind: kInline, size: size, nchunks: 1, seq: seq})
	if err := e.takeCredit(); err != nil {
		return 0, err
	}
	d := e.armSend(via.OpSend)
	img, err := d.InlineBuf(size)
	if err != nil {
		return 0, err
	}
	if err := b.Read(0, img); err != nil {
		return 0, err
	}
	if err := e.vi.PostSend(d); err != nil {
		return 0, err
	}
	if st := e.waitChunk(d); st != via.StatusSuccess {
		return 0, &chunkError{chunk: 0, nchunks: 1, status: st}
	}
	e.stats.SentMsgs++
	e.stats.SentBytes += uint64(size)
	e.stats.EagerSends++
	e.stats.InlineSends++
	return size, nil
}

// recvInline drains nchunks ring slots into the user buffer.  Consumed
// slots are reposted in batches (one doorbell per flush instead of one
// per slot); credits are granted only after their slots are back on the
// queue, so the sender can never hit an unposted ring.  The flush
// threshold is at most half the ring, so the withheld credits can never
// stall a sender longer than the receiver's next flush.
func (e *Endpoint) recvInline(b *proc.Buffer, m ctrlMsg) (int, error) {
	if m.size > b.Bytes {
		// The announcement is consumed, so its chunks must be too: left in
		// the ring they would be delivered as the next message.
		if err := e.drainSlots(m.nchunks); err != nil {
			return 0, err
		}
		return 0, fmt.Errorf("%w: message %d, buffer %d", ErrTooSmall, m.size, b.Bytes)
	}
	got := 0
	// Borrowed once a chunk lands in the ring; an inline delivery is read
	// out of the descriptor image instead.
	var tmp []byte
	var pb *via.PayloadBuf
	defer func() { via.PutPayload(pb) }()
	threshold := e.ringSlots / 2
	if threshold < 1 {
		threshold = 1
	}
	e.repostSlots = e.repostSlots[:0]
	for c := 0; c < m.nchunks; c++ {
		slot := int(e.rxIdx % uint64(e.ringSlots))
		var n int
		var inline []byte
		if e.opts.RDMAEager {
			// Poll the slot's dirty flag: the token arrives once the
			// sender's RDMA write has landed; a poison token means the
			// write faulted and the sender is starting recovery.
			tok := <-e.rdmaReady
			if tok < 0 {
				return got, fmt.Errorf("%w: rdma-eager slot %d poisoned", ErrTransport, slot)
			}
			e.meter.Charge(e.meter.Costs.SyncDetect)
			n = tok
		} else {
			d := e.ringDescs[slot]
			if st := e.waitDesc(d); st != via.StatusSuccess {
				return got, fmt.Errorf("%w: ring slot %d failed: %v", ErrTransport, slot, st)
			}
			n = d.Transferred
			inline = d.Inline()
		}
		if inline != nil {
			// Inline delivery: the payload landed in the descriptor
			// image, not the ring slot.  Copy it out directly — a
			// programmed-I/O read of at most MaxInlineData bytes, no
			// page-sized scatter pass.
			if err := b.Write(got, inline); err != nil {
				return got, err
			}
			e.meter.ChargeN(e.meter.Costs.PIOPerByte, n)
		} else {
			if tmp == nil {
				tmp, pb = via.GetPayload(e.slotSize)
			}
			if err := e.ringBuf.Read(slot*e.slotSize, tmp[:n]); err != nil {
				return got, err
			}
			if err := b.Write(got, tmp[:n]); err != nil {
				return got, err
			}
			e.meter.ChargeN(e.meter.Costs.PageCopy, (n+phys.PageSize-1)/phys.PageSize)
		}
		got += n
		e.rxIdx++
		if e.opts.RDMAEager {
			e.peerGrantCredit()
			continue
		}
		e.repostSlots = append(e.repostSlots, slot)
		if len(e.repostSlots) >= threshold {
			if err := e.flushReposts(); err != nil {
				if isTransport(err) && got == m.size {
					// Every chunk landed; only the repost hit the dying
					// connection.  The message is complete — deliver it
					// rather than drop received data.  With reliability on,
					// ring and credits are rebuilt by the recovery handshake
					// and the sender's retransmit (it saw the fault) is
					// discarded by sequence dedup; with it off (a stripe
					// rail), the connection is dead until an explicit reset
					// rebuilds the ring anyway.
					break
				}
				return got, err
			}
		}
	}
	if !e.opts.RDMAEager && len(e.repostSlots) > 0 {
		if err := e.flushReposts(); err != nil && !(isTransport(err) && got == m.size) {
			return got, err
		}
	}
	e.stats.RecvMsgs++
	e.stats.RecvBytes += uint64(got)
	return got, nil
}

// flushReposts reposts the accumulated ring slots with one batched
// doorbell and grants the matching credits.  The pending list is
// cleared whether or not the post succeeds.  A connection already in
// the error state refuses the post; the re-armed descriptors would then
// never complete, so their slots are left empty — a wait on one fails at
// once (waitDesc) instead of hanging — until the recovery handshake's
// repostRing rebuilds the ring from scratch.
func (e *Endpoint) flushReposts() error {
	if len(e.repostSlots) == 0 {
		return nil
	}
	e.repostDescs = e.repostDescs[:0]
	for _, slot := range e.repostSlots {
		e.repostDescs = append(e.repostDescs, e.armSlot(slot))
	}
	slots := e.repostSlots
	e.repostSlots = slots[:0]
	if err := e.vi.PostRecvBatch(e.repostDescs); err != nil {
		for _, slot := range slots {
			e.ringDescs[slot] = nil
		}
		return err
	}
	for range slots {
		e.peerGrantCredit()
	}
	return nil
}
