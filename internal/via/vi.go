package via

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/simtime"
	"repro/internal/trace"
)

// VIState is the lifecycle state of a virtual interface.
type VIState uint8

// VI lifecycle states (the VIA spec's VI state machine, reduced to the
// states the simulator distinguishes).
const (
	// VIIdle means created but not connected.
	VIIdle VIState = iota
	// VIConnected means paired with a peer VI.
	VIConnected
	// VIError means a fault hit the VI: the connection is dead, all
	// posted descriptors have been (or are being) flushed, and new
	// posts are refused with ErrVIErrorState.  The only way out is an
	// explicit Reset followed by a reconnect.
	VIError

	// viStateCount counts the states; the String exhaustiveness test
	// iterates up to it.
	viStateCount
)

func (s VIState) String() string {
	switch s {
	case VIIdle:
		return "idle"
	case VIConnected:
		return "connected"
	case VIError:
		return "error"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Errors returned by VI operations.
var (
	ErrNotConnected = errors.New("via: VI not connected")
	// ErrVIErrorState reports an operation on a VI in the error state;
	// the VI must be Reset and reconnected first.
	ErrVIErrorState = errors.New("via: VI in error state")
	ErrBusy         = errors.New("via: VI already connected")
	// ErrResetConnected reports a Reset of a healthy connected VI
	// (disconnect it instead).
	ErrResetConnected = errors.New("via: Reset on connected VI")
)

// Fault causes recorded when a VI transitions to VIError.
var (
	// ErrDMAFault marks a DMA engine failure (injected or organic).
	ErrDMAFault = errors.New("via: DMA engine fault")
	// ErrTranslationFault marks a TPT translation failure on the data path.
	ErrTranslationFault = errors.New("via: TPT translation fault")
	// ErrLinkDown marks a dropped or partitioned link.
	ErrLinkDown = errors.New("via: link down")
	// ErrCompletionDropped marks a completion the NIC lost; the error
	// machine flushes the descriptor so it still terminates.
	ErrCompletionDropped = errors.New("via: completion dropped")
	// ErrRecvUnderflow marks a send that found no posted receive — fatal
	// on a reliable connection.
	ErrRecvUnderflow = errors.New("via: send with no posted receive")
	// ErrLengthMismatch marks a send larger than the matched receive.
	ErrLengthMismatch = errors.New("via: send exceeds posted receive")
	// ErrNICReset marks a NIC-level fatal fault and driver reset.
	ErrNICReset = errors.New("via: NIC reset")
)

// viUIDs hands every VI a fabric-unique id (all NICs share the counter)
// used for deterministic lock ordering in Connect.
var viUIDs atomic.Uint64

// VI is one virtual interface: a pair of work queues, their doorbells,
// and a protection tag.  A VI talks to exactly one peer VI.
type VI struct {
	nic *NIC
	id  int
	uid uint64 // fabric-unique, for lock ordering
	tag ProtectionTag

	mu       sync.Mutex
	state    VIState
	peer     *VI
	errCause error // why the VI entered VIError (nil otherwise)
	// recvQ plus recvHead form a FIFO that recycles its backing array:
	// popRecv advances recvHead instead of reslicing, and PostRecv
	// compacts before growing, so a drained queue reuses its capacity
	// and the steady-state receive path never allocates.
	recvQ    []*Descriptor
	recvHead int

	// Optional completion queues (set by CreateVIWithCQ).
	sendCQ *CQ
	recvCQ *CQ

	// maxTransfer bounds a single descriptor's payload (the VIA
	// MaxTransferSize attribute); atomic because every post reads it.
	maxTransfer atomic.Int64
}

// DefaultMaxTransferSize is the per-descriptor payload bound a fresh VI
// carries (4 MiB, a generous card of the era).
const DefaultMaxTransferSize = 4 << 20

// ErrTransferTooLarge reports a descriptor exceeding MaxTransferSize.
var ErrTransferTooLarge = errors.New("via: descriptor exceeds MaxTransferSize")

// ErrNegativeSegment reports a descriptor with a segment of negative
// length, refused at post time before the doorbell.
var ErrNegativeSegment = errors.New("via: descriptor segment with negative length")

// checkRecv validates a receive descriptor at post time, like checkSend.
func checkRecv(d *Descriptor) error {
	if d.Op != OpRecv {
		return fmt.Errorf("via: receive post with %v descriptor", d.Op)
	}
	return checkSegs(d)
}

// checkSegs is the segment sanity check every post shares.
func checkSegs(d *Descriptor) error {
	for i, s := range d.Segs {
		if s.Length < 0 {
			return fmt.Errorf("%w: segment %d length %d", ErrNegativeSegment, i, s.Length)
		}
	}
	return nil
}

// MaxTransferSize reports the VI's per-descriptor payload bound.
func (v *VI) MaxTransferSize() int { return int(v.maxTransfer.Load()) }

// SetMaxTransferSize adjusts the bound (values <= 0 restore the default).
func (v *VI) SetMaxTransferSize(n int) {
	if n <= 0 {
		n = DefaultMaxTransferSize
	}
	v.maxTransfer.Store(int64(n))
}

// completeSend finalizes a send-queue descriptor and notifies the CQ.
func (v *VI) completeSend(d *Descriptor, st Status, n int) {
	if won, span, postSim := d.complete(st, n); won {
		v.observeComplete(span, postSim, trace.KindDescSend, st, n, false)
	}
	v.sendCQ.push(Completion{VI: v, Desc: d})
}

// completeRecv finalizes a receive descriptor and notifies the CQ.
func (v *VI) completeRecv(d *Descriptor, st Status, n int) {
	if won, span, postSim := d.complete(st, n); won {
		v.observeComplete(span, postSim, trace.KindDescRecv, st, n, true)
	}
	v.recvCQ.push(Completion{VI: v, Desc: d, Recv: true})
}

// flushRecvs completes the receive descriptors an error, reset or
// disconnect took off the queue with StatusCancelled.
func (v *VI) flushRecvs(ds []*Descriptor) {
	v.nic.ctr.descFlushed.Add(uint64(len(ds)))
	for _, d := range ds {
		v.completeRecv(d, StatusCancelled, 0)
	}
}

// observeComplete closes a descriptor's lifecycle span and records its
// post-to-complete virtual latency.  Only the winning completion calls
// it, so every posted span ends exactly once.  span and postSim are the
// descriptor's stamps as complete captured them: the descriptor itself
// may already be recycled by its owner.
func (v *VI) observeComplete(span trace.SpanID, postSim simtime.Duration, k trace.Kind, st Status, n int, recv bool) {
	obs := v.nic.obs.Load()
	if obs == nil || span == 0 {
		return
	}
	obs.trc.End(span, k, uint64(st), uint64(n))
	h := obs.descSend
	if recv {
		h = obs.descRecv
	}
	h.Observe(int64(v.nic.meter.Now() - postSim))
}

// ID returns the VI number on its NIC.
func (v *VI) ID() int { return v.id }

// Tag returns the VI's protection tag.
func (v *VI) Tag() ProtectionTag { return v.tag }

// NIC returns the owning NIC.
func (v *VI) NIC() *NIC { return v.nic }

// State returns the current lifecycle state.
func (v *VI) State() VIState {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.state
}

func (v *VI) String() string {
	return fmt.Sprintf("%s/vi%d", v.nic.name, v.id)
}

// postGateLocked is the admission rule every post shares (mu held):
// only a connected VI takes work.
func (v *VI) postGateLocked() error {
	switch v.state {
	case VIError:
		return fmt.Errorf("%w (cause: %v)", ErrVIErrorState, v.errCause)
	case VIIdle:
		return ErrNotConnected
	}
	return nil
}

// PostRecv places a receive descriptor on the VI's receive queue and
// rings the receive doorbell.  Per the VIA rules the descriptor must be
// posted before the peer's matching send starts.
func (v *VI) PostRecv(d *Descriptor) error {
	if err := checkRecv(d); err != nil {
		return err
	}
	v.nic.ringDoorbell(1)
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.postGateLocked(); err != nil {
		return err
	}
	v.pushRecvLocked(d, v.nic.obs.Load())
	return nil
}

// PostRecvBatch posts every descriptor in ds on the receive queue with a
// single doorbell ring: the queue writes are still one per descriptor,
// but the NIC is woken once for the whole batch, which is what the msg
// layer's ring repost and the collective loops want.  Validation is
// all-or-nothing: a bad descriptor fails the call before any descriptor
// is queued.  Descriptors are queued in slice order.
func (v *VI) PostRecvBatch(ds []*Descriptor) error {
	if len(ds) == 0 {
		return nil
	}
	for _, d := range ds {
		if err := checkRecv(d); err != nil {
			return err
		}
	}
	v.nic.ringDoorbell(len(ds))
	v.nic.ctr.batchPosts.Add(1)
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.postGateLocked(); err != nil {
		return err
	}
	obs := v.nic.obs.Load()
	for _, d := range ds {
		v.pushRecvLocked(d, obs)
	}
	return nil
}

// pushRecvLocked appends one receive descriptor to the queue (mu held),
// compacting the popped prefix before the array would grow.
func (v *VI) pushRecvLocked(d *Descriptor, obs *nicObs) {
	if v.recvHead > 0 && len(v.recvQ) == cap(v.recvQ) {
		// Reclaim the popped prefix before growing the array.
		n := copy(v.recvQ, v.recvQ[v.recvHead:])
		clear(v.recvQ[n:])
		v.recvQ = v.recvQ[:n]
		v.recvHead = 0
	}
	v.recvQ = append(v.recvQ, d)
	if obs != nil {
		d.span = obs.trc.Begin(trace.KindDescRecv, v.uid, uint64(d.TotalLength()))
		d.postSim = v.nic.meter.Now()
	}
}

// PostSend places a send or RDMA descriptor on the send queue and rings
// the send doorbell.  In the default synchronous mode the simulated DMA
// engine processes the descriptor before PostSend returns; after
// NIC.StartEngine it is processed in the background in posting order.
// Either way, completion status and any data-path error are reported
// through the descriptor (poll Status, Wait, or a CQ), as on real
// hardware; PostSend itself only fails for posting errors.
func (v *VI) PostSend(d *Descriptor) error {
	if err := v.checkSend(d); err != nil {
		return err
	}
	if err := v.sendGate(); err != nil {
		return err
	}
	v.stampSend(d, v.nic.obs.Load())
	v.nic.dispatch(v, d, nil)
	return nil
}

// PostSendBatch posts every descriptor in ds with a single doorbell
// ring and — in engine mode — a single lane enqueue, so a burst of N
// small sends costs one wakeup instead of N.  Per-VI processing order
// is slice order, exactly as N PostSend calls would give.  Validation
// is all-or-nothing: any bad descriptor fails the call before anything
// is posted.  The NIC owns ds (slice and descriptors) until every
// descriptor in the batch reaches a terminal status.
func (v *VI) PostSendBatch(ds []*Descriptor) error {
	if len(ds) == 0 {
		return nil
	}
	for _, d := range ds {
		if err := v.checkSend(d); err != nil {
			return err
		}
	}
	if err := v.sendGate(); err != nil {
		return err
	}
	obs := v.nic.obs.Load()
	for _, d := range ds {
		v.stampSend(d, obs)
	}
	v.nic.ctr.batchPosts.Add(1)
	v.nic.dispatch(v, ds[0], ds[1:])
	return nil
}

// sendGate admits a send post: postGateLocked under the VI lock.  A
// send admitted just before the VI leaves VIConnected is flushed by
// NIC.process, so the gate need not stay closed across the dispatch.
func (v *VI) sendGate() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.postGateLocked()
}

// stampSend prepares an admitted send for the NIC.  An inline send pays
// for building the descriptor image here: the CPU writes the payload
// into it with programmed I/O, which is the price of skipping the
// gather DMA later.  With an observer attached the descriptor's
// lifecycle span and post time start here too.
func (v *VI) stampSend(d *Descriptor, obs *nicObs) {
	if d.IsInline() {
		v.nic.meter.ChargeN(v.nic.meter.Costs.PIOPerByte, d.inlineLen)
	}
	if obs != nil {
		d.span = obs.trc.Begin(trace.KindDescSend, v.uid, uint64(d.TotalLength()))
		d.postSim = v.nic.meter.Now()
	}
}

// checkSend validates a send-side descriptor at post time: operation,
// inline rules (OpSend only, within MaxInlineData), segment lengths, and
// the MaxTransferSize attribute.
func (v *VI) checkSend(d *Descriptor) error {
	switch d.Op {
	case OpSend, OpRDMAWrite, OpRDMARead:
	default:
		return fmt.Errorf("via: PostSend with %v descriptor", d.Op)
	}
	if d.IsInline() {
		if d.Op != OpSend {
			return fmt.Errorf("via: inline payload on %v descriptor", d.Op)
		}
		if d.inlineLen > MaxInlineData {
			return fmt.Errorf("%w: %d > %d", ErrInlineTooLarge, d.inlineLen, MaxInlineData)
		}
	}
	if err := checkSegs(d); err != nil {
		return err
	}
	if n, limit := d.TotalLength(), v.MaxTransferSize(); n > limit {
		return fmt.Errorf("%w: %d > %d", ErrTransferTooLarge, n, limit)
	}
	return nil
}

// RecvQueueLen reports how many receive descriptors are posted.
func (v *VI) RecvQueueLen() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.recvQ) - v.recvHead
}

// popRecv takes the head of the receive queue (nil when empty).
func (v *VI) popRecv() *Descriptor {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.recvHead >= len(v.recvQ) {
		return nil
	}
	d := v.recvQ[v.recvHead]
	v.recvQ[v.recvHead] = nil
	v.recvHead++
	if v.recvHead == len(v.recvQ) {
		v.recvQ = v.recvQ[:0]
		v.recvHead = 0
	}
	return d
}

// ErrorCause reports why the VI is in the error state (nil otherwise).
func (v *VI) ErrorCause() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.errCause
}

// enterError is the VIA spec's error-state transition: the VI (and its
// peer — the reliable connection is dead) moves to VIError, every posted
// receive descriptor is flushed with StatusCancelled, and new posts are
// refused with ErrVIErrorState until an explicit Reset.  Send
// descriptors still queued in engine lanes are flushed with
// StatusConnectionError when their lane dequeues them (see
// NIC.process), so every posted descriptor reaches a terminal status.
func (v *VI) enterError(cause error) {
	v.mu.Lock()
	if v.state == VIError {
		v.mu.Unlock()
		return
	}
	peer := v.peer
	v.state = VIError
	v.errCause = cause
	pending := v.recvQ[v.recvHead:]
	v.recvQ, v.recvHead = nil, 0
	v.mu.Unlock()
	v.nic.ctr.viErrors.Add(1)
	if obs := v.nic.obs.Load(); obs != nil {
		obs.viErrors.Inc()
		obs.trc.Instant(trace.KindVIError, v.uid, uint64(len(pending)))
	}
	v.flushRecvs(pending)
	if peer != nil {
		// Recursion terminates: the peer's peer is v, already VIError.
		peer.enterError(cause)
	}
}

// Reset recovers an error-state VI back to VIIdle (VipDestroyVi +
// VipCreateVi collapsed into the re-arm the spec's recovery path
// performs).  The VI forgets its peer and its fault cause and can be
// connected again; descriptors still draining through engine lanes
// complete with StatusCancelled.  Resetting a healthy connected VI is
// refused (disconnect instead); resetting an idle VI is a no-op.
func (v *VI) Reset() error {
	v.mu.Lock()
	switch v.state {
	case VIConnected:
		v.mu.Unlock()
		return ErrResetConnected
	case VIIdle:
		v.mu.Unlock()
		return nil
	}
	pending := v.recvQ[v.recvHead:]
	v.recvQ, v.recvHead = nil, 0
	v.peer = nil
	v.state = VIIdle
	v.errCause = nil
	v.mu.Unlock()
	v.flushRecvs(pending)
	v.nic.ctr.recoveries.Add(1)
	if obs := v.nic.obs.Load(); obs != nil {
		obs.viResets.Inc()
		obs.trc.Instant(trace.KindVIReset, v.uid, 0)
	}
	return nil
}
