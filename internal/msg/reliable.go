// Reliability layer: per-send timeouts, bounded exponential backoff
// with deterministic jitter, idempotent retransmission, and a
// sender-driven connection-recovery handshake over the control channel.
//
// The fault model (DESIGN.md §7): a data-path fault moves the VI pair
// into the VIA error state, flushing every posted descriptor.  The
// sender observes the failure (a chunk completes with an error status,
// or a post is refused), runs the recovery handshake — kReset →
// kResetAck → VI Reset + reconnect → kRingRepost — and retransmits the
// whole message under the same sequence number.  The receiver
// deduplicates by sequence, so a retransmit after a dropped completion
// (payload delivered, sender unsure) drains credits but delivers
// nothing.  After MaxRetries failed attempts the sender degrades
// gracefully: it tells the receiver to stop waiting (kAbort) and
// returns ErrRetriesExhausted.
//
// Scope: the inline protocols (eager and one-copy).  The rendezvous is
// not retried — its RDMA completion carries no receiver acknowledgement,
// so a transparent retransmit could not be deduplicated; transport
// failures surface to the caller.  A *registration* fault inside the
// rendezvous, however, is handled before any data moves for that chunk:
// both sides unwind and the sender degrades to the one-copy path, which
// does get retried (rendezvous.go, abortReason).
package msg

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/proc"
	"repro/internal/trace"
	"repro/internal/via"
)

// ReliabilityConfig tunes the reliability layer.
type ReliabilityConfig struct {
	// MaxRetries bounds retransmission attempts per message (beyond the
	// first attempt).  <= 0 selects DefaultMaxRetries.
	MaxRetries int
	// Timeout is the per-chunk completion deadline.  A chunk exceeding
	// it is counted in Stats.Timeouts; the wait then continues (every
	// descriptor reaches a terminal status, so a late success is simply
	// a success).  0 disables the deadline.
	Timeout time.Duration
	// BackoffBase is the delay before the first retransmit; it doubles
	// per attempt up to BackoffMax.  <= 0 selects DefaultBackoffBase.
	BackoffBase time.Duration
	// BackoffMax caps the backoff delay.  <= 0 selects DefaultBackoffMax.
	BackoffMax time.Duration
	// AckTimeout bounds the wait for the receiver's delivery ack when a
	// final chunk completes with StatusCompletionLost (payload placed,
	// completion write-back lost).  0 selects DefaultAckTimeout; < 0
	// disables the ack wait so such sends go straight to the recovery
	// handshake and the retransmit is deduplicated by the receiver.
	AckTimeout time.Duration
	// HandshakeTimeout bounds each wait inside the recovery handshake
	// (the sender's kResetAck wait and the receiver's kRingRepost
	// wait).  A peer that died — or aborted a collective — mid-fault
	// can otherwise strand this side forever.  0 selects
	// DefaultHandshakeTimeout; < 0 waits without bound (the pre-PR-7
	// behaviour).
	HandshakeTimeout time.Duration
	// Seed makes the backoff jitter deterministic for replay.
	Seed int64
}

// Reliability defaults.
const (
	DefaultMaxRetries       = 4
	DefaultBackoffBase      = 100 * time.Microsecond
	DefaultBackoffMax       = 10 * time.Millisecond
	DefaultAckTimeout       = 250 * time.Millisecond
	DefaultHandshakeTimeout = 5 * time.Second
)

// ErrRecoveryTimeout reports a recovery handshake abandoned because the
// peer stopped answering within HandshakeTimeout.
var ErrRecoveryTimeout = errors.New("msg: recovery handshake timed out")

// chunkError is a chunk that completed with a non-success status; it
// carries enough structure for the retry loop to distinguish "payload
// delivered, completion lost" from a true transmission failure.
type chunkError struct {
	chunk, nchunks int
	status         via.Status
}

func (ce *chunkError) Error() string {
	return fmt.Sprintf("%v: chunk %d/%d failed: %v", ErrTransport, ce.chunk, ce.nchunks, ce.status)
}

func (ce *chunkError) Unwrap() error { return ErrTransport }

// delivered reports whether the failed chunk proves the whole payload
// reached the peer: the final chunk's data is always placed before its
// completion is written back, so a lost completion there means the
// receiver has every byte.
func (ce *chunkError) delivered() bool {
	return ce.status == via.StatusCompletionLost && ce.chunk == ce.nchunks-1
}

// ReliabilityStats counts reliability-layer activity.
type ReliabilityStats struct {
	Retries    uint64 // retransmission attempts
	Recoveries uint64 // completed connection-recovery handshakes
	Timeouts   uint64 // chunks that missed the per-send deadline
	Duplicates uint64 // retransmits discarded by sequence dedup
	Aborts     uint64 // sends abandoned after exhausting retries
	AckRescues uint64 // lost completions confirmed by the delivery ack
}

// relState is the per-endpoint reliability machinery.
type relState struct {
	cfg   ReliabilityConfig
	rng   *rand.Rand
	stats ReliabilityStats
}

// EnableReliability switches the endpoint's inline protocols to
// reliable delivery.  Call it on both endpoints of a pair; the sender
// side drives recovery, the receiver side answers the handshake.
func (e *Endpoint) EnableReliability(cfg ReliabilityConfig) {
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = DefaultBackoffBase
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = DefaultBackoffMax
	}
	if cfg.AckTimeout == 0 {
		cfg.AckTimeout = DefaultAckTimeout
	}
	if cfg.HandshakeTimeout == 0 {
		cfg.HandshakeTimeout = DefaultHandshakeTimeout
	}
	e.rel = &relState{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// ReliabilityStats snapshots the reliability counters (zero value when
// reliability is off).
func (e *Endpoint) ReliabilityStats() ReliabilityStats {
	if e.rel == nil {
		return ReliabilityStats{}
	}
	return e.rel.stats
}

// isTransport reports whether an error means the VI connection died (as
// opposed to a caller mistake like a too-small buffer).
func isTransport(err error) bool {
	return errors.Is(err, ErrTransport) ||
		errors.Is(err, via.ErrVIErrorState) ||
		errors.Is(err, via.ErrNotConnected)
}

// sendReliable wraps sendInline in the retry loop.  Without reliability
// it is a straight pass-through.
func (e *Endpoint) sendReliable(b *proc.Buffer, eager bool) (int, error) {
	if e.rel == nil {
		return e.sendInline(b, eager, 0)
	}
	e.drainStaleRctrl()
	e.nextSeq++
	seq := e.nextSeq
	var lastErr error
	for attempt := 0; attempt <= e.rel.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			e.rel.stats.Retries++
			e.obs.Load().event(trace.KindRetry, seq, uint64(attempt))
			e.sleepBackoff(attempt - 1)
			if err := e.recoverSender(); err != nil {
				e.rel.stats.Aborts++
				e.obs.Load().event(trace.KindAbort, seq, uint64(attempt))
				e.sendCtrl(ctrlMsg{kind: kAbort})
				return 0, fmt.Errorf("msg: connection recovery failed: %w", err)
			}
		}
		n, err := e.sendInline(b, eager, seq)
		if err == nil {
			return n, nil
		}
		if !isTransport(err) {
			return n, err
		}
		var ce *chunkError
		if errors.As(err, &ce) && ce.delivered() && e.awaitDone(seq) {
			// The payload reached the receiver; only the completion
			// write-back was lost.  The delivery ack settles it — no
			// retransmit, no handshake.  (The VI pair is still in the
			// error state; the next send recovers it.)
			e.rel.stats.AckRescues++
			e.obs.Load().event(trace.KindAckRescue, seq, uint64(b.Bytes))
			return b.Bytes, nil
		}
		lastErr = err
	}
	e.rel.stats.Aborts++
	e.obs.Load().event(trace.KindAbort, seq, uint64(e.rel.cfg.MaxRetries+1))
	e.sendCtrl(ctrlMsg{kind: kAbort})
	return 0, fmt.Errorf("%w after %d attempts: %v", ErrRetriesExhausted, e.rel.cfg.MaxRetries+1, lastErr)
}

// sleepBackoff waits base<<attempt (capped) plus up to 25% jitter.
func (e *Endpoint) sleepBackoff(attempt int) {
	d := e.rel.cfg.BackoffBase << uint(attempt)
	if d > e.rel.cfg.BackoffMax || d <= 0 {
		d = e.rel.cfg.BackoffMax
	}
	d += time.Duration(e.rel.rng.Int63n(int64(d)/4 + 1))
	if obs := e.obs.Load(); obs != nil {
		obs.backoffNS.Observe(int64(d))
		obs.trc.Instant(trace.KindBackoff, uint64(attempt), uint64(d))
	}
	time.Sleep(d)
}

// waitChunk waits for one chunk descriptor, counting (but not acting
// on) per-send deadline misses: the simulator guarantees every
// descriptor reaches a terminal status, so after recording the timeout
// the wait resumes and a late success is treated as a success.  The
// deadline timer exists only for a chunk that is still in flight.
func (e *Endpoint) waitChunk(d *via.Descriptor) via.Status {
	if e.rel != nil && e.rel.cfg.Timeout > 0 && !d.Completed() {
		t := time.NewTimer(e.rel.cfg.Timeout)
		select {
		case <-d.Done():
		case <-t.C:
			e.rel.stats.Timeouts++
		}
		t.Stop()
	}
	// Blocks until completion and, on a mux, consumes the CQ entry so it
	// doesn't linger in the pending map.
	return e.waitDesc(d)
}

// recvHandshake waits (bounded by HandshakeTimeout) for the next
// reliability control message during a recovery handshake.
func (e *Endpoint) recvHandshake() (ctrlMsg, error) {
	hs := e.rel.cfg.HandshakeTimeout
	if hs < 0 {
		return <-e.rctrl, nil
	}
	t := time.NewTimer(hs)
	defer t.Stop()
	select {
	case m := <-e.rctrl:
		return m, nil
	case <-t.C:
		return ctrlMsg{}, ErrRecoveryTimeout
	}
}

// awaitDone waits (bounded) for the receiver's delivery ack of seq.
// The receiver pushes the ack before Recv returns, so when the payload
// really was delivered the ack is already in flight; the timeout only
// matters if delivery failed on the receiver's side after all, in which
// case the caller falls back to the recovery handshake.
func (e *Endpoint) awaitDone(seq uint64) bool {
	if e.rel.cfg.AckTimeout < 0 {
		return false
	}
	t := time.NewTimer(e.rel.cfg.AckTimeout)
	defer t.Stop()
	for {
		select {
		case m := <-e.rctrl:
			if m.kind == kDone && m.seq == seq {
				return true
			}
			// Stale ack of an earlier sequence (or leftover handshake
			// traffic); keep waiting.
		case <-t.C:
			return false
		}
	}
}

// drainStaleRctrl clears leftover reliability traffic before a new send:
// delivery acks of earlier sequences, and — defensively — a pending
// peer reset, which is serviced so the peer is not left hanging.
func (e *Endpoint) drainStaleRctrl() {
	for {
		select {
		case m := <-e.rctrl:
			if m.kind == kReset {
				_ = e.handlePeerReset()
			}
		default:
			return
		}
	}
}

// drainStaleData discards queued data announcements from a sender's
// failed attempts (they precede the kReset/kAbort that revealed them, so
// they are all enqueued by the time it is read).  Left in place they
// would alias the retransmission or the next message.
func (e *Endpoint) drainStaleData() {
	for {
		select {
		case <-e.ctrl:
		default:
			return
		}
	}
}

// drainCredits empties this endpoint's credit channel: after a fault
// both rings are flushed and reposted from scratch, so stale credits
// would overflow the re-grant.
func (e *Endpoint) drainCredits() {
	for {
		select {
		case <-e.credits:
		default:
			return
		}
	}
}

// repostRing rebuilds the bounce ring from slot zero and grants the
// peer a full set of credits.  The VI must be connected.  The whole
// ring goes back with one PostRecvBatch — one doorbell instead of one
// per slot.  In RDMA-eager mode there are no receive descriptors; both
// cursors rewind to slot zero and stale slot tokens are discarded
// instead.
func (e *Endpoint) repostRing() error {
	e.rxIdx = 0
	e.txIdx = 0
	e.drainRdmaReady()
	if e.opts.RDMAEager {
		for i := 0; i < e.ringSlots; i++ {
			e.peerGrantCredit()
		}
		return nil
	}
	e.repostSlots = e.repostSlots[:0]
	for i := 0; i < e.ringSlots; i++ {
		e.repostSlots = append(e.repostSlots, i)
	}
	return e.flushReposts()
}

// resetOwnVI brings this endpoint's VI to the idle state whatever state
// the fault left it in.
func (e *Endpoint) resetOwnVI() error {
	switch e.vi.State() {
	case via.VIError:
		return e.vi.Reset()
	case via.VIConnected:
		// The fault hit only the peer's view (e.g. a refused post): tear
		// the connection down cleanly.  If the VI raced into the error
		// state meanwhile, Reset it.
		if err := e.nw.Disconnect(e.vi); err != nil {
			if errors.Is(err, via.ErrVIErrorState) {
				return e.vi.Reset()
			}
			if !errors.Is(err, via.ErrNotConnected) {
				return err
			}
		}
	}
	return nil
}

// recoverSender runs the sender half of the recovery handshake:
//
//	sender                         receiver
//	  kReset ───────────────────────▶
//	                                  drain credits, Reset own VI
//	  ◀─────────────────────── kResetAck
//	  drain credits, Reset own VI
//	  reconnect both VIs
//	  repost own ring (+credits)
//	  kRingRepost ──────────────────▶
//	                                  repost own ring (+credits)
//
// after which both rings are fresh, both credit channels are full and
// the message can be retransmitted.
func (e *Endpoint) recoverSender() error {
	e.sendCtrl(ctrlMsg{kind: kReset, seq: e.nextSeq})
	for {
		m, err := e.recvHandshake()
		if err != nil {
			return err
		}
		if m.kind == kResetAck {
			break
		}
		if m.kind == kAbort {
			return ErrPeerAborted
		}
		// Anything else is stale pre-fault control traffic; drop it.
	}
	e.drainCredits()
	if err := e.resetOwnVI(); err != nil {
		return err
	}
	if err := e.nw.Connect(e.vi, e.peer.vi); err != nil {
		return err
	}
	if err := e.repostRing(); err != nil {
		return err
	}
	e.sendCtrl(ctrlMsg{kind: kRingRepost})
	e.rel.stats.Recoveries++
	e.obs.Load().event(trace.KindRecovery, e.nextSeq, 0)
	return nil
}

// handlePeerReset runs the receiver half of the handshake (see
// recoverSender): reset the local VI, acknowledge, then wait for the
// reconnect signal and repost the ring.
func (e *Endpoint) handlePeerReset() error {
	// The sender enqueued its failed attempts' announcements before the
	// kReset that brought us here; drop them so they cannot alias the
	// retransmission once the ring is rebuilt.
	e.drainStaleData()
	e.drainCredits()
	if err := e.resetOwnVI(); err != nil {
		return err
	}
	e.sendCtrl(ctrlMsg{kind: kResetAck})
	for {
		m, err := e.recvHandshake()
		if err != nil {
			return err
		}
		switch m.kind {
		case kRingRepost:
			return e.repostRing()
		case kAbort:
			return ErrPeerAborted
		default:
			// Stale pre-fault control traffic; drop it.
		}
	}
}

// drainDuplicate consumes a retransmitted message's chunks without
// delivering them: the payload already reached the application, only
// the sender's completion was lost.
func (e *Endpoint) drainDuplicate(m ctrlMsg) error {
	e.rel.stats.Duplicates++
	e.obs.Load().event(trace.KindDuplicate, m.seq, uint64(m.nchunks))
	return e.drainSlots(m.nchunks)
}

// drainSlots consumes nchunks ring slots without delivering them (a
// duplicate, or a message the receive buffer cannot hold).  Slots are
// reposted and credits granted so the flow-control state stays
// balanced and the next message starts at the right slot.
func (e *Endpoint) drainSlots(nchunks int) error {
	for c := 0; c < nchunks; c++ {
		slot := int(e.rxIdx % uint64(e.ringSlots))
		if e.opts.RDMAEager {
			if tok := <-e.rdmaReady; tok < 0 {
				return fmt.Errorf("%w: discarded chunk %d poisoned", ErrTransport, c)
			}
			e.rxIdx++
			e.peerGrantCredit()
			continue
		}
		if st := e.waitDesc(e.ringDescs[slot]); st != via.StatusSuccess {
			return fmt.Errorf("%w: discarded chunk %d: %v", ErrTransport, c, st)
		}
		e.rxIdx++
		if err := e.postSlot(slot); err != nil {
			return err
		}
		e.peerGrantCredit()
	}
	return nil
}
