package msg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proc"
	"repro/internal/simtime"
	"repro/internal/via"
)

// Striping interleaves one logical send's chunks across the rails of a
// multi-NIC pair (DESIGN.md §12).  Each rail is an ordinary endpoint
// pair on its own NIC; the stripe layer above them owns chunk
// placement, reassembly and failover:
//
//   - the sender round-robins fixed-size chunks over the live rails,
//     each framed with (transfer id, total, offset, length) so the
//     receiver can reassemble regardless of rail or arrival order;
//   - a rail whose send fails with a transport-class error (the VI
//     error machine's StatusLinkError surfacing as ErrTransport) is
//     marked dead and the chunk is re-issued on the next live rail —
//     transparent failover, degrading gracefully down to one rail;
//   - a dead rail rejoins only through the explicit ResetRailPair,
//     mirroring the spec's recovery discipline (no silent resurrection);
//   - the receiver runs one poller per rail and deduplicates by
//     (transfer, offset), so a chunk that was delivered but whose
//     completion was lost at the sender cannot be delivered twice when
//     its reroute lands.
//
// The rails deliberately do NOT run the per-endpoint reliability layer:
// the stripe is its own reliability domain.  The kReset recovery
// handshake rebuilds ring state destructively — handlePeerReset drops
// every queued data announcement as a failed attempt's leftovers, which
// is sound for the layer's synchronous request/response contract but
// loses frames here, where a rail's announcements are consumed
// asynchronously by a poller and the queue legitimately holds earlier
// successful frames.  Instead a rail fails fast: the first transport
// error removes it from the rotation (its already-completed frames stay
// readable — announcements queue out of band and their ring slots hold
// delivered data), the chunk is re-issued elsewhere, and the stripe's
// offset dedup absorbs the one ambiguous case (completion lost after
// placement, chunk re-issued on a survivor).
//
// A stripe is unidirectional: StripeSender on one node, StripeReceiver
// on the other, built over per-rail endpoint pairs (rail i of the
// sender paired with rail i of the receiver).  Like Endpoint, neither
// side is safe for concurrent use by multiple goroutines.

// stripeHdrLen is the per-chunk frame header: magic(4) xfer(8) total(4)
// offset(4) length(4).
const stripeHdrLen = 24

// stripeMagic guards reassembly against foreign traffic on a rail.
const stripeMagic = 0x56535452 // "VSTR"

// Stripe defaults.
const (
	// DefaultStripeChunk is the per-rail chunk size.  It stays under
	// OneCopyMax so every frame rides the reliable inline protocols
	// (the zero-copy rendezvous has no retry story).
	DefaultStripeChunk = 32 * 1024
	// DefaultStripePoll bounds each receiver rail poll, so workers
	// notice Close and severed rails instead of blocking forever.
	DefaultStripePoll = 2 * time.Millisecond
	// DefaultStripeWindow bounds how many transfers ahead of the next
	// in-order delivery the receiver will hold reassembly state for.
	DefaultStripeWindow = 1024
)

// Errors returned by the stripe layer.
var (
	// ErrAllRailsDown reports a chunk that could not be placed on any
	// rail: every rail's send failed with a transport-class error.
	ErrAllRailsDown = errors.New("msg: all stripe rails down")
	// ErrStripeClosed reports an operation on a closed stripe.
	ErrStripeClosed = errors.New("msg: stripe closed")
	// ErrStripeCorrupt reports a reassembly frame that failed
	// validation (bad magic or out-of-range geometry).
	ErrStripeCorrupt = errors.New("msg: corrupt stripe frame")
)

// StripeOptions tunes a stripe; the zero value selects every default.
type StripeOptions struct {
	// Chunk is the payload bytes per frame (0 = DefaultStripeChunk).
	// Clamped so a frame never exceeds the one-copy ceiling: chunks
	// must stay on the retryable inline protocols.
	Chunk int
	// RecvTimeout bounds StripeReceiver.Recv (0 = block forever).
	RecvTimeout time.Duration
	// Window bounds the receiver's dedup/reassembly state: frames for a
	// transfer at or beyond nextDeliver+Window are dropped (counted in
	// WindowDrops), so a multi-hour soak cannot grow the transfer maps
	// without limit.  The window is a flow-control contract — size it
	// above the application's maximum sent-but-not-received transfer
	// depth, like a ring depth; a transfer whose frames were window-
	// dropped never completes and surfaces as ErrRecvTimeout.  0 selects
	// DefaultStripeWindow.
	Window int
}

// withStripeDefaults fills zero fields.
func (o StripeOptions) withStripeDefaults(oneCopyMax int) StripeOptions {
	if o.Chunk <= 0 {
		o.Chunk = DefaultStripeChunk
	}
	if max := oneCopyMax - stripeHdrLen; o.Chunk > max {
		o.Chunk = max
	}
	if o.Window <= 0 {
		o.Window = DefaultStripeWindow
	}
	return o
}

// railDeath reports whether a send/receive error means the rail's VI
// connection is gone (failover material) as opposed to a caller mistake.
func railDeath(err error) bool {
	return isTransport(err) || errors.Is(err, via.ErrLinkDown)
}

// txRail is one sender-side rail.
type txRail struct {
	ep    *Endpoint
	frame *proc.Buffer // reusable frame staging buffer (header + chunk)
	// dead marks a rail removed from the rotation after a transport
	// failure; only ResetRailPair clears it.  Atomic because the
	// receiver-side reset helper flips it from another goroutine.
	dead atomic.Bool
}

// StripeSendStats counts sender-side stripe activity.
type StripeSendStats struct {
	Sends     uint64   // logical messages sent
	Chunks    uint64   // chunk frames placed (successful rail sends)
	Failovers uint64   // chunks re-issued after a rail death
	Aborts    uint64   // transfers abandoned after a failed Send
	RailBytes []uint64 // payload bytes per rail (placement skew)
}

// StripeSender stripes logical sends over its rails.
type StripeSender struct {
	name  string
	rails []*txRail
	meter *simtime.Meter
	chunk int

	nextXfer uint64
	rr       int      // round-robin cursor
	scratch  []byte   // frame staging: header + chunk payload
	aborted  []uint64 // failed transfers awaiting AbandonAborted
	closed   bool

	stats StripeSendStats

	// testHook, when set (tests only), runs before each chunk is
	// placed: (transfer, chunk index, chosen rail).  Fault-injection
	// tests use it to sever a rail at an exact chunk boundary.
	testHook func(xfer uint64, chunk, rail int)
}

// NewStripeSender builds the sending half of a stripe over paired rail
// endpoints (rail i here must be paired with rail i of the receiver).
// The rails must not have the endpoint reliability layer enabled — the
// stripe is its own reliability domain (see the package comment above).
func NewStripeSender(name string, rails []*Endpoint, opts StripeOptions) (*StripeSender, error) {
	if len(rails) == 0 {
		return nil, fmt.Errorf("msg: stripe needs at least one rail")
	}
	opts = opts.withStripeDefaults(rails[0].opts.OneCopyMax)
	s := &StripeSender{
		name:    name,
		meter:   rails[0].meter,
		chunk:   opts.Chunk,
		scratch: make([]byte, stripeHdrLen+opts.Chunk),
	}
	s.stats.RailBytes = make([]uint64, len(rails))
	for i, ep := range rails {
		if ep.peer == nil {
			return nil, fmt.Errorf("msg: stripe rail %d: %w", i, ErrNotPaired)
		}
		if ep.rel != nil {
			return nil, fmt.Errorf("msg: stripe rail %d: reliability layer must stay off under a stripe", i)
		}
		frame, err := ep.Process().Malloc(stripeHdrLen + opts.Chunk)
		if err != nil {
			return nil, err
		}
		s.rails = append(s.rails, &txRail{ep: ep, frame: frame})
	}
	return s, nil
}

// Chunk reports the stripe's chunk size.
func (s *StripeSender) Chunk() int { return s.chunk }

// Rails reports the rail count.
func (s *StripeSender) Rails() int { return len(s.rails) }

// LiveRails reports how many rails are still in the send rotation.
func (s *StripeSender) LiveRails() int {
	n := 0
	for _, r := range s.rails {
		if !r.dead.Load() {
			n++
		}
	}
	return n
}

// Stats snapshots the sender counters (call between sends, like every
// other StripeSender method).
func (s *StripeSender) Stats() StripeSendStats {
	out := s.stats
	out.RailBytes = append([]uint64(nil), s.stats.RailBytes...)
	return out
}

// Close retires the sender.
func (s *StripeSender) Close() { s.closed = true }

// pickRail returns the next live rail after the round-robin cursor, or
// -1 when every rail is dead.
func (s *StripeSender) pickRail() int {
	for i := 0; i < len(s.rails); i++ {
		r := (s.rr + i) % len(s.rails)
		if !s.rails[r].dead.Load() {
			s.rr = r + 1
			return r
		}
	}
	return -1
}

// Send stripes one logical message across the live rails and returns
// its length.  Chunks whose rail dies mid-send are re-issued on the
// surviving rails; only when every rail is dead does Send fail, with
// ErrAllRailsDown.  On success the payload is fully placed in the
// receiver's reassembly (per-rail reliable delivery), though the
// receiver application claims it via StripeReceiver.Recv.
func (s *StripeSender) Send(b *proc.Buffer) (int, error) {
	if s.closed {
		return 0, ErrStripeClosed
	}
	if b.Bytes <= 0 {
		return 0, ErrEmptyMessage
	}
	total := b.Bytes
	xfer := s.nextXfer
	s.nextXfer++
	nchunks := (total + s.chunk - 1) / s.chunk
	// Per-rail wall-clock accounting: the shared meter sums every
	// charge, but the rails are independent engines — after the send,
	// rewind all but the slowest rail's cost so striping buys simulated
	// bandwidth the way parallel NICs do (the PR-5 overlap discipline;
	// concurrent receiver-side charges are attributed to the rail whose
	// stopwatch is running, an accepted approximation).
	cost := make([]simtime.Duration, len(s.rails))
	for c := 0; c < nchunks; c++ {
		off := c * s.chunk
		n := total - off
		if n > s.chunk {
			n = s.chunk
		}
		if err := b.Read(off, s.scratch[stripeHdrLen:stripeHdrLen+n]); err != nil {
			return 0, s.abort(xfer, err)
		}
		if err := s.sendChunk(xfer, c, total, off, n, cost); err != nil {
			return 0, s.abort(xfer, err)
		}
	}
	var sum, slowest simtime.Duration
	for _, d := range cost {
		sum += d
		if d > slowest {
			slowest = d
		}
	}
	if sum > slowest {
		s.meter.Retreat(sum - slowest)
	}
	s.stats.Sends++
	return total, nil
}

// abort records a transfer whose Send failed partway: some chunks may
// already sit in the receiver's reassembly, where they would stall
// in-order delivery forever.  AbandonAborted hands the record to the
// receiver so delivery can step over the corpse.
func (s *StripeSender) abort(xfer uint64, err error) error {
	s.aborted = append(s.aborted, xfer)
	s.stats.Aborts++
	return err
}

// TakeAborted returns and clears the transfers whose Send failed since
// the last call.  Part of the recovery protocol: see AbandonAborted.
func (s *StripeSender) TakeAborted() []uint64 {
	out := s.aborted
	s.aborted = nil
	return out
}

// sendChunk places one framed chunk on a live rail, failing over on
// transport-class errors until a rail accepts it or none remain.
func (s *StripeSender) sendChunk(xfer uint64, chunk, total, off, n int, cost []simtime.Duration) error {
	hdr := s.scratch[:stripeHdrLen]
	binary.LittleEndian.PutUint32(hdr[0:], stripeMagic)
	binary.LittleEndian.PutUint64(hdr[4:], xfer)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(total))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(off))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(n))
	for tries := 0; tries < len(s.rails); tries++ {
		r := s.pickRail()
		if r < 0 {
			break
		}
		if h := s.testHook; h != nil {
			h(xfer, chunk, r)
		}
		rail := s.rails[r]
		frame := rail.frame
		frame.Bytes = stripeHdrLen + n
		err := frame.Write(0, s.scratch[:stripeHdrLen+n])
		if err == nil {
			sw := s.meter.Start()
			_, err = rail.ep.Send(frame, Auto)
			cost[r] += sw.Elapsed()
		}
		frame.Bytes = stripeHdrLen + s.chunk
		if err == nil {
			s.stats.Chunks++
			s.stats.RailBytes[r] += uint64(n)
			return nil
		}
		if !railDeath(err) {
			return err
		}
		// The rail's VI died (StatusLinkError or a kin): fail fast,
		// remove it from the rotation, re-issue the chunk elsewhere.
		rail.dead.Store(true)
		s.stats.Failovers++
	}
	return fmt.Errorf("%w: transfer %d chunk %d", ErrAllRailsDown, xfer, chunk)
}

// stripeAsm is one in-progress reassembly.
type stripeAsm struct {
	buf  []byte
	got  map[int]struct{} // offsets placed (duplicate reroutes dedup here)
	have int              // payload bytes placed
}

// StripeRecvStats counts receiver-side stripe activity.
type StripeRecvStats struct {
	Delivered   uint64 // logical messages handed to Recv
	Chunks      uint64 // valid frames reassembled
	DupFrames   uint64 // duplicate frames discarded by (transfer, offset) dedup
	RailErrors  uint64 // transport-class errors observed by rail pollers
	Corrupt     uint64 // frames dropped by validation
	WindowDrops uint64 // frames dropped for transfers beyond the sliding window
	Pending     int    // reassemblies still incomplete
}

// StripeReceiver reassembles striped transfers.
type StripeReceiver struct {
	rails  []*Endpoint
	frames []*proc.Buffer
	// pause[i] is held by rail i's poller around each Recv call;
	// ResetRailPair acquires it to quiesce the rail (at most one poll
	// interval away) before rebuilding VI and ring state.
	pause   []sync.Mutex
	chunk   int
	timeout time.Duration

	// window bounds how far ahead of nextDeliver the transfer-keyed
	// maps may reach: every key in asm/done/skipped is <
	// nextDeliver+window at insertion and pruned as delivery passes it,
	// so the dedup state is O(window), not O(transfers ever sent).
	window uint64

	mu          sync.Mutex
	cond        *sync.Cond
	asm         map[uint64]*stripeAsm
	done        map[uint64][]byte
	skipped     map[uint64]struct{} // aborted transfers delivery steps over
	nextDeliver uint64
	closed      bool
	stats       StripeRecvStats

	closing atomic.Bool
	wg      sync.WaitGroup
}

// NewStripeReceiver builds the receiving half of a stripe and starts
// one poller per rail.  Close must be called to stop the pollers (the
// leakcheck bracket will notice otherwise).
func NewStripeReceiver(name string, rails []*Endpoint, opts StripeOptions) (*StripeReceiver, error) {
	if len(rails) == 0 {
		return nil, fmt.Errorf("msg: stripe needs at least one rail")
	}
	opts = opts.withStripeDefaults(rails[0].opts.OneCopyMax)
	r := &StripeReceiver{
		rails:   rails,
		pause:   make([]sync.Mutex, len(rails)),
		chunk:   opts.Chunk,
		timeout: opts.RecvTimeout,
		window:  uint64(opts.Window),
		asm:     make(map[uint64]*stripeAsm),
		done:    make(map[uint64][]byte),
		skipped: make(map[uint64]struct{}),
	}
	r.cond = sync.NewCond(&r.mu)
	for i, ep := range rails {
		if ep.peer == nil {
			return nil, fmt.Errorf("msg: stripe rail %d: %w", i, ErrNotPaired)
		}
		if ep.rel != nil {
			return nil, fmt.Errorf("msg: stripe rail %d: reliability layer must stay off under a stripe", i)
		}
		// The poller must wake to notice Close and dead rails.
		if ep.opts.RecvTimeout <= 0 {
			ep.opts.RecvTimeout = DefaultStripePoll
		}
		frame, err := ep.Process().Malloc(stripeHdrLen + opts.Chunk)
		if err != nil {
			return nil, err
		}
		r.frames = append(r.frames, frame)
	}
	r.wg.Add(len(rails))
	for i := range rails {
		go r.poll(i)
	}
	return r, nil
}

// poll is rail i's worker: receive frames, hand them to reassembly.  A
// rail whose VI dies keeps being polled — frames completed before the
// fault are still queued and readable, errors from the fault's own
// half-delivered frame are counted and skipped, and a healed rail
// (ResetRailPair) resumes delivering without a worker restart.
func (r *StripeReceiver) poll(i int) {
	defer r.wg.Done()
	ep := r.rails[i]
	frame := r.frames[i]
	buf := make([]byte, stripeHdrLen+r.chunk)
	for !r.closing.Load() {
		r.pause[i].Lock()
		n, err := ep.Recv(frame)
		r.pause[i].Unlock()
		switch {
		case err == nil:
			if n < stripeHdrLen || n > len(buf) {
				r.noteCorrupt()
				continue
			}
			if err := frame.Read(0, buf[:n]); err != nil {
				r.noteCorrupt()
				continue
			}
			r.ingest(buf[:n])
		case errors.Is(err, ErrRecvTimeout):
			// Idle poll; check closing and go again.
		case railDeath(err):
			r.mu.Lock()
			r.stats.RailErrors++
			r.mu.Unlock()
		default:
			// A non-transport error from our own frame buffer is a
			// stripe bug, not a fabric fault; surface it loudly.
			r.mu.Lock()
			r.stats.Corrupt++
			r.mu.Unlock()
		}
	}
}

func (r *StripeReceiver) noteCorrupt() {
	r.mu.Lock()
	r.stats.Corrupt++
	r.mu.Unlock()
}

// ingest validates one frame and places its payload, completing the
// transfer when the last byte lands.
func (r *StripeReceiver) ingest(f []byte) {
	magic := binary.LittleEndian.Uint32(f[0:])
	xfer := binary.LittleEndian.Uint64(f[4:])
	total := int(binary.LittleEndian.Uint32(f[12:]))
	off := int(binary.LittleEndian.Uint32(f[16:]))
	n := int(binary.LittleEndian.Uint32(f[20:]))
	r.mu.Lock()
	defer r.mu.Unlock()
	if magic != stripeMagic || total <= 0 || n <= 0 || n != len(f)-stripeHdrLen ||
		off < 0 || off+n > total {
		r.stats.Corrupt++
		return
	}
	if xfer < r.nextDeliver {
		// Reroute of a chunk from a transfer already delivered (the
		// sender saw a failure after the payload landed).
		r.stats.DupFrames++
		return
	}
	if xfer >= r.nextDeliver+r.window {
		// Beyond the sliding window: accepting the frame would let the
		// transfer maps grow without bound when the application stops
		// draining.  The sender violated the window contract (more
		// outstanding transfers than Window); drop and count.
		r.stats.WindowDrops++
		return
	}
	if _, ok := r.done[xfer]; ok {
		r.stats.DupFrames++
		return
	}
	if _, ok := r.skipped[xfer]; ok {
		// Straggler frame of a transfer the sender already reported
		// failed and the application abandoned.
		r.stats.DupFrames++
		return
	}
	a := r.asm[xfer]
	if a == nil {
		a = &stripeAsm{buf: make([]byte, total), got: make(map[int]struct{})}
		r.asm[xfer] = a
	}
	if len(a.buf) != total {
		r.stats.Corrupt++
		return
	}
	if _, dup := a.got[off]; dup {
		// The same chunk arrived twice: delivered on a dying rail AND
		// re-issued on a survivor.  Offset dedup keeps it single.
		r.stats.DupFrames++
		return
	}
	a.got[off] = struct{}{}
	copy(a.buf[off:off+n], f[stripeHdrLen:])
	a.have += n
	r.stats.Chunks++
	if a.have == total {
		delete(r.asm, xfer)
		r.done[xfer] = a.buf
		r.cond.Broadcast()
	}
}

// Recv returns the next completed transfer, in transfer order, copied
// into b.  It blocks until the transfer completes, the stripe closes,
// or the configured RecvTimeout elapses.
func (r *StripeReceiver) Recv(b *proc.Buffer) (int, error) {
	timedOut := false
	if r.timeout > 0 {
		t := time.AfterFunc(r.timeout, func() {
			r.mu.Lock()
			timedOut = true
			r.mu.Unlock()
			r.cond.Broadcast()
		})
		defer t.Stop()
	}
	r.mu.Lock()
	for {
		for {
			if _, skip := r.skipped[r.nextDeliver]; !skip {
				break
			}
			// An aborted transfer never completes; step over it so the
			// transfers behind it stay deliverable.
			delete(r.skipped, r.nextDeliver)
			delete(r.asm, r.nextDeliver)
			r.nextDeliver++
		}
		if data, ok := r.done[r.nextDeliver]; ok {
			delete(r.done, r.nextDeliver)
			r.nextDeliver++
			r.stats.Delivered++
			r.mu.Unlock()
			if b.Bytes < len(data) {
				return 0, ErrTooSmall
			}
			if err := b.Write(0, data); err != nil {
				return 0, err
			}
			return len(data), nil
		}
		if r.closed {
			r.mu.Unlock()
			return 0, ErrStripeClosed
		}
		if timedOut {
			r.mu.Unlock()
			return 0, ErrRecvTimeout
		}
		r.cond.Wait()
	}
}

// Stats snapshots the receiver counters.
func (r *StripeReceiver) Stats() StripeRecvStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.stats
	out.Pending = len(r.asm)
	return out
}

// Close stops the rail pollers and unblocks Recv with ErrStripeClosed.
func (r *StripeReceiver) Close() {
	if r.closing.Swap(true) {
		return
	}
	r.wg.Wait()
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.cond.Broadcast()
}

// Abandon marks transfers the sender reported failed (Send returned an
// error): their partial reassemblies are discarded and in-order
// delivery steps over them instead of stalling forever behind a
// transfer that can never complete.  Transfers already delivered are
// ignored.  Skipped marks are honoured even beyond the sliding window
// (delivery must step over a window-dropped transfer too); they are
// fault-path events bounded by the failed-send count, not per-send
// state, and are pruned as delivery passes them.
func (r *StripeReceiver) Abandon(xfers ...uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, x := range xfers {
		if x < r.nextDeliver {
			continue
		}
		delete(r.asm, x)
		delete(r.done, x) // unreachable in practice: a failed Send placed < total bytes
		r.skipped[x] = struct{}{}
	}
	r.cond.Broadcast()
}

// AbandonAborted completes the failed-transfer half of stripe recovery:
// the sender's record of aborted transfers (every Send that returned an
// error) moves to the receiver, which abandons their partial state.  In
// a real fabric this rides a control message; the simulation's harness
// holds both halves, like ResetRailPair.
func AbandonAborted(tx *StripeSender, rx *StripeReceiver) {
	rx.Abandon(tx.TakeAborted()...)
}

// ResetRailPair rejoins a healed rail: quiesce the receiver's poller,
// Reset both VIs out of the error state (the spec's explicit-recovery
// discipline), reconnect them, flush every stale control/credit token
// and rebuild both bounce rings, then return the rail to the sender's
// rotation.  The link itself must already be healed (SetLinkUp), and
// the rail must be quiescent: it left the send rotation when it died,
// so once the poller has drained the frames completed before the fault
// (microseconds after the failover) there is nothing left to lose —
// the flush only discards the fault's own half-delivered leftovers.
func ResetRailPair(tx *StripeSender, rx *StripeReceiver, rail int) error {
	if rail < 0 || rail >= len(tx.rails) || rail >= len(rx.rails) {
		return fmt.Errorf("msg: rail %d out of range", rail)
	}
	rx.pause[rail].Lock()
	defer rx.pause[rail].Unlock()
	a, b := tx.rails[rail].ep, rx.rails[rail]
	if err := a.resetOwnVI(); err != nil {
		return err
	}
	if err := b.resetOwnVI(); err != nil {
		return err
	}
	if err := a.nw.Connect(a.vi, b.vi); err != nil {
		return err
	}
	for _, e := range []*Endpoint{a, b} {
		e.drainStaleData()
		e.drainCredits()
	}
	if err := a.repostRing(); err != nil {
		return err
	}
	if err := b.repostRing(); err != nil {
		return err
	}
	tx.rails[rail].dead.Store(false)
	return nil
}
