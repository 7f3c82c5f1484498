package via

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// Completion is one completion-queue entry: which VI completed which
// descriptor, and on which of its queues.
type Completion struct {
	// VI is the virtual interface the work belonged to.
	VI *VI
	// Desc is the completed descriptor (Status already final).
	Desc *Descriptor
	// Recv reports whether the descriptor came off the receive queue.
	Recv bool
}

// CQ is a completion queue.  VIs created with CreateVIWithCQ deposit a
// completion notification for every descriptor they finish, so one
// thread can wait on many VIs at once (VipCQWait in the VIPL).
//
// Internally the queue is sharded: producers hash by VI uid to a shard
// and take only that shard's mutex, so completions from thousands of
// VIs do not serialize on one lock the way the old single mutex+cond
// design did.  Consumers rotate over the shards.  Ordering guarantee:
// completions of one VI are FIFO (they land in one shard); ordering
// across VIs is unspecified, as on hardware.  Small queues (depth below
// one shard's worth) collapse to a single shard, preserving exact
// global FIFO + overflow semantics for legacy callers.
type CQ struct {
	shards []cqShard
	// depth bounds the total entries across all shards; shard buffers
	// grow on demand, so a single busy VI may use the whole depth.
	depth int

	size    atomic.Int64  // entries currently queued (all shards)
	dropped atomic.Uint64 // entries lost to overflow
	wakeups atomic.Uint64 // waiter parks that ended in a notify wake
	closed  atomic.Bool

	// notify is the consumer wakeup baton (capacity 1, coalescing);
	// closedCh wakes every waiter at Close.
	notify   chan struct{}
	closedCh chan struct{}
	// rr rotates Poll's shard scan start so one busy shard cannot
	// starve the others.
	rr atomic.Uint64

	// nic is the owning NIC when created through CreateCQ (nil for a
	// standalone NewCQ); overflow events are surfaced through its
	// observer.
	nic *NIC
}

type cqShard struct {
	mu   sync.Mutex
	buf  []Completion // growable ring buffer
	head int
	n    int
}

// Errors returned by completion queues.
var (
	ErrCQEmpty  = errors.New("via: completion queue empty")
	ErrCQClosed = errors.New("via: completion queue closed")
	// ErrCQOverflow reports that the queue dropped completions: the
	// consumer fell behind by more than the queue depth.  On hardware
	// this is a programming error the card flags; OverflowErr surfaces
	// it, and each drop is also counted in trace/metrics when an
	// observer is attached.
	ErrCQOverflow = errors.New("via: completion queue overflow")
)

// DefaultCQDepth bounds a queue when no depth is given.
const DefaultCQDepth = 256

// cqMaxShards caps the shard count; cqShardEntries is the depth one
// shard serves — queues smaller than twice this stay single-sharded so
// exact-depth tests and tiny legacy queues keep strict FIFO.
const (
	cqMaxShards    = 16
	cqShardEntries = 32
)

// NewCQ creates a standalone completion queue holding up to depth
// entries.  Overflow drops the oldest entry of the full shard and
// counts it — matching hardware behaviour where CQ overflow is a
// programming error the card reports.
func NewCQ(depth int) *CQ {
	if depth <= 0 {
		depth = DefaultCQDepth
	}
	nshards := depth / cqShardEntries
	if nshards < 1 {
		nshards = 1
	}
	if nshards > cqMaxShards {
		nshards = cqMaxShards
	}
	q := &CQ{
		shards:   make([]cqShard, nshards),
		depth:    depth,
		notify:   make(chan struct{}, 1),
		closedCh: make(chan struct{}),
	}
	return q
}

// CreateCQ creates a completion queue bound to this NIC (overflow is
// reported through the NIC's observer).
func (n *NIC) CreateCQ(depth int) *CQ {
	q := NewCQ(depth)
	q.nic = n
	return q
}

// CreateVIWithCQ creates a VI whose send and receive completions are
// delivered to the given queues.  Either queue may be nil (no
// notification for that direction), and both may be the same queue.
func (n *NIC) CreateVIWithCQ(tag ProtectionTag, sendCQ, recvCQ *CQ) (*VI, error) {
	v, err := n.CreateVI(tag)
	if err != nil {
		return nil, err
	}
	v.sendCQ = sendCQ
	v.recvCQ = recvCQ
	return v, nil
}

// shardFor hashes a completion to its shard (per-VI FIFO: one VI always
// lands in one shard).
func (q *CQ) shardFor(c Completion) *cqShard {
	if len(q.shards) == 1 || c.VI == nil {
		return &q.shards[0]
	}
	return &q.shards[c.VI.uid%uint64(len(q.shards))]
}

// push deposits a completion (called by the NIC with no locks held).
func (q *CQ) push(c Completion) {
	if q == nil || q.closed.Load() {
		return
	}
	s := q.shardFor(c)
	s.mu.Lock()
	if q.closed.Load() {
		s.mu.Unlock()
		return
	}
	if int(q.size.Load()) >= q.depth && s.n > 0 {
		// Overflow: the whole queue is at depth — drop this shard's
		// oldest entry, loudly.  (When the full entries all sit in
		// other shards the push transiently overshoots by at most
		// nshards-1 entries rather than dropping someone else's head.)
		s.buf[s.head] = Completion{}
		s.head = (s.head + 1) % len(s.buf)
		s.n--
		q.size.Add(-1)
		dropped := q.dropped.Add(1)
		if q.nic != nil {
			if obs := q.nic.obs.Load(); obs != nil {
				obs.cqOverflows.Inc()
				var uid uint64
				if c.VI != nil {
					uid = c.VI.uid
				}
				obs.trc.Instant(trace.KindCQOverflow, uid, dropped)
			}
		}
	}
	if s.n == len(s.buf) {
		grown := make([]Completion, max(2*len(s.buf), 8))
		for i := 0; i < s.n; i++ {
			grown[i] = s.buf[(s.head+i)%len(s.buf)]
		}
		s.buf, s.head = grown, 0
	}
	s.buf[(s.head+s.n)%len(s.buf)] = c
	s.n++
	q.size.Add(1)
	s.mu.Unlock()
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// pop removes the oldest completion of one shard.
func (s *cqShard) pop(q *CQ) (Completion, bool) {
	s.mu.Lock()
	if s.n == 0 {
		s.mu.Unlock()
		return Completion{}, false
	}
	c := s.buf[s.head]
	s.buf[s.head] = Completion{}
	s.head = (s.head + 1) % len(s.buf)
	s.n--
	q.size.Add(-1)
	s.mu.Unlock()
	return c, true
}

// Poll removes the oldest completion without blocking.  It is
// consistent with Len: as long as entries remain queued (Len() > 0) a
// full scan that finds nothing rescans instead of reporting empty —
// a racing push may land in a shard behind the scan front, and before
// this loop Poll could return ErrCQEmpty while Len() stayed positive.
// Each empty scan means a racing consumer won an entry, so the loop
// makes system-wide progress and exits when the queue is truly drained.
func (q *CQ) Poll() (Completion, error) {
	for q.size.Load() > 0 {
		start := int(q.rr.Add(1))
		for i := 0; i < len(q.shards); i++ {
			if c, ok := q.shards[(start+i)%len(q.shards)].pop(q); ok {
				return c, nil
			}
		}
	}
	if q.closed.Load() {
		return Completion{}, ErrCQClosed
	}
	return Completion{}, ErrCQEmpty
}

// PollBatch drains up to len(buf) completions into buf and returns how
// many it moved, taking each shard's lock once per scan instead of once
// per entry.  It never blocks: a zero count comes with ErrCQEmpty (or
// ErrCQClosed once the queue is closed and drained).  Like Poll it
// rescans while Len() > 0 so a concurrent push cannot make it report
// empty against a non-empty queue.
func (q *CQ) PollBatch(buf []Completion) (int, error) {
	if len(buf) == 0 {
		return 0, nil
	}
	n := 0
	for n < len(buf) && q.size.Load() > 0 {
		start := int(q.rr.Add(1))
		got := 0
		for i := 0; i < len(q.shards) && n < len(buf); i++ {
			k := q.shards[(start+i)%len(q.shards)].popMany(q, buf[n:])
			got += k
			n += k
		}
		if got == 0 && n > 0 {
			// Racing consumers drained the remainder; ship what we have.
			break
		}
	}
	if n > 0 {
		return n, nil
	}
	if q.closed.Load() {
		return 0, ErrCQClosed
	}
	return 0, ErrCQEmpty
}

// popMany removes up to len(buf) of the shard's oldest completions
// under a single lock acquisition.
func (s *cqShard) popMany(q *CQ, buf []Completion) int {
	s.mu.Lock()
	k := s.n
	if k > len(buf) {
		k = len(buf)
	}
	for i := 0; i < k; i++ {
		buf[i] = s.buf[s.head]
		s.buf[s.head] = Completion{}
		s.head = (s.head + 1) % len(s.buf)
	}
	if k > 0 {
		s.n -= k
		q.size.Add(int64(-k))
	}
	s.mu.Unlock()
	return k
}

// Wait blocks until a completion is available (VipCQWait) or the queue
// is closed.
func (q *CQ) Wait() (Completion, error) {
	return q.WaitCtx(context.Background())
}

// WaitCtx is Wait with cancellation: it returns the context's error as
// soon as ctx is done (deadline or cancel), ErrCQClosed once the queue
// is closed and drained, or the next completion.
func (q *CQ) WaitCtx(ctx context.Context) (Completion, error) {
	for {
		c, err := q.Poll()
		if err == nil {
			// Baton pass: if entries remain, re-arm the wakeup so a
			// second waiter whose notify token we consumed still runs.
			if q.size.Load() > 0 {
				select {
				case q.notify <- struct{}{}:
				default:
				}
			}
			return c, nil
		}
		if errors.Is(err, ErrCQClosed) {
			return Completion{}, ErrCQClosed
		}
		select {
		case <-q.notify:
			q.wakeups.Add(1)
		case <-q.closedCh:
		case <-ctx.Done():
			return Completion{}, ctx.Err()
		}
	}
}

// Wakeups reports how many times a waiter actually parked on the queue
// and was woken by a notify — the wakeups/op numerator of E24.  Entries
// consumed by polling (Poll/PollBatch, or WaitCtx's first try) cost no
// wakeup, which is exactly what batched draining buys.
func (q *CQ) Wakeups() uint64 { return q.wakeups.Load() }

// Len reports the number of queued completions.
func (q *CQ) Len() int {
	n := q.size.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}

// Dropped reports how many completions were lost to overflow.
func (q *CQ) Dropped() uint64 { return q.dropped.Load() }

// OverflowErr returns the typed ErrCQOverflow if the queue ever dropped
// a completion, nil otherwise.  Callers that must not lose completions
// (e.g. the CQ multiplexer) check it after draining.
func (q *CQ) OverflowErr() error {
	if q.dropped.Load() > 0 {
		return ErrCQOverflow
	}
	return nil
}

// Close wakes all waiters with ErrCQClosed.  Pending entries can still
// be drained with Poll.
func (q *CQ) Close() {
	if q.closed.CompareAndSwap(false, true) {
		close(q.closedCh)
	}
}
