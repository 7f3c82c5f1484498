package via

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// CQMux multiplexes one completion queue across thousands of VIs: a
// single poller goroutine drains the CQ and routes each completion to
// whichever caller is blocked on that descriptor — the epoll analogue
// for VipCQWait.  Endpoints that share a mux need no per-VI wait
// goroutine, so a 1k-rank world runs O(ranks) goroutines instead of
// O(VIs).
//
// Delivery is a rendezvous keyed by *Descriptor:
//
//   - the poller finds a registered waiter → hands the completion over;
//   - the completion arrives first → parked in a bounded pending map
//     until its WaitDesc shows up;
//   - a WaitDesc that observes the descriptor's own done channel before
//     the poller reaches its completion self-drains the CQ (delivering
//     other VIs' completions along the way), so synchronous-mode
//     completions never wait on the poller's schedule.
//
// Descriptor.Done is the correctness backstop throughout: even if a
// completion entry was lost to CQ overflow, WaitDesc returns the final
// status after a short grace wait and counts the bypass.
type CQMux struct {
	cq *CQ

	mu      sync.Mutex
	waiters map[*Descriptor]chan Completion
	pending map[*Descriptor]Completion
	// fifo orders pending entries for eviction when the map is full
	// (duplicate completions under faults, or waiters that bypassed).
	fifo []*Descriptor
	vis  map[uint64]struct{} // distinct VI uids seen

	drained    atomic.Uint64 // completions taken off the CQ (poller + self-drain)
	delivered  atomic.Uint64 // handed to a registered waiter
	selfDrains atomic.Uint64 // WaitDesc drained its own completion
	bypassed   atomic.Uint64 // WaitDesc gave up on the CQ (lost entry)
	evicted    atomic.Uint64 // pending entries evicted by the cap
	parks      atomic.Uint64 // poller exhausted its spin budget and blocked

	done chan struct{}
}

// CQMuxStats is a point-in-time snapshot of a mux's routing counters.
type CQMuxStats struct {
	// Drained counts completions consumed from the shared CQ, by the
	// poller or by self-draining waiters.
	Drained uint64
	// Delivered counts completions handed directly to a parked waiter.
	Delivered uint64
	// SelfDrains counts waits that found the descriptor already done
	// and pumped the CQ themselves.
	SelfDrains uint64
	// Bypassed counts waits that returned via the descriptor's own
	// completion signal because the CQ entry never surfaced (overflow).
	Bypassed uint64
	// Evicted counts parked completions discarded by the pending cap.
	Evicted uint64
	// PollerParks counts the times the poller ran out of work, spun its
	// budget dry, and parked on the CQ's notify channel.  Drained minus
	// parks approximates completions consumed without any wakeup — the
	// spin-then-park win at high rank counts.
	PollerParks uint64
	// Pending is the current parked-completion count.
	Pending int
	// VIs is the number of distinct VIs whose completions passed
	// through the mux.
	VIs int
}

// muxPendingCap bounds completions parked for a waiter that never
// arrives (duplicate completions after fault recovery).  muxLostWait is
// the grace period before a waiter declares its CQ entry lost.
const (
	muxPendingCap = 4096
	muxLostWait   = 2 * time.Millisecond
)

// NewCQMux creates a shared completion queue of the given depth and
// starts its poller.  Close stops the poller and closes the queue.
func NewCQMux(depth int) *CQMux {
	m := &CQMux{
		cq:      NewCQ(depth),
		waiters: make(map[*Descriptor]chan Completion),
		pending: make(map[*Descriptor]Completion),
		vis:     make(map[uint64]struct{}),
		done:    make(chan struct{}),
	}
	go m.poll()
	return m
}

// CQ exposes the shared queue so VIs can be created against it
// (CreateVIWithCQ / vipl.CreateViCQ).
func (m *CQMux) CQ() *CQ { return m.cq }

// muxPollBatch is the poller's drain granularity: up to this many
// completions come off the CQ per PollBatch and are routed under one
// mux lock acquisition.  muxSpinBudget is how many empty polls the
// poller tolerates (yielding between them) before parking on the CQ's
// notify channel — the adaptive spin-then-park window that keeps a busy
// thousand-VI world from paying a wakeup per completion while an idle
// mux still sleeps.
const (
	muxPollBatch  = 64
	muxSpinBudget = 128
)

// poll is the single poller: it drains the shared CQ in batches,
// spinning briefly when the queue runs dry and parking only once the
// spin budget is exhausted, until the queue closes.
func (m *CQMux) poll() {
	defer close(m.done)
	buf := make([]Completion, muxPollBatch)
	spins := 0
	for {
		n, err := m.cq.PollBatch(buf)
		if n > 0 {
			m.drained.Add(uint64(n))
			m.mu.Lock()
			for _, c := range buf[:n] {
				m.routeLocked(c)
			}
			m.mu.Unlock()
			clear(buf[:n])
			spins = 0
			continue
		}
		if errors.Is(err, ErrCQClosed) {
			return
		}
		if spins < muxSpinBudget {
			spins++
			runtime.Gosched()
			continue
		}
		m.parks.Add(1)
		c, werr := m.cq.Wait()
		if werr != nil {
			return
		}
		m.drained.Add(1)
		m.route(c)
		spins = 0
	}
}

// route hands one completion to its waiter or parks it.
func (m *CQMux) route(c Completion) {
	m.mu.Lock()
	m.routeLocked(c)
	m.mu.Unlock()
}

func (m *CQMux) routeLocked(c Completion) {
	if c.VI != nil {
		m.vis[c.VI.uid] = struct{}{}
	}
	if c.Desc == nil {
		return
	}
	if ch, ok := m.waiters[c.Desc]; ok {
		delete(m.waiters, c.Desc)
		ch <- c // capacity 1, sole sender after waiter removal
		m.delivered.Add(1)
		return
	}
	if _, dup := m.pending[c.Desc]; dup {
		return
	}
	if len(m.pending) >= muxPendingCap {
		// Evict the oldest parked completion; its waiter (if any ever
		// comes) still succeeds through the descriptor's done channel.
		for len(m.fifo) > 0 {
			old := m.fifo[0]
			m.fifo = m.fifo[1:]
			if _, ok := m.pending[old]; ok {
				delete(m.pending, old)
				m.evicted.Add(1)
				break
			}
		}
	}
	m.pending[c.Desc] = c
	m.fifo = append(m.fifo, c.Desc)
	if len(m.fifo) > 2*len(m.pending)+64 {
		// Most fifo entries are tombstones (their pending entry was
		// consumed by WaitDesc, delivery, or Forget).  Compact in place
		// so the order array stays O(pending) instead of growing with
		// every parked completion for the life of the mux.
		old := m.fifo
		kept := old[:0]
		for _, pd := range old {
			if _, ok := m.pending[pd]; ok {
				kept = append(kept, pd)
			}
		}
		clear(old[len(kept):])
		m.fifo = kept
	}
}

// WaitDesc blocks until the descriptor completes and its completion has
// been consumed from the shared CQ (or provably lost), then returns the
// final status.  It is the mux-mode replacement for Descriptor.Wait.
//
// A CQ entry only counts while the descriptor is complete: owners
// recycle descriptors, and an entry still on the queue at Forget time
// surfaces during the next life, where it must not end the wait early.
func (m *CQMux) WaitDesc(d *Descriptor) Status {
	// Already complete and the entry is parked or still on the queue:
	// nothing to allocate.
	if d.Completed() && (m.takeOrWait(d, nil) || m.pumpFor(d)) {
		return d.Status
	}
	ch := make(chan Completion, 1)
	for {
		routed := m.takeOrWait(d, ch)
		if !routed {
			select {
			case <-ch:
				routed = true
			case <-d.Done():
			}
		}
		if !routed {
			break
		}
		if d.Completed() {
			return d.Status
		}
		// A leftover of the descriptor's previous life; keep waiting.
	}
	// The descriptor is done but its completion hasn't been routed to
	// us yet.  Drain the CQ ourselves rather than waiting on the
	// poller's schedule — this is the poll-mode fast path and it keeps
	// synchronous (engine-less) configurations latency-neutral.
	if m.pumpFor(d) {
		return d.Status
	}
	// The poller beat us to every CQ entry; either our completion is in
	// flight to ch, or it was dropped by CQ overflow.
	select {
	case <-ch:
		return d.Status
	case <-time.After(muxLostWait):
	}
	m.mu.Lock()
	if _, still := m.waiters[d]; still {
		delete(m.waiters, d)
		m.bypassed.Add(1)
	}
	m.mu.Unlock()
	return d.Status
}

// takeOrWait consumes d's parked completion and reports true, or, when
// there is none, registers ch (if non-nil) as d's waiter.
func (m *CQMux) takeOrWait(d *Descriptor, ch chan Completion) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.pending[d]; ok {
		delete(m.pending, d)
		return true
	}
	if ch != nil {
		m.waiters[d] = ch
	}
	return false
}

// pumpFor drains CQ entries, routing others' completions normally,
// until it consumes d's own completion (true) or the queue runs empty
// or closes (false).
func (m *CQMux) pumpFor(d *Descriptor) bool {
	for {
		c, err := m.cq.Poll()
		if err != nil {
			return false
		}
		m.drained.Add(1)
		if c.Desc == d {
			m.mu.Lock()
			if c.VI != nil {
				m.vis[c.VI.uid] = struct{}{}
			}
			delete(m.waiters, d)
			m.mu.Unlock()
			m.selfDrains.Add(1)
			return true
		}
		m.route(c)
	}
}

// Forget drops any parked completion or registered waiter for d.  Call
// it when abandoning a descriptor whose completion may never be waited
// (e.g. ring descriptors discarded during connection recovery), and
// before the Reset of a descriptor about to be reposted: the mux keys
// its state by pointer, so leftovers would belong to the next life.
func (m *CQMux) Forget(d *Descriptor) {
	m.mu.Lock()
	if _, ok := m.pending[d]; ok {
		delete(m.pending, d)
		m.fifo = slices.DeleteFunc(m.fifo, func(p *Descriptor) bool { return p == d })
	}
	delete(m.waiters, d)
	m.mu.Unlock()
}

// Stats snapshots the routing counters.
func (m *CQMux) Stats() CQMuxStats {
	m.mu.Lock()
	pend, vis := len(m.pending), len(m.vis)
	m.mu.Unlock()
	return CQMuxStats{
		Drained:     m.drained.Load(),
		Delivered:   m.delivered.Load(),
		SelfDrains:  m.selfDrains.Load(),
		Bypassed:    m.bypassed.Load(),
		Evicted:     m.evicted.Load(),
		PollerParks: m.parks.Load(),
		Pending:     pend,
		VIs:         vis,
	}
}

// Close shuts the shared CQ and waits for the poller to exit.  Blocked
// WaitDesc callers still return through their descriptors' done
// channels.
func (m *CQMux) Close() {
	m.cq.Close()
	<-m.done
}
