package via

import (
	"runtime"
	"sync"

	"repro/internal/trace"
)

// The NIC's default descriptor processing is synchronous: PostSend runs
// the DMA engine inline and the descriptor is complete on return, which
// keeps single-threaded tests deterministic.  Real hardware is
// asynchronous — the doorbell enqueues work and the engine runs it in
// the background while the CPU continues (the whole point of the E11
// analysis).  StartEngine switches a NIC to that mode.
//
// The engine is multi-lane: a fixed set of worker goroutines, each
// owning one bounded FIFO queue.  A VI is hashed to a lane by its id,
// so one VI's descriptors are always processed by the same single
// consumer in posting order — the VIA ordering rule — while
// independent VIs proceed in parallel across lanes.

// engine is the background descriptor processor.
type engine struct {
	lanes []engineLane
	wg    sync.WaitGroup
}

// engineLane is one worker's queue.  The mutex orders enqueues against
// StopEngine's close so a post racing a stop can never write to a
// closed channel.
type engineLane struct {
	mu     sync.Mutex
	closed bool
	ch     chan engineItem
}

// engineItem is one unit of lane work: the descriptors that shared one
// doorbell, in posting order.  d is the first — a PostSend posts only
// it, so the single post carries no slice into the channel — and rest
// is the remainder of a PostSendBatch (one enqueue, one wakeup for the
// whole batch).
type engineItem struct {
	vi   *VI
	d    *Descriptor
	rest []*Descriptor
}

// engineQueueDepth bounds the posted-but-unprocessed descriptor count
// per lane (the send-queue depth of the card).  A post finding its
// lane full completes the descriptor with StatusQueueOverflow instead
// of blocking the doorbell.
const engineQueueDepth = 256

// maxEngineLanes caps the lane count; beyond the core count extra lanes
// only add scheduling overhead.
const maxEngineLanes = 64

// StartEngine switches the NIC to asynchronous descriptor processing
// with one lane per available CPU: PostSend returns as soon as the
// descriptor is enqueued, and descriptors of one VI are processed in
// posting order.  Callers learn about completion through
// Descriptor.Wait/Done or a CQ.
func (n *NIC) StartEngine() { n.StartEngineLanes(0) }

// StartEngineLanes starts the engine with an explicit lane count
// (values <= 0 select one lane per available CPU).  It is a no-op if
// the engine is already running.
func (n *NIC) StartEngineLanes(lanes int) {
	if lanes <= 0 {
		lanes = runtime.GOMAXPROCS(0)
	}
	if lanes > maxEngineLanes {
		lanes = maxEngineLanes
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.eng != nil {
		return
	}
	e := &engine{lanes: make([]engineLane, lanes)}
	for i := range e.lanes {
		e.lanes[i].ch = make(chan engineItem, engineQueueDepth)
	}
	n.eng = e
	e.wg.Add(lanes)
	for i := range e.lanes {
		go func(lane int, ln *engineLane) {
			defer e.wg.Done()
			for item := range ln.ch {
				if obs := n.obs.Load(); obs != nil {
					obs.trc.Instant(trace.KindLaneDequeue, uint64(lane), uint64(len(ln.ch)))
				}
				// SiteLane models the lane hardware itself: stall rules
				// delay the dequeue (a slow lane), error rules fault the
				// item's first descriptor as a DMA engine failure.  The rest
				// of a batch drains through process, which flushes them with
				// StatusConnectionError off the now-errored VI — every
				// descriptor still reaches exactly one terminal status.
				if ferr := n.guard(SiteLane, item.vi.uid, 0, ErrDMAFault); ferr != nil {
					n.faultSend(item.vi, item.d, ferr)
				} else {
					n.process(item.vi, item.d)
				}
				for _, d := range item.rest {
					n.process(item.vi, d)
				}
			}
		}(i, &e.lanes[i])
	}
}

// StopEngine drains the lane queues, stops the worker goroutines and
// returns the NIC to synchronous processing.  Posts racing the stop
// are processed inline after the drain (see dispatch), so no
// descriptor is ever lost.
func (n *NIC) StopEngine() {
	n.mu.Lock()
	e := n.eng
	n.eng = nil
	n.mu.Unlock()
	if e == nil {
		return
	}
	for i := range e.lanes {
		ln := &e.lanes[i]
		ln.mu.Lock()
		ln.closed = true
		close(ln.ch)
		ln.mu.Unlock()
	}
	e.wg.Wait()
}

// EngineRunning reports whether asynchronous processing is active.
func (n *NIC) EngineRunning() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.eng != nil
}

// EngineLanes reports the number of engine lanes (0 when synchronous).
func (n *NIC) EngineLanes() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.eng == nil {
		return 0
	}
	return len(n.eng.lanes)
}

// enqResult is the outcome of a lane enqueue attempt.
type enqResult uint8

const (
	// enqOK means the item is on the lane.
	enqOK enqResult = iota
	// enqFull means the lane queue is full; the caller must complete
	// the work with StatusQueueOverflow.
	enqFull
	// enqClosed means a concurrent StopEngine closed the lane; the
	// caller must run the work itself after the drain.
	enqClosed
)

// enqueueItem places one item on its VI's lane.  obs is the caller's
// loaded observer (nil when detached).
func (e *engine) enqueueItem(obs *nicObs, item engineItem) enqResult {
	lane := item.vi.id % len(e.lanes)
	ln := &e.lanes[lane]
	ln.mu.Lock()
	if ln.closed {
		ln.mu.Unlock()
		return enqClosed
	}
	select {
	case ln.ch <- item:
		if obs != nil {
			depth := len(ln.ch)
			obs.laneDepth.Observe(int64(depth))
			obs.trc.Instant(trace.KindLaneEnqueue, uint64(lane), uint64(depth))
		}
		ln.mu.Unlock()
		return enqOK
	default:
	}
	ln.mu.Unlock()
	return enqFull
}

// dispatch is the one route from a send doorbell to the DMA engine.  d
// and then rest (the remainder of a PostSendBatch, nil for a PostSend)
// share one doorbell and are processed in that order: inline on a
// synchronous NIC, as one item on the VI's lane in engine mode.  A full
// lane completes all of them with StatusQueueOverflow — the send queue
// could not take the post — instead of blocking the doorbell.
func (n *NIC) dispatch(v *VI, d *Descriptor, rest []*Descriptor) {
	n.ringDoorbell(1 + len(rest))
	n.mu.Lock()
	e := n.eng
	n.mu.Unlock()
	if e != nil {
		switch e.enqueueItem(n.obs.Load(), engineItem{vi: v, d: d, rest: rest}) {
		case enqOK:
			return
		case enqFull:
			v.completeSend(d, StatusQueueOverflow, 0)
			for _, d := range rest {
				v.completeSend(d, StatusQueueOverflow, 0)
			}
			return
		case enqClosed:
			// Lost the race with StopEngine.  Wait for the lanes to finish
			// draining so this VI's earlier descriptors complete first, then
			// process inline — per-VI order holds and the completion is
			// never lost.
			e.wg.Wait()
		}
	}
	n.process(v, d)
	for _, d := range rest {
		n.process(v, d)
	}
}
