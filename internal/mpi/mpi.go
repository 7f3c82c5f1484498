// Package mpi is a compact MPI-flavoured message-passing library over
// the VIA stack, in the shape of the CHEMPI design the companion
// articles describe: every message is announced by a small header (the
// "message info struct"), payloads travel through the msg layer's
// eager/one-copy/zero-copy protocols, receives match on (source, tag)
// with an unexpected-message queue, and the collectives are mapped onto
// point-to-point transfers.
//
// Deliberate simplifications, documented rather than hidden: no
// MPI_ANY_SOURCE (the first article in the collection is devoted to how
// much machinery that needs), no derived datatypes (buffers are byte
// ranges), and communicators are the single world.
//
// Scaling features (PR 7): worlds can defer endpoint creation until a
// pair first talks (Lazy), share one registration cache per rank so
// collectives hit the cache across endpoints, and multiplex every
// endpoint of a rank over one shared completion queue (SharedCQ) so the
// poller count grows with ranks, not with the O(n²) VI population.
package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/msg"
	"repro/internal/proc"
	"repro/internal/regcache"
	"repro/internal/via"
	"repro/internal/vipl"
)

// Errors returned by the library.
var (
	ErrRank     = errors.New("mpi: rank out of range")
	ErrSelfSend = errors.New("mpi: send to self not supported")
	ErrTooSmall = errors.New("mpi: receive buffer smaller than message")
)

// header is the message info struct: tag and payload size.
const headerBytes = 16

// Algo selects the collective algorithm family.
type Algo string

const (
	// AlgoLog (the default) uses the logarithmic algorithms:
	// dissemination barrier, binomial broadcast/reduce,
	// recursive-doubling allreduce, ring allreduce for vectors and
	// pairwise alltoall.
	AlgoLog Algo = "log"
	// AlgoLinear keeps the original O(n) root-centric algorithms as an
	// ablation baseline for the E21 sweep.
	AlgoLinear Algo = "linear"
)

// WorldOptions parameterizes world construction.
type WorldOptions struct {
	// CacheRegions bounds each rank's registration cache
	// (0 = unbounded).  The cache is shared by every endpoint of the
	// rank, so a buffer registered for one peer is a hit for all.
	CacheRegions int
	// Lazy defers endpoint-pair creation until two ranks first
	// communicate.  Log-structured collectives touch O(n log n) of the
	// O(n²) possible pairs, so large worlds skip most of the setup.
	Lazy bool
	// SharedCQ gives each rank one CQMux: every endpoint's VI completes
	// into the shared queue and one poller goroutine per rank
	// multiplexes them (the epoll analogue for thousands of VIs).
	SharedCQ bool
	// Algo selects the collective algorithms ("" = AlgoLog).
	Algo Algo
	// Endpoint seeds every endpoint's msg options (ring geometry,
	// RDMAEager, protocol thresholds).  SharedCache and Mux are filled
	// in per rank.
	Endpoint msg.Options
	// Reliability, when non-nil, enables the reliability layer on every
	// endpoint with this configuration.
	Reliability *msg.ReliabilityConfig
}

// World is one MPI job: n ranks spread round-robin over the cluster's
// nodes, connected with endpoint pairs (all upfront, or lazily).
type World struct {
	cluster *cluster.Cluster
	ranks   []*Rank
	opts    WorldOptions
	// mu guards lazy pairing: peers slices are written (and, in lazy
	// mode, read) under it.
	mu sync.Mutex
}

// Rank is one MPI process.
type Rank struct {
	world *World
	id    int
	proc  *proc.Process
	nic   *vipl.Nic
	// cache is the rank-wide registration cache shared by all of the
	// rank's endpoints.
	cache *regcache.Cache
	// mux is the rank's shared completion-queue poller (nil unless
	// SharedCQ).
	mux *via.CQMux
	// peers[j] is this rank's endpoint towards rank j (nil for self or,
	// in lazy worlds, not-yet-connected pairs).
	peers []*msg.Endpoint
	// unexpected[j] queues messages from rank j that arrived while a
	// receive with a different tag was outstanding.
	unexpected [][]pending
	// hdrBuf is the reusable header send buffer (ranks are
	// single-threaded, so reuse is safe).
	hdrBuf *proc.Buffer
	// hdrRecv is the reusable header receive buffer.
	hdrRecv *proc.Buffer
	// epoch counts collective operations entered; cascaded is the last
	// epoch whose abort this rank has broadcast (see abortColl).
	epoch    uint64
	cascaded uint64
	// abortEpoch is the highest collective epoch any peer has flagged
	// aborted, delivered through the endpoints' urgent doorbell.  It is
	// written from peers' goroutines, hence atomic.
	abortEpoch atomic.Uint64
	// scratch pools collective scratch buffers by size so repeated
	// collectives reuse the same virtual addresses — which is what turns
	// their per-step registrations into registration-cache hits.
	scratch map[int][]*proc.Buffer
	// host is the rank's one host-side staging slice, grown on demand;
	// no borrower holds it across a call that could borrow it again.
	host []byte
}

type pending struct {
	tag  int
	data *proc.Buffer // holds exactly the payload
	size int
}

// NewWorld builds an n-rank world over the cluster with default
// options, creating one process per rank on node (rank mod nodes) and
// pairing endpoints between every rank pair.  cacheRegions bounds each
// rank's registration cache.
func NewWorld(c *cluster.Cluster, n, cacheRegions int) (*World, error) {
	return NewWorldOpts(c, n, WorldOptions{CacheRegions: cacheRegions})
}

// NewWorldOpts builds an n-rank world with explicit options.
func NewWorldOpts(c *cluster.Cluster, n int, o WorldOptions) (*World, error) {
	if n < 2 {
		return nil, fmt.Errorf("mpi: world of %d ranks", n)
	}
	w := &World{cluster: c, opts: o}
	for i := 0; i < n; i++ {
		node := c.Nodes[i%len(c.Nodes)]
		p := node.NewProcess(fmt.Sprintf("rank%d", i), false)
		r := &Rank{
			world:      w,
			id:         i,
			proc:       p,
			nic:        node.OpenNic(p),
			peers:      make([]*msg.Endpoint, n),
			unexpected: make([][]pending, n),
			scratch:    make(map[int][]*proc.Buffer),
		}
		r.cache = regcache.New(r.nic, o.CacheRegions)
		if o.SharedCQ {
			r.mux = via.NewCQMux(via.DefaultCQDepth)
		}
		var err error
		if r.hdrBuf, err = p.Malloc(headerBytes); err != nil {
			return nil, err
		}
		if r.hdrRecv, err = p.Malloc(headerBytes); err != nil {
			return nil, err
		}
		w.ranks = append(w.ranks, r)
	}
	if !o.Lazy {
		w.mu.Lock()
		defer w.mu.Unlock()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if err := w.pairLocked(i, j); err != nil {
					return nil, err
				}
			}
		}
	}
	return w, nil
}

// endpointOpts derives a rank's per-endpoint msg options from the world
// options: the rank-wide cache and (when SharedCQ) the rank's mux.
func (w *World) endpointOpts(r *Rank) msg.Options {
	o := w.opts.Endpoint
	o.SharedCache = r.cache
	if r.mux != nil {
		o.Mux = r.mux
	}
	return o
}

// pairLocked creates and pairs the endpoints between ranks i and j.
// Caller holds w.mu.
func (w *World) pairLocked(i, j int) error {
	ri, rj := w.ranks[i], w.ranks[j]
	ei, err := msg.NewEndpoint(fmt.Sprintf("r%d-r%d", i, j), ri.nic, w.cluster.Meter,
		w.opts.CacheRegions, w.endpointOpts(ri))
	if err != nil {
		return err
	}
	ej, err := msg.NewEndpoint(fmt.Sprintf("r%d-r%d", j, i), rj.nic, w.cluster.Meter,
		w.opts.CacheRegions, w.endpointOpts(rj))
	if err != nil {
		return err
	}
	if err := msg.Pair(w.cluster.Network, ei, ej); err != nil {
		return err
	}
	if w.opts.Reliability != nil {
		ei.EnableReliability(*w.opts.Reliability)
		ej.EnableReliability(*w.opts.Reliability)
	}
	ei.SetUrgentSink(ri.noteAbort)
	ej.SetUrgentSink(rj.noteAbort)
	ri.peers[j] = ei
	rj.peers[i] = ej
	return nil
}

// noteAbort folds a peer's abort doorbell into the rank's high-water
// aborted epoch.  Runs on the notifying peer's goroutine.
func (r *Rank) noteAbort(epoch uint64) {
	for {
		cur := r.abortEpoch.Load()
		if epoch <= cur || r.abortEpoch.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// endpoint returns rank i's endpoint towards rank j, creating the pair
// on first use in lazy worlds.
func (w *World) endpoint(i, j int) (*msg.Endpoint, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if ep := w.ranks[i].peers[j]; ep != nil {
		return ep, nil
	}
	lo, hi := i, j
	if lo > hi {
		lo, hi = hi, lo
	}
	if err := w.pairLocked(lo, hi); err != nil {
		return nil, err
	}
	return w.ranks[i].peers[j], nil
}

// connectedPeers snapshots the endpoints a rank currently has (for the
// abort cascade: never force lazy pairing just to notify).
func (w *World) connectedPeers(r *Rank) []*msg.Endpoint {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]*msg.Endpoint, len(r.peers))
	copy(out, r.peers)
	return out
}

// Size reports the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns rank i.
func (w *World) Rank(i int) (*Rank, error) {
	if i < 0 || i >= len(w.ranks) {
		return nil, fmt.Errorf("%w: %d of %d", ErrRank, i, len(w.ranks))
	}
	return w.ranks[i], nil
}

// Pairs reports how many endpoint pairs exist right now (lazy worlds
// grow this as ranks talk).
func (w *World) Pairs() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	total := 0
	for _, r := range w.ranks {
		for _, ep := range r.peers {
			if ep != nil {
				total++
			}
		}
	}
	return total / 2
}

// CacheStats aggregates every rank's registration-cache statistics.
func (w *World) CacheStats() regcache.Stats {
	var total regcache.Stats
	for _, r := range w.ranks {
		st := r.cache.Stats()
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Evictions += st.Evictions
		total.Failures += st.Failures
		total.EvictErrors += st.EvictErrors
		total.ResetInvalidations += st.ResetInvalidations
	}
	return total
}

// MuxStats aggregates every rank's completion-mux statistics (zero in
// worlds without SharedCQ).
func (w *World) MuxStats() via.CQMuxStats {
	var total via.CQMuxStats
	for _, r := range w.ranks {
		if r.mux == nil {
			continue
		}
		st := r.mux.Stats()
		total.Drained += st.Drained
		total.Delivered += st.Delivered
		total.SelfDrains += st.SelfDrains
		total.Bypassed += st.Bypassed
		total.Evicted += st.Evicted
		total.Pending += st.Pending
		total.VIs += st.VIs
	}
	return total
}

// Close stops every rank's mux poller.  The world must be quiescent
// (no collective in flight).
func (w *World) Close() {
	for _, r := range w.ranks {
		if r.mux != nil {
			r.mux.Close()
		}
	}
}

// getScratch returns a pooled buffer of exactly size bytes, allocating
// on pool miss.  Ranks are single-threaded, so the pool needs no lock;
// the detached half of an exchange allocates privately instead.
func (r *Rank) getScratch(size int) (*proc.Buffer, error) {
	if bufs := r.scratch[size]; len(bufs) > 0 {
		b := bufs[len(bufs)-1]
		r.scratch[size] = bufs[:len(bufs)-1]
		return b, nil
	}
	return r.proc.Malloc(size)
}

// putScratch returns a buffer to the rank's pool for reuse.
func (r *Rank) putScratch(b *proc.Buffer) {
	r.scratch[b.Bytes] = append(r.scratch[b.Bytes], b)
}

// hostScratch returns the rank's host staging slice sized to n bytes
// (contents undefined).  Only the rank's own goroutine may call it.
func (r *Rank) hostScratch(n int) []byte {
	if cap(r.host) < n {
		r.host = make([]byte, n)
	}
	return r.host[:n]
}

// copyBuf copies the first n bytes of src into dst through the host
// staging slice.
func (r *Rank) copyBuf(dst, src *proc.Buffer, n int) error {
	tmp := r.hostScratch(n)
	if err := src.Read(0, tmp); err != nil {
		return err
	}
	return dst.Write(0, tmp)
}

// ID reports the rank number.
func (r *Rank) ID() int { return r.id }

// Process returns the rank's process (for buffer allocation).
func (r *Rank) Process() *proc.Process { return r.proc }

// Cache returns the rank's shared registration cache.
func (r *Rank) Cache() *regcache.Cache { return r.cache }

// Mux returns the rank's completion mux (nil without SharedCQ).
func (r *Rank) Mux() *via.CQMux { return r.mux }

// Send transmits buf to rank dst with the given tag (blocking, like
// MPI_Send).  The payload protocol is chosen by size (msg.Auto).
func (r *Rank) Send(dst, tag int, buf *proc.Buffer) error {
	ep, err := r.peer(dst)
	if err != nil {
		return err
	}
	return sendWith(ep, r.hdrBuf, dst, tag, buf)
}

// sendWith announces buf with a header staged in hdrBuf, then sends it.
func sendWith(ep *msg.Endpoint, hdrBuf *proc.Buffer, dst, tag int, buf *proc.Buffer) error {
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(tag))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(buf.Bytes))
	if err := hdrBuf.Write(0, hdr[:]); err != nil {
		return err
	}
	if _, err := ep.Send(hdrBuf, msg.Eager); err != nil {
		return fmt.Errorf("mpi: header to rank %d: %w", dst, err)
	}
	if _, err := ep.Send(buf, msg.Auto); err != nil {
		return fmt.Errorf("mpi: payload to rank %d: %w", dst, err)
	}
	return nil
}

// sendDetached is Send with a private header buffer, used by the
// concurrent half of collective exchanges so an in-flight background
// send never shares hdrBuf with the rank's foreground traffic.  Mapping
// and unmapping it per call is simulated work the Meter charges, so
// pooling it would move E21's barrier and vector columns.
func (r *Rank) sendDetached(dst, tag int, buf *proc.Buffer) error {
	ep, err := r.peer(dst)
	if err != nil {
		return err
	}
	hdrBuf, err := r.proc.Malloc(headerBytes)
	if err != nil {
		return err
	}
	defer func() { _ = r.proc.Free(hdrBuf) }()
	return sendWith(ep, hdrBuf, dst, tag, buf)
}

// Recv receives a message with the given tag from rank src into buf and
// returns the payload length (blocking, like MPI_Recv with a specific
// source).  Messages from src with other tags are queued as unexpected.
// A buffer smaller than the message returns ErrTooSmall and leaves the
// message queued for a later, larger receive.
func (r *Rank) Recv(src, tag int, buf *proc.Buffer) (int, error) {
	ep, err := r.peer(src)
	if err != nil {
		return 0, err
	}
	// First serve the unexpected queue.
	for i, p := range r.unexpected[src] {
		if p.tag == tag {
			return r.claim(src, i, buf)
		}
	}
	for {
		gotTag, size, err := r.recvHeader(ep)
		if err != nil {
			return 0, err
		}
		if gotTag == tag {
			return r.recvPayload(ep, src, tag, size, buf)
		}
		if err := r.stash(ep, src, gotTag, size); err != nil {
			return 0, err
		}
	}
}

// recvPayload receives the payload the header just announced into buf.
// When buf cannot hold it the payload is stashed instead: left on the
// endpoint it would be parsed as the next header.
func (r *Rank) recvPayload(ep *msg.Endpoint, src, tag, size int, buf *proc.Buffer) (int, error) {
	if size > buf.Bytes {
		if err := r.stash(ep, src, tag, size); err != nil {
			return 0, err
		}
		return 0, fmt.Errorf("%w: message %d, buffer %d", ErrTooSmall, size, buf.Bytes)
	}
	n, err := ep.Recv(buf)
	if err != nil {
		return 0, err
	}
	if n != size {
		return n, fmt.Errorf("mpi: payload %d, header said %d", n, size)
	}
	return n, nil
}

// stash lands the announced payload in a fresh buffer and queues it as
// an unexpected message from src.
func (r *Rank) stash(ep *msg.Endpoint, src, tag, size int) error {
	data, err := r.proc.Malloc(size)
	if err != nil {
		return err
	}
	if _, err := ep.Recv(data); err != nil {
		_ = r.proc.Free(data)
		return err
	}
	r.unexpected[src] = append(r.unexpected[src], pending{tag: tag, data: data, size: size})
	return nil
}

// claim moves unexpected message i from src into the user buffer and
// dequeues it.  A refused claim (buffer too small, copy fault) leaves
// the message queued and its stash buffer alive.
func (r *Rank) claim(src, i int, buf *proc.Buffer) (int, error) {
	q := r.unexpected[src]
	p := q[i]
	if p.size > buf.Bytes {
		return 0, fmt.Errorf("%w: message %d, buffer %d", ErrTooSmall, p.size, buf.Bytes)
	}
	if err := r.copyBuf(buf, p.data, p.size); err != nil {
		return 0, err
	}
	r.unexpected[src] = append(q[:i], q[i+1:]...)
	if err := r.proc.Free(p.data); err != nil {
		return 0, err
	}
	return p.size, nil
}

// recvHeader receives and parses the next message's header on ep.
func (r *Rank) recvHeader(ep *msg.Endpoint) (tag, size int, err error) {
	n, err := ep.Recv(r.hdrRecv)
	if err != nil {
		return 0, 0, err
	}
	if n != headerBytes {
		return 0, 0, fmt.Errorf("mpi: header of %d bytes", n)
	}
	var hdr [headerBytes]byte
	if err := r.hdrRecv.Read(0, hdr[:]); err != nil {
		return 0, 0, err
	}
	return int(binary.LittleEndian.Uint64(hdr[0:])),
		int(binary.LittleEndian.Uint64(hdr[8:])), nil
}

func (r *Rank) peer(other int) (*msg.Endpoint, error) {
	if other < 0 || other >= len(r.peers) {
		return nil, fmt.Errorf("%w: %d of %d", ErrRank, other, len(r.peers))
	}
	if other == r.id {
		return nil, ErrSelfSend
	}
	if r.world.opts.Lazy {
		return r.world.endpoint(r.id, other)
	}
	return r.peers[other], nil
}
