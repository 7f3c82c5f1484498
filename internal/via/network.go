package via

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Network wires NICs together and manages VI connections (the connection
// manager of the VIPL's client/server model, reduced to its essentials).
type Network struct {
	mu        sync.Mutex
	nics      map[string]*NIC
	listeners map[listenerKey]*Listener

	// Link partitions, published as an immutable copy-on-write snapshot
	// (the TPT-epoch pattern from DESIGN.md §9): SetLinkDown/SetLinkUp
	// copy the set under nw.mu and swap the pointer, so the data path's
	// linkUp is always one atomic load plus — only while some link
	// somewhere is down — one read of an immutable map.  A severed rail
	// on the far side of the fabric no longer serializes healthy
	// cross-NIC traffic on the network mutex.  nil means a fully
	// healthy fabric.
	down atomic.Pointer[linkSet]
}

// linkSet is an immutable set of severed NIC pairs.  Never mutate a
// published set; copy it, edit the copy, publish the copy.
type linkSet map[linkKey]struct{}

// linkKey names an unordered NIC pair.
type linkKey struct{ a, b string }

func mkLinkKey(a, b string) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a: a, b: b}
}

// Errors returned by the network.
var (
	ErrDuplicateNIC = errors.New("via: NIC name already attached")
	ErrSameVI       = errors.New("via: cannot connect a VI to itself")
)

// NewNetwork creates an empty fabric.
func NewNetwork() *Network {
	return &Network{nics: make(map[string]*NIC)}
}

// Attach adds a NIC to the fabric.
func (nw *Network) Attach(n *NIC) error {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if _, ok := nw.nics[n.name]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateNIC, n.name)
	}
	nw.nics[n.name] = n
	n.nw.Store(nw)
	return nil
}

// NIC looks up an attached NIC by name.
func (nw *Network) NIC(name string) (*NIC, bool) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	n, ok := nw.nics[name]
	return n, ok
}

// SetLinkDown severs the link between two NICs (a fabric partition):
// sends and RDMA operations crossing it fault with StatusLinkError and
// the affected VIs enter the error state.  Loopback (a NIC to itself)
// cannot be severed.
func (nw *Network) SetLinkDown(a, b string) {
	if a == b {
		return
	}
	k := mkLinkKey(a, b)
	nw.mu.Lock()
	defer nw.mu.Unlock()
	cur := nw.down.Load()
	if cur != nil {
		if _, ok := (*cur)[k]; ok {
			return
		}
	}
	next := make(linkSet, 1+len(deref(cur)))
	for kk := range deref(cur) {
		next[kk] = struct{}{}
	}
	next[k] = struct{}{}
	nw.down.Store(&next)
}

// SetLinkUp heals a severed link.  Already-errored VIs stay in the
// error state until Reset — recovery is explicit, as the spec demands.
func (nw *Network) SetLinkUp(a, b string) {
	k := mkLinkKey(a, b)
	nw.mu.Lock()
	defer nw.mu.Unlock()
	cur := nw.down.Load()
	if cur == nil {
		return
	}
	if _, ok := (*cur)[k]; !ok {
		return
	}
	if len(*cur) == 1 {
		// Last partition healed: publish the nil fast path.
		nw.down.Store(nil)
		return
	}
	next := make(linkSet, len(*cur)-1)
	for kk := range *cur {
		if kk != k {
			next[kk] = struct{}{}
		}
	}
	nw.down.Store(&next)
}

// deref unwraps a possibly-nil snapshot pointer for range loops.
func deref(s *linkSet) linkSet {
	if s == nil {
		return nil
	}
	return *s
}

// DownLinks reports how many NIC pairs are currently partitioned.
func (nw *Network) DownLinks() int { return len(deref(nw.down.Load())) }

// linkUp reports whether traffic may flow between two NICs.  With no
// partitions anywhere the check is a single atomic nil-load; with
// partitions elsewhere, healthy traffic pays one read of an immutable
// snapshot — never a lock.
func (nw *Network) linkUp(a, b *NIC) bool {
	s := nw.down.Load()
	if s == nil || a == b {
		return true
	}
	_, bad := (*s)[mkLinkKey(a.name, b.name)]
	return !bad
}

// Connect pairs two idle VIs into a reliable point-to-point connection.
// The two VIs may live on the same NIC (loopback) or different NICs.
func (nw *Network) Connect(a, b *VI) error {
	if a == b {
		return ErrSameVI
	}
	// Lock in a stable order to avoid deadlock: every VI carries a
	// fabric-unique monotonically assigned uid, so the comparison is a
	// total order with no allocation on the connect path.
	first, second := a, b
	if a.uid > b.uid {
		first, second = b, a
	}
	first.mu.Lock()
	defer first.mu.Unlock()
	second.mu.Lock()
	defer second.mu.Unlock()
	if a.state != VIIdle || b.state != VIIdle {
		return ErrBusy
	}
	a.peer, b.peer = b, a
	a.state, b.state = VIConnected, VIConnected
	return nil
}

// Disconnect tears a connection down cleanly, flushing posted receive
// descriptors on both sides with StatusCancelled.  Sends still queued
// in engine lanes for either VI are flushed with StatusCancelled when
// their lane dequeues them (the VI is no longer connected), so no
// descriptor is lost.
func (nw *Network) Disconnect(v *VI) error {
	v.mu.Lock()
	peer := v.peer
	if v.state == VIIdle {
		v.mu.Unlock()
		return ErrNotConnected
	}
	if v.state == VIError {
		// An errored VI recovers only through the explicit Reset path.
		cause := v.errCause
		v.mu.Unlock()
		return fmt.Errorf("%w (cause: %v)", ErrVIErrorState, cause)
	}
	pending := v.recvQ[v.recvHead:]
	v.recvQ, v.recvHead = nil, 0
	v.peer = nil
	v.state = VIIdle
	v.mu.Unlock()
	v.flushRecvs(pending)
	if peer != nil {
		peer.mu.Lock()
		if peer.state == VIError {
			// The peer raced into the error state; leave it for Reset.
			peer.mu.Unlock()
			return nil
		}
		ppending := peer.recvQ[peer.recvHead:]
		peer.recvQ, peer.recvHead = nil, 0
		peer.peer = nil
		peer.state = VIIdle
		peer.mu.Unlock()
		peer.flushRecvs(ppending)
	}
	return nil
}
