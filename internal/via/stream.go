package via

import (
	"errors"
	"sync"

	"repro/internal/phys"
)

// dmaStream moves one descriptor's payload between two registered ends.
// A pinned page cannot move under the card, so the common transfer never
// touches a host buffer: both ends resolve to extent lists and the bytes
// go frame to frame, once.  The staging buffer is the exception, taken
// when an end holds a nopin segment — it is then the unit that
// tptCopyFaulting and tptCopySpec fault in and retransmit — or when the
// two ends intersect in one memory and the destination must see a
// snapshot of the source.
type dmaStream struct {
	total    int          // payload bytes
	src, dst []extent     // the ends resolved so far and not yet moved
	srcMem   *phys.Memory // memory the src extents address
	buf      []byte       // staging, nil while the transfer streams
	pb       *PayloadBuf
	remote   [1]Segment // backs a one-segment end (RDMA remote, local DMA): a local array would escape
}

var streamPool = sync.Pool{New: func() any { return new(dmaStream) }}

func getStream(total int) *dmaStream {
	s := streamPool.Get().(*dmaStream)
	s.total = total
	return s
}

func (s *dmaStream) release() {
	PutPayload(s.pb)
	*s = dmaStream{src: s.src[:0], dst: s.dst[:0]}
	streamPool.Put(s)
}

// stage switches the transfer to the staging buffer: the source extents
// resolved so far are read into its head and the destination extents
// resolved so far (none while the source is still resolving) written
// from it.  From here on segments move as they are translated.
func (s *dmaStream) stage(dm *phys.Memory) error {
	s.buf, s.pb = GetPayload(s.total)
	err := copyExtents(s.srcMem, s.src, s.buf, false)
	if err == nil {
		err = copyExtents(dm, s.dst, s.buf, true)
	}
	s.src, s.dst = s.src[:0], s.dst[:0]
	return err
}

// dmaEnd names one end of a transfer: segments of memory registered on
// a NIC, reached under a VI's protection tag and, for the remote end of
// an RDMA operation, carrying the attribute need demands.
type dmaEnd struct {
	nic  *NIC
	tag  ProtectionTag
	segs []Segment
	need func(MemAttrs) bool
}

func rdmaWritable(a MemAttrs) bool { return a.EnableRDMAWrite }
func rdmaReadable(a MemAttrs) bool { return a.EnableRDMARead }

// resolve resolves one end of the transfer from the first s.total bytes
// of its segments: the source (write false) or, after it, the
// destination, which also moves the payload.  Every non-empty segment
// passes the SiteDMA guard and one range translation.  While the
// transfer streams a segment only contributes its extents, so both ends
// have validated completely before the first byte moves.  A nopin
// segment — translated inside the DMA fence, or raising an IO page
// fault — stages the transfer: the segment is copied under its fence or
// handed to the fault recovery with its piece of the buffer, and the
// fence is gone before the next segment is looked at, so a transfer
// never holds two fences and never calls the host under one.
func (s *dmaStream) resolve(e dmaEnd, write bool) error {
	n, exts := e.nic, &s.dst
	if !write {
		exts, s.srcMem = &s.src, n.mem
	}
	for i, pos := 0, 0; i < len(e.segs) && pos < s.total; i++ {
		sg, ln := e.segs[i], min(e.segs[i].Length, s.total-pos)
		if ln == 0 {
			continue
		}
		if err := n.guard(SiteDMA, uint64(sg.Handle), ln, ErrDMAFault); err != nil {
			return err
		}
		own := len(*exts)
		out, fenced, terr := n.tpt.translateRange(sg.Handle, sg.Offset, ln, e.tag, e.need, *exts)
		fault := terr != nil && errors.Is(terr, ErrIOPageFault)
		if terr != nil && !fault {
			return terr
		}
		var err error
		if (fenced || fault) && s.buf == nil {
			err = s.stage(n.mem)
		}
		switch {
		case err != nil: // staging failed
		case fault:
			err = n.tptCopyFaulting(sg.Handle, sg.Offset, s.buf[pos:pos+ln], e.tag, write, e.need, terr, exts)
		case s.buf != nil:
			err, *exts = copyExtents(n.mem, out[own:], s.buf[pos:], write), out[:0]
		default:
			*exts = out
		}
		if fenced {
			n.tpt.fence.RUnlock()
		}
		if err != nil {
			return err
		}
		pos += ln
	}
	switch {
	case !write || s.buf != nil:
		return nil
	case n.mem == s.srcMem && overlap(s.src, s.dst):
		return s.stage(n.mem) // the destination sees a snapshot of the source
	}
	return streamExtents(n.mem, s.dst, s.srcMem, s.src)
}

// restart runs a transfer again from a clean stream after its source
// (dst nil) or destination end failed to resolve — the NIC's retry of a
// DMA fault.  It charges the source DMA's startup again and, for a
// failed destination, the rest of a retransmission: the payload's DMA,
// the wire crossing and the destination's startup.  The matched receive
// has not completed, so the payload lands once.
func (s *dmaStream) restart(src dmaEnd, dst *dmaEnd) error {
	PutPayload(s.pb)
	s.buf, s.pb, s.src, s.dst = nil, nil, s.src[:0], s.dst[:0]
	m := src.nic.meter
	m.Charge(m.Costs.DMAStartup)
	if err := s.resolve(src, false); err != nil || dst == nil {
		return err
	}
	m.ChargeN(m.Costs.DMAPerByte, s.total)
	m.Charge(m.Costs.WireLatency)
	dst.nic.meter.Charge(dst.nic.meter.Costs.DMAStartup)
	return s.resolve(*dst, true)
}

// streamExtents copies the src extents of sm onto the dst extents of dm,
// which cover the same number of bytes, cutting at every boundary of
// either list.
func streamExtents(dm *phys.Memory, dst []extent, sm *phys.Memory, src []extent) error {
	var from extent
	for _, to := range dst {
		for to.n > 0 {
			if from.n == 0 {
				from, src = src[0], src[1:]
			}
			k := min(from.n, to.n)
			if err := dm.CopyFrom(to.addr, sm, from.addr, k); err != nil {
				return err
			}
			from.addr, from.n = from.addr+phys.Addr(k), from.n-k
			to.addr, to.n = to.addr+phys.Addr(k), to.n-k
		}
	}
	return nil
}

// overlap reports whether an extent of a intersects one of b.
func overlap(a, b []extent) bool {
	for _, x := range a {
		for _, y := range b {
			if x.addr < y.addr+phys.Addr(y.n) && y.addr < x.addr+phys.Addr(x.n) {
				return true
			}
		}
	}
	return false
}
