// Package vipl is the VI User Agent: the unprivileged library (Intel's
// "Virtual Interface Provider Library") a process links against.  It
// wraps the kernel agent's registration calls (each one a kernel call —
// the cost VIA tries to keep off the fast path), creates VIs carrying
// the process's protection tag, and offers descriptor helpers.
package vipl

import (
	"errors"
	"fmt"

	"repro/internal/kagent"
	"repro/internal/pgtable"
	"repro/internal/phys"
	"repro/internal/proc"
	"repro/internal/slab"
	"repro/internal/via"
)

// Nic is a process's handle on the VIA NIC.
type Nic struct {
	agent *kagent.Agent
	proc  *proc.Process
	tag   via.ProtectionTag
	// regions carves MemRegions; they are never reused, so a stale
	// *MemRegion is never mistaken for a later one.
	regions slab.Slab[MemRegion]
}

// Errors returned by the user agent.
var (
	// ErrForeignBuffer reports a buffer that belongs to another process.
	ErrForeignBuffer = errors.New("vipl: buffer not owned by this process")
	// ErrOutsideBuffer reports a registration range outside its buffer.
	ErrOutsideBuffer = errors.New("vipl: range outside buffer")
)

// OpenNic opens the NIC for a process.  The kernel agent assigns the
// process a unique protection tag (derived from its pid), which every VI
// and memory registration of this handle will carry.
func OpenNic(agent *kagent.Agent, p *proc.Process) *Nic {
	// Tag 0 is reserved as the invalid tag; pids start at 1.
	return &Nic{agent: agent, proc: p, tag: via.ProtectionTag(p.ID())}
}

// Tag returns the process's protection tag.
func (n *Nic) Tag() via.ProtectionTag { return n.tag }

// Process returns the owning process.
func (n *Nic) Process() *proc.Process { return n.proc }

// Agent returns the kernel agent (diagnostics; user code has no business
// with it).
func (n *Nic) Agent() *kagent.Agent { return n.agent }

// CreateVi creates a virtual interface bound to the process's tag.
func (n *Nic) CreateVi() (*via.VI, error) {
	return n.agent.NIC().CreateVI(n.tag)
}

// CreateViCQ creates a VI whose send and receive completions are
// delivered to cq (VipCreateVi with a completion queue).  The queue may
// be shared by any number of VIs, including VIs of other NICs.
func (n *Nic) CreateViCQ(cq *via.CQ) (*via.VI, error) {
	return n.agent.NIC().CreateVIWithCQ(n.tag, cq, cq)
}

// MemRegion is a registered memory region owned by this handle.
type MemRegion struct {
	nic *Nic
	reg *kagent.Registration
}

// Handle returns the NIC memory handle for descriptor segments.
func (r *MemRegion) Handle() via.MemHandle { return r.reg.Handle }

// Length returns the registered byte length.
func (r *MemRegion) Length() int { return r.reg.Length }

// Addr returns the registered base virtual address.
func (r *MemRegion) Addr() pgtable.VAddr { return r.reg.Addr }

// PageCount reports how many pages (TPT slots) the region occupies.
func (r *MemRegion) PageCount() int { return len(r.reg.Pages()) }

// Registration exposes the kernel agent record (diagnostics).
func (r *MemRegion) Registration() *kagent.Registration { return r.reg }

// RegisterMem registers a whole buffer (VipRegisterMem).  This is a
// kernel call: the agent locks the pages with its configured strategy
// and fills the TPT.
func (n *Nic) RegisterMem(b *proc.Buffer, attrs via.MemAttrs) (*MemRegion, error) {
	return n.RegisterMemRange(b, 0, b.Bytes, attrs)
}

// RegisterMemRange registers [off, off+length) of a buffer.
func (n *Nic) RegisterMemRange(b *proc.Buffer, off, length int, attrs via.MemAttrs) (*MemRegion, error) {
	if off < 0 || length <= 0 || off+length > b.Bytes {
		return nil, fmt.Errorf("%w: register [%d,+%d) of %d bytes", ErrOutsideBuffer, off, length, b.Bytes)
	}
	reg, err := n.agent.RegisterMem(n.proc.AS(), b.Addr+pgtable.VAddr(off), length, n.tag, attrs)
	if err != nil {
		return nil, err
	}
	return n.region(reg), nil
}

// region wraps a kernel agent registration for the caller.
func (n *Nic) region(reg *kagent.Registration) *MemRegion {
	r := n.regions.New()
	r.nic, r.reg = n, reg
	return r
}

// RegisterFrames registers kernel-donated staging frames under this
// process's tag — the receive half of the remap protocol.  The frames
// belong to no user range yet; once the transfer lands they are adopted
// into the address space and the region deregistered.
func (n *Nic) RegisterFrames(pfns []phys.PFN, length int, attrs via.MemAttrs) (*MemRegion, error) {
	if len(pfns) == 0 || length <= 0 {
		return nil, fmt.Errorf("vipl: register %d frames of %d bytes", len(pfns), length)
	}
	reg, err := n.agent.RegisterFrames(pfns, length, n.tag, attrs)
	if err != nil {
		return nil, err
	}
	return n.region(reg), nil
}

// DeregisterMem releases a region (VipDeregisterMem).
func (n *Nic) DeregisterMem(r *MemRegion) error {
	return n.agent.DeregisterMem(r.reg)
}

// Consistent reports how many of the region's pages still match the TPT
// (diagnostics for the experiments).
func (r *MemRegion) Consistent() (ok, total int, err error) {
	return r.nic.agent.ConsistentPages(r.reg)
}

// Seg builds a descriptor segment over the region.
func (r *MemRegion) Seg(off, length int) via.Segment {
	return via.Segment{Handle: r.reg.Handle, Offset: off, Length: length}
}

// PostSend builds and posts a send descriptor over one region slice,
// returning the descriptor for completion polling.
func (n *Nic) PostSend(vi *via.VI, r *MemRegion, off, length int) (*via.Descriptor, error) {
	d := via.NewDescriptor(via.OpSend, r.Seg(off, length))
	if err := vi.PostSend(d); err != nil {
		return nil, err
	}
	return d, nil
}

// PostRecv builds and posts a receive descriptor over one region slice.
func (n *Nic) PostRecv(vi *via.VI, r *MemRegion, off, length int) (*via.Descriptor, error) {
	d := via.NewDescriptor(via.OpRecv, r.Seg(off, length))
	if err := vi.PostRecv(d); err != nil {
		return nil, err
	}
	return d, nil
}

// PostRDMAWrite posts a one-sided write from a local region slice into
// the peer's region named by (remoteHandle, remoteOff).
func (n *Nic) PostRDMAWrite(vi *via.VI, r *MemRegion, off, length int, remoteHandle via.MemHandle, remoteOff int) (*via.Descriptor, error) {
	d := via.NewDescriptor(via.OpRDMAWrite, r.Seg(off, length))
	d.Remote = via.RemoteSegment{Handle: remoteHandle, Offset: remoteOff}
	if err := vi.PostSend(d); err != nil {
		return nil, err
	}
	return d, nil
}

// PostRDMARead posts a one-sided read from the peer's region into a
// local region slice.
func (n *Nic) PostRDMARead(vi *via.VI, r *MemRegion, off, length int, remoteHandle via.MemHandle, remoteOff int) (*via.Descriptor, error) {
	d := via.NewDescriptor(via.OpRDMARead, r.Seg(off, length))
	d.Remote = via.RemoteSegment{Handle: remoteHandle, Offset: remoteOff}
	if err := vi.PostSend(d); err != nil {
		return nil, err
	}
	return d, nil
}
