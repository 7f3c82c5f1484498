// The ownership-transfer protocol (Options.Protocol Remap/ProtectSend),
// after Power's "Using Memory-Protection to Simplify Zero-copy
// Operations": the send side revokes write permission on the payload for
// the transfer's duration (an mm write guard — concurrent stores fault
// typed or degrade copy-on-touch), and the receive side delivers
// page-aligned payloads by frame exchange — the kernel donates staging
// frames, the NIC DMAs into them, and delivery swaps them into the
// receiver's page table.  One PTE update per page instead of one page
// copy per page.
//
// Degradation rules: payloads under one page, and any send the receiver
// declines (no staging memory, no TPT room, an injected registration
// fault), fall back to the one-copy path — still under the write
// guard, so the ownership semantics hold either way.  An unaligned tail
// shorter than a page is scatter-copied from the last staged frame.
//
// The wire exchange is the rendezvous engine's (rendezvous.go): this
// file holds only what is particular to ownership transfer — the
// sender's guard window and the receiver's staging-frame region source.
package msg

import (
	"repro/internal/mm"
	"repro/internal/pgtable"
	"repro/internal/phys"
	"repro/internal/proc"
	"repro/internal/regcache"
	"repro/internal/trace"
	"repro/internal/via"
	"repro/internal/vipl"
)

// sendRemap is the ownership-transfer send.
func (e *Endpoint) sendRemap(b *proc.Buffer) (int, error) {
	size := b.Bytes
	kern := e.nic.Process().Kernel()
	as := e.nic.Process().AS()

	// Pin the payload before revoking: the registration's kiobuf pin
	// faults pages present and must resolve against the frames the guard
	// will freeze, not trip the guard itself.
	reg, err := e.cache.Acquire(b, 0, size, e.payloadAttrs(false), regcache.ClassUser)
	if err != nil {
		return 0, err
	}
	defer func() { _ = e.cache.Release(reg) }()

	policy := mm.GuardFailFast
	if e.opts.ScribblePolicy == ScribbleCopy {
		policy = mm.GuardCopyOnTouch
	}
	guard, err := kern.RevokeWrite(as, b.Addr, b.Pages(), policy, func(page int) {
		// Runs under the kernel lock on the faulting goroutine: count
		// and trace, nothing that re-enters the kernel.
		e.scribbles.Add(1)
		e.obs.Load().event(trace.KindScribbleDetected, uint64(page), uint64(size))
	})
	if err != nil {
		return 0, err
	}
	defer func() { _ = kern.RestoreWrite(guard) }()

	// Sub-page payloads cannot move by frame exchange; one-copy them
	// under the guard (the ownership semantics hold, only the delivery
	// mechanism degrades).
	if size < phys.PageSize {
		return e.sendInline(b, false)
	}

	return e.sendRndv(b, reg, true)
}

// staging is the remap receiver's region source: kernel-donated frames,
// outside any address space, registered as one RDMA-write target.
type staging struct {
	pfns []phys.PFN
	reg  *vipl.MemRegion
}

// stageFrames donates and registers enough frames to land size bytes.
// A failure leaves nothing held; the caller declines the transfer.
func (e *Endpoint) stageFrames(size int) (staging, error) {
	kern := e.nic.Process().Kernel()
	pfns, err := kern.DonateFrames((size + phys.PageSize - 1) / phys.PageSize)
	if err != nil {
		return staging{}, err
	}
	reg, err := e.nic.RegisterFrames(pfns, size, via.MemAttrs{EnableRDMAWrite: true})
	if err != nil {
		_ = kern.ReleaseDonated(pfns)
		return staging{}, err
	}
	return staging{pfns: pfns, reg: reg}, nil
}

// unstage returns an aborted transfer's staging to the kernel.
func (e *Endpoint) unstage(s staging) {
	_ = e.nic.DeregisterMem(s.reg)
	_ = e.nic.Process().Kernel().ReleaseDonated(s.pfns)
}

// adoptStaged delivers a landed payload by frame exchange: every full
// staged frame is adopted into the destination buffer's page table, and
// the unaligned tail (if any) is the scatter fallback — one copy out of
// the last staged frame.
func (e *Endpoint) adoptStaged(b *proc.Buffer, s staging, size int) (int, error) {
	kern := e.nic.Process().Kernel()
	as := e.nic.Process().AS()
	pfns := s.pfns
	nfull := size / phys.PageSize
	tail := size - nfull*phys.PageSize
	// The staged frames must leave the TPT before they can belong to the
	// application.
	if err := e.nic.DeregisterMem(s.reg); err != nil {
		_ = kern.ReleaseDonated(pfns)
		return 0, err
	}
	for i := 0; i < nfull; i++ {
		if err := kern.AdoptFrame(as, b.Addr+pgtable.VAddr(i*phys.PageSize), pfns[i]); err != nil {
			_ = kern.ReleaseDonated(pfns[i:])
			return i * phys.PageSize, err
		}
	}
	if tail > 0 {
		// The tail's frame returns to the free list once copied out.
		tmp := make([]byte, tail)
		if err := kern.Phys().ReadPhys(pfns[nfull].Addr(), tmp); err != nil {
			_ = kern.ReleaseDonated(pfns[nfull:])
			return nfull * phys.PageSize, err
		}
		if err := b.Write(nfull*phys.PageSize, tmp); err != nil {
			_ = kern.ReleaseDonated(pfns[nfull:])
			return nfull * phys.PageSize, err
		}
		e.meter.Charge(e.meter.Costs.PageCopy)
		if err := kern.ReleaseDonated(pfns[nfull:]); err != nil {
			return size, err
		}
	}
	e.stats.RemapRecvs++
	e.stats.RemapPages += uint64(nfull)
	e.stats.RemapTailBytes += uint64(tail)
	e.obs.Load().event(trace.KindRemapRecv, uint64(size), uint64(nfull))
	return size, nil
}
