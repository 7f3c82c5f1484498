package kagent

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/mm"
	"repro/internal/pgtable"
	"repro/internal/phys"
	"repro/internal/trace"
	"repro/internal/via"
)

// Pin-free registration (RegNoPin).  The region's pages are faulted in
// and entered into the TPT, but no pin is taken: the kernel remains free
// to swap, unmap or COW-break any of them.  Reliability comes from the
// other direction — a range notifier registered with the mm makes every
// eviction call down into the NIC and mark the affected TPT entry
// non-present, and DMA that hits such an entry raises an IO page fault
// that the agent services by faulting the page back in and repairing the
// translation.  This trades the paper's "lock it so reclaim cannot touch
// it" invariant for "reclaim may touch it, but never silently".

// nopinWalker faults the range present and records frame addresses
// without pinning — core.StrategyNone, the "no locking at all" strategy,
// which is exactly what pin-free registration wants for its setup walk.
var nopinWalker = core.MustNew(core.StrategyNone)

// nopinTracker relays mm range-notifier events into TPT invalidations.
// It buffers events that arrive before the TPT handle exists (the window
// between notifier registration and RegisterMemory) and replays them
// when armed, so no eviction in that window is lost.
//
// Lock order: the mm calls onEvent under the kernel lock, so the chain
// is k.mu → tracker.mu → tpt.mu, then the TPT's DMA fence.  Nothing ever
// takes these in another order (the TPT never calls into the mm or the
// tracker, and DMA drops the fence before raising an IO fault).
type nopinTracker struct {
	nic *via.NIC

	mu      sync.Mutex
	handle  via.MemHandle
	ready   bool
	pending []int
}

// onEvent is the range-notifier callback: every swap-out, unmap or
// COW-break of a page in the registered range lands here, under the
// kernel lock, before the page's image is taken or its frame freed.
func (t *nopinTracker) onEvent(ev mm.NotifyEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.ready {
		t.pending = append(t.pending, ev.PageIndex)
		return
	}
	t.nic.InvalidateTPTPage(t.handle, ev.PageIndex)
}

// arm publishes the TPT handle and replays buffered events.  A replayed
// invalidation may hit a page the setup walk re-faulted after the event
// fired; that only costs a spurious IO fault later — never a stale
// translation.
func (t *nopinTracker) arm(h via.MemHandle) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handle = h
	t.ready = true
	for _, p := range t.pending {
		t.nic.InvalidateTPTPage(h, p)
	}
	t.pending = nil
}

// registerNoPin is the RegisterMem tail for attrs.NoPin: notifier first
// (so evictions during setup are caught), then the pin-free walk, then
// the TPT entry, then arm.
func (a *Agent) registerNoPin(as *mm.AddressSpace, addr pgtable.VAddr, length int, tag via.ProtectionTag, attrs via.MemAttrs, st regStage) (*Registration, error) {
	if length <= 0 {
		st.finishErr(trace.KindRegister)
		return nil, fmt.Errorf("kagent: nopin registration of %d bytes", length)
	}
	first := pgtable.PageOf(addr)
	last := pgtable.PageOf(addr + pgtable.VAddr(length-1))
	npages := int(last-first) + 1

	tr := &nopinTracker{nic: a.nic}
	nid := a.kernel.RegisterRangeNotifier(as, addr, npages, tr.onEvent)

	lock, err := nopinWalker.Lock(a.kernel, as, addr, length)
	if err != nil {
		a.kernel.UnregisterRangeNotifier(nid)
		st.finishErr(trace.KindRegister)
		return nil, fmt.Errorf("kagent: nopin walk: %w", err)
	}
	st.mark(trace.KindPin, uint64(len(lock.Frames)))

	handle, err := a.nic.RegisterMemory(lock.Frames, lock.Offset, length, tag, attrs)
	if err != nil {
		a.kernel.UnregisterRangeNotifier(nid)
		st.finishErr(trace.KindRegister)
		return nil, fmt.Errorf("kagent: TPT registration: %w", err)
	}
	st.mark(trace.KindTPTInsert, uint64(len(lock.Frames)))

	reg := &Registration{
		ID:         int(a.nextID.Add(1)),
		Handle:     handle,
		Addr:       addr,
		Length:     length,
		Tag:        tag,
		lock:       lock,
		as:         as,
		noPin:      true,
		notifierID: nid,
		tracker:    tr,
	}
	a.nopinMu.Lock()
	a.nopinRegs[handle] = reg
	a.nopinMu.Unlock()
	a.insert(reg)
	// Arm last: from here every notifier event goes straight to the TPT,
	// and anything that fired during setup has just been replayed.
	tr.arm(handle)
	st.finishOK(trace.KindRegister, uint64(handle))
	return reg, nil
}

// dropNoPin tears down the notifier side of a nopin registration before
// the TPT region goes away.
func (a *Agent) dropNoPin(reg *Registration) {
	a.kernel.UnregisterRangeNotifier(reg.notifierID)
	a.nopinMu.Lock()
	delete(a.nopinRegs, reg.Handle)
	a.nopinMu.Unlock()
}

// resolveIOFault is the NIC's IO-page-fault upcall: fault the page back
// in and repair the translation, in one kernel critical section so the
// new frame cannot be re-evicted between fault-in and TPT update (any
// later eviction fires the notifier against the repaired entry).
func (a *Agent) resolveIOFault(h via.MemHandle, page int) error {
	a.nopinMu.Lock()
	reg := a.nopinRegs[h]
	a.nopinMu.Unlock()
	if reg == nil {
		return fmt.Errorf("%w: no nopin registration for handle %d", ErrUnknownRegistration, h)
	}
	if page < 0 || page >= len(reg.lock.Frames) {
		return fmt.Errorf("kagent: IO fault for page %d outside handle %d", page, h)
	}
	// Servicing the fault is a host interrupt: one kernel crossing.
	if m := a.kernel.Meter(); m != nil {
		m.Charge(m.Costs.KernelCall)
	}
	addr := (pgtable.PageOf(reg.Addr) + pgtable.VPN(page)).Addr()
	return a.kernel.ResolvePage(reg.as, addr, func(pa phys.Addr) error {
		return a.nic.RepairTPTPage(h, page, pa)
	})
}

// consistentNoPin is the ConsistentPages probe for pin-free regions.  A
// page counts as consistent when its TPT entry cannot misdirect DMA:
// either non-present (DMA faults and gets repaired) or present and
// pointing at the frame the process page table holds.  Present entries
// aimed at a frame the process no longer maps are the stale-translation
// hazard the notifier exists to prevent.
func (a *Agent) consistentNoPin(reg *Registration) (consistent, total int, err error) {
	start := pgtable.PageOf(reg.Addr)
	total = len(reg.lock.Frames)
	for i := 0; i < total; i++ {
		pa, present, err := a.nic.TPTPageState(reg.Handle, i)
		if err != nil {
			return consistent, total, err
		}
		if !present {
			consistent++
			continue
		}
		pfn, err := a.kernel.ResidentPFN(reg.as, (start + pgtable.VPN(i)).Addr())
		if err != nil {
			return consistent, total, err
		}
		if pfn != phys.NoPFN && pfn.Addr() == pa {
			consistent++
		}
	}
	return consistent, total, nil
}
