package mm

import (
	"errors"
	"fmt"

	"repro/internal/pgtable"
	"repro/internal/phys"
	"repro/internal/swapdev"
	"repro/internal/vma"
)

// GetFreePage allocates one frame, running direct reclaim when the free
// list is empty — the get_free_pages → try_to_free_pages chain of §2.2.
// The returned frame has Count = 1 and is zero-filled.
func (k *Kernel) GetFreePage() (phys.PFN, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.getFreePageLocked()
}

func (k *Kernel) getFreePageLocked() (phys.PFN, error) {
	pfn, _, err := k.allocFrameLocked(swapdev.NoSlot, false)
	return pfn, err
}

// allocFrameLocked is getFreePageLocked, and with a slot it is the
// allocation of a swap-in: the frame comes from k.swap.Load with the
// slot's image in it instead of zeroes, and kept reports that the slot
// stayed allocated as the frame's swap-cache image.
func (k *Kernel) allocFrameLocked(slot swapdev.Slot, keep bool) (pfn phys.PFN, kept bool, err error) {
	k.charge(k.costs().PageAlloc)
	// Reclaim rounds, like the rising-priority loop in
	// do_try_to_free_pages.  A round that frees nothing may still have
	// aged pages (cleared referenced/accessed bits), so only several
	// consecutive fruitless rounds mean genuine OOM.
	zeroRounds := 0
	for {
		if slot == swapdev.NoSlot {
			pfn, err = k.phys.AllocFrame()
		} else {
			pfn, kept, err = k.swap.Load(slot, k.phys, keep)
		}
		if !errors.Is(err, phys.ErrOutOfMemory) {
			return pfn, kept, err
		}
		if freed := k.tryToFreePagesLocked(); freed == 0 {
			zeroRounds++
			if zeroRounds >= 3 {
				return phys.NoPFN, false, ErrOOM
			}
		} else {
			zeroRounds = 0
		}
	}
}

// HandleFault services a page fault at addr in the given address space.
// write indicates a store.  It implements demand-zero, swap-in and
// copy-on-write; protection violations and unmapped addresses return
// ErrSegv.
func (k *Kernel) HandleFault(as *AddressSpace, addr pgtable.VAddr, write bool) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.handleFaultLocked(as, addr, write)
}

func (k *Kernel) handleFaultLocked(as *AddressSpace, addr pgtable.VAddr, write bool) error {
	if as.dead {
		return ErrNoProcess
	}
	v := pgtable.PageOf(addr)
	area, ok := as.vmas.Find(v)
	if !ok {
		return fmt.Errorf("%w: %v no vma for %#x", ErrSegv, as, uint64(addr))
	}
	if write && area.Flags&vma.Write == 0 {
		return fmt.Errorf("%w: %v write to read-only area %v", ErrSegv, as, area)
	}
	if !write && area.Flags&vma.Read == 0 {
		return fmt.Errorf("%w: %v read from non-readable area %v", ErrSegv, as, area)
	}

	k.charge(k.costs().PTEWalk)
	e, err := as.pt.Lookup(v)
	if err != nil {
		return err
	}

	switch {
	case e.None():
		return k.demandZeroLocked(as, v, area, write)
	case e.Swapped():
		return k.swapInLocked(as, v, e, area, write)
	case e.Present() && write && !e.Writable():
		if gs := k.guardsCoveringLocked(as, v); len(gs) != 0 {
			return k.guardWriteFaultLocked(as, v, e, gs)
		}
		return k.cowLocked(as, v, e)
	case e.Present():
		// Spurious fault (e.g. racing touch): refresh A/D bits.
		f := pgtable.FlagAccessed
		if write {
			f |= pgtable.FlagDirty
		}
		return as.pt.SetFlags(v, f)
	default:
		return fmt.Errorf("mm: unhandled PTE state %v for vpn %d", e, v)
	}
}

// demandZeroLocked materializes a never-touched anonymous page.  Guarded
// pages come up read-only on a read fault (a fresh zero page is still
// part of the revoked range); a write fault consults the guard policy —
// fail-fast rejects the store, copy-on-touch lets it through since the
// brand-new frame is the writer's own copy by construction.
func (k *Kernel) demandZeroLocked(as *AddressSpace, v pgtable.VPN, area vma.VMA, write bool) error {
	grant := true
	if gs := k.guardsCoveringLocked(as, v); len(gs) != 0 {
		switch {
		case write && k.kernelPin:
			// Kernel-pin transparency: a registration pin faulting the
			// page in is not a user store.  Map it read-only; the pin
			// resolves through translateLocked's guarded-pin branch.
			grant = false
		case write:
			if err := k.guardScribbleLocked(as, v, gs); err != nil {
				return err
			}
		default:
			grant = false
		}
	}
	pfn, err := k.getFreePageLocked()
	if err != nil {
		return err
	}
	k.charge(k.costs().PageZero)
	flags := protFlags(area, grant) | pgtable.FlagAccessed
	if write {
		flags |= pgtable.FlagDirty
	}
	k.stats.MinorFaults++
	return as.pt.Set(v, pgtable.MakePresent(pfn, flags))
}

// swapInLocked brings a page back from swap.  Note that it always
// allocates a fresh frame: this is what strands the orphaned frame held
// by a refcount-only "lock" (paper §3.1, step 4 of the experiment).
//
// When the slot is unshared and the fault is a read, the slot is kept as
// the frame's swap-cache image (PG_SwapCache): a later clean re-eviction
// can then skip the device write entirely.  An unshared slot on a write
// fault is released, and its page becomes the fresh frame's.
func (k *Kernel) swapInLocked(as *AddressSpace, v pgtable.VPN, e pgtable.PTE, area vma.VMA, write bool) error {
	// Guarded pages obey the same rules as demand-zero: read faults map
	// the page without write permission, write faults go through the
	// scribble policy (the frame coming off the device was not part of
	// any pinned in-flight snapshot, so copy-on-touch may use it as the
	// writer's copy directly).
	grant := true
	if gs := k.guardsCoveringLocked(as, v); len(gs) != 0 {
		switch {
		case write && k.kernelPin:
			// Kernel-pin transparency, as in demandZeroLocked: the swap
			// image of a guarded page IS the revoked snapshot (no store
			// can have changed it), so the pin may use it — read-only.
			grant = false
		case write:
			if err := k.guardScribbleLocked(as, v, gs); err != nil {
				return err
			}
		default:
			grant = false
		}
	}
	slot := e.SwapSlot()
	// A slot that cannot be read fails the fault with the PTE still
	// naming it, and takes no frame.
	pfn, keep, err := k.allocFrameLocked(slot, !write)
	if err != nil {
		return err
	}
	if keep {
		// Keep the image: the PTE's use of the slot transfers to the
		// swap cache.
		k.swapCache[pfn] = slot
		_ = k.phys.SetFlags(pfn, phys.PGSwapCache)
	}
	k.charge(k.costs().PageIn)
	k.stats.MajorFaults++
	k.stats.SwapIns++
	flags := protFlags(area, grant) | pgtable.FlagAccessed
	if write {
		flags |= pgtable.FlagDirty
	}
	return as.pt.Set(v, pgtable.MakePresent(pfn, flags))
}

// cowLocked resolves a write fault on a read-only mapping of a writable
// area: exclusive frames are simply re-enabled for writing, shared frames
// are copied.
func (k *Kernel) cowLocked(as *AddressSpace, v pgtable.VPN, e pgtable.PTE) error {
	old := e.PFN()
	if k.phys.RefCount(old) == 1 {
		// Sole owner: reuse the frame writable.
		k.stats.MinorFaults++
		return as.pt.Set(v, e|pgtable.FlagWrite|pgtable.FlagDirty|pgtable.FlagAccessed)
	}
	pfn, err := k.getFreePageLocked()
	if err != nil {
		return err
	}
	// The allocation may have run direct reclaim, and reclaim may have
	// evicted the very page being faulted — the PTE then points at a swap
	// slot and the reference e held is already gone.  Re-validate and let
	// the caller re-fault rather than overwrite the swap entry and drop a
	// reference this fault no longer owns.
	cur, err := as.pt.Lookup(v)
	if err != nil {
		_ = k.putMappedFrameLocked(pfn)
		return err
	}
	if !cur.Present() || cur.PFN() != old {
		_ = k.putMappedFrameLocked(pfn)
		return nil
	}
	e = cur
	// The mapping moves to the fresh copy; the old frame stays with the
	// other sharers, so any TPT translation of it goes stale — told
	// before the copy is taken, so no DMA write lands behind it.  (The
	// sole-owner path above keeps the frame and does not notify.)
	k.notifyPageLocked(as, v, NotifyCOW)
	if err := k.phys.CopyPhys(pfn.Addr(), old.Addr(), phys.PageSize); err != nil {
		_ = k.putMappedFrameLocked(pfn)
		return err
	}
	k.charge(k.costs().PageCopy)
	if err := k.putMappedFrameLocked(old); err != nil {
		return err
	}
	k.stats.MinorFaults++
	k.stats.COWCopies++
	return as.pt.Set(v, pgtable.MakePresent(pfn,
		e&(pgtable.FlagUser)|pgtable.FlagWrite|pgtable.FlagDirty|pgtable.FlagAccessed))
}

// MakePagesPresent faults every page of [addr, addr+npages pages) into
// memory — the make_pages_present step of do_mlock and the page-in phase
// of every registration path.
func (k *Kernel) MakePagesPresent(as *AddressSpace, addr pgtable.VAddr, npages int, write bool) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.makePagesPresentLocked(as, addr, npages, write)
}

func (k *Kernel) makePagesPresentLocked(as *AddressSpace, addr pgtable.VAddr, npages int, write bool) error {
	start := pgtable.PageOf(addr)
	for i := 0; i < npages; i++ {
		v := start + pgtable.VPN(i)
		e, err := as.pt.Lookup(v)
		if err != nil {
			return err
		}
		needFault := !e.Present() || (write && !e.Writable())
		if needFault {
			if err := k.handleFaultLocked(as, v.Addr(), write); err != nil {
				return err
			}
		}
	}
	return nil
}

// protFlags derives PTE protection bits from a VMA.  Writable areas get
// the write bit only when grantWrite is set (COW keeps it clear).
func protFlags(a vma.VMA, grantWrite bool) pgtable.PTE {
	f := pgtable.FlagUser
	if a.Flags&vma.Write != 0 && grantWrite {
		f |= pgtable.FlagWrite
	}
	return f
}
