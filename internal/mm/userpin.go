package mm

import (
	"fmt"

	"repro/internal/pgtable"
	"repro/internal/phys"
)

// PinUserPages is the kernel-internal core of map_user_kiobuf: under one
// kernel-lock critical section it faults every page of the range into
// memory and takes both a reference and a kernel pin on each frame, then
// returns the frame list.  Pinned frames are excluded from reclaim and
// swap until UnpinUserPages drops the pin.
//
// Holding the lock across fault-in and pin is what makes the operation
// reliable: there is no window in which the swap path can steal a page
// between its arrival and its pin (contrast with a driver that walks the
// page tables first and flips bits afterwards).
//
// write selects whether the pages are faulted for writing (DMA into the
// buffer requires it, and it resolves COW up front so the frame list
// stays authoritative).
func (k *Kernel) PinUserPages(as *AddressSpace, addr pgtable.VAddr, npages int, write bool) ([]phys.PFN, error) {
	return k.pinUserPages(as, addr, npages, write, true)
}

// PinUserPagesNested is PinUserPages for callers already inside the
// kernel (a driver ioctl that has paid its own crossing): it does the
// same fault-in + pin batch under the kernel lock but charges no
// KernelCall — the whole page list costs one crossing total, which is
// the kiobuf batching argument of the paper.
//
// The frame list is kernel memory, like a kiobuf's map list: it comes
// from a free list the kernel keeps under its lock, and
// UnpinUserPagesNested takes it back for the next batch, so a driver's
// pin/unpin cycle allocates nothing once the list is warm.  The caller
// must not touch the list after handing it to UnpinUserPagesNested.
func (k *Kernel) PinUserPagesNested(as *AddressSpace, addr pgtable.VAddr, npages int, write bool) ([]phys.PFN, error) {
	return k.pinUserPages(as, addr, npages, write, false)
}

func (k *Kernel) pinUserPages(as *AddressSpace, addr pgtable.VAddr, npages int, write, crossing bool) ([]phys.PFN, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if as.dead {
		return nil, ErrNoProcess
	}
	if npages <= 0 {
		return nil, fmt.Errorf("mm: pin of %d pages", npages)
	}
	start := pgtable.PageOf(addr)
	// Mark the pin batch so translateLocked resolves write-guarded pages
	// to their frozen frames instead of raising the scribble policy.
	k.kernelPin = true
	defer func() { k.kernelPin = false }()
	var pfns []phys.PFN
	if n := len(k.pinLists); !crossing && n > 0 {
		pfns, k.pinLists = k.pinLists[n-1], k.pinLists[:n-1]
	} else {
		pfns = make([]phys.PFN, 0, npages)
	}
	for i := 0; i < npages; i++ {
		v := start + pgtable.VPN(i)
		pfn, err := k.translateLocked(as, v, write)
		if err == nil {
			if err = k.phys.Get(pfn); err == nil {
				if err = k.phys.Pin(pfn); err != nil {
					_, _ = k.phys.Put(pfn)
				}
			}
		}
		if err != nil {
			k.unpinLocked(pfns, !crossing)
			return nil, err
		}
		pfns = append(pfns, pfn)
	}
	// Charge only on commit: a batch that fails mid-loop undoes its pins
	// and must not bill the crossing or the per-page pin work, or the
	// failed path skews the E4/E18a accounting (translateLocked still
	// charges the PTE walks and any fault work it really performed).
	if crossing {
		k.charge(k.costs().KernelCall)
	}
	k.chargeN(k.costs().PinPage, len(pfns))
	return pfns, nil
}

// UnpinUserPages releases the pins and references taken by PinUserPages.
func (k *Kernel) UnpinUserPages(pfns []phys.PFN) error {
	return k.unpinUserPages(pfns, true)
}

// UnpinUserPagesNested is UnpinUserPages without the KernelCall charge,
// for callers already inside the kernel (paired with
// PinUserPagesNested, whose list it takes back).
func (k *Kernel) UnpinUserPagesNested(pfns []phys.PFN) error {
	return k.unpinUserPages(pfns, false)
}

func (k *Kernel) unpinUserPages(pfns []phys.PFN, crossing bool) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if crossing {
		k.charge(k.costs().KernelCall)
	}
	return k.unpinLocked(pfns, !crossing)
}

// unpinLocked drops the pin and the reference on every frame of the
// list, reporting the first failure.  With recycle set the list goes
// back on the kernel's free list (the nested pair's contract).
func (k *Kernel) unpinLocked(pfns []phys.PFN, recycle bool) error {
	var firstErr error
	for _, pfn := range pfns {
		if err := k.phys.Unpin(pfn); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := k.putMappedFrameLocked(pfn); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if recycle && cap(pfns) > 0 {
		k.pinLists = append(k.pinLists, pfns[:0])
	}
	return firstErr
}

// PutFrame drops one reference on a frame, releasing any swap-cache slot
// when the frame actually frees.  Drivers holding raw references (the
// refcount-style locking strategies) must release them through this
// entry point rather than the bare page map, or they leak swap slots —
// one more way ad-hoc reference juggling goes wrong.
func (k *Kernel) PutFrame(pfn phys.PFN) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.putMappedFrameLocked(pfn)
}

// OrphanFrames counts frames that are allocated (Count > 0) yet neither
// referenced by any process PTE, nor in the page cache, nor pinned.
// These are the frames a refcount-only locking strategy strands when the
// swap path disassociates them (§3.1): permanently lost memory.
func (k *Kernel) OrphanFrames() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	referenced := make(map[phys.PFN]bool)
	for _, as := range k.procs {
		as.pt.Range(0, pgtable.MaxVPN+1, func(_ pgtable.VPN, e pgtable.PTE) bool {
			if e.Present() {
				referenced[e.PFN()] = true
			}
			return true
		})
	}
	orphans := 0
	for i := 0; i < k.phys.NumFrames(); i++ {
		pfn := phys.PFN(i)
		if k.phys.RefCount(pfn) == 0 {
			continue
		}
		if referenced[pfn] {
			continue
		}
		if _, ok := k.pageCache[pfn]; ok {
			continue
		}
		if k.phys.Pins(pfn) > 0 {
			continue
		}
		orphans++
	}
	return orphans
}
