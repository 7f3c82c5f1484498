package mm

import (
	"fmt"

	"repro/internal/pgtable"
	"repro/internal/phys"
)

// Range notifiers: the MMU-notifier mechanism the nopin registration
// mode builds on.  A driver watching a virtual range registers a
// callback; whenever the kernel is about to take a page of that range
// away from its current frame — swap-out, munmap/exit, mprotect to
// PROT_NONE, or a COW break that moves the mapping to a fresh copy —
// the callback fires once per affected page, before the page's image is
// taken (the copy to swap, the COW copy) and so before the old frame can
// be freed or reused.  The NIC-side subscriber clears the page's TPT
// present bit and waits for DMA already past translation to drain, so
// when the callback returns nothing writes the frame any more: later DMA
// faults instead of touching an orphaned frame, and no DMA write lands
// behind the image.
//
// Contract: callbacks run under the kernel lock and therefore MUST NOT
// re-enter the Kernel (no faults, no registration calls).  Calling down
// into the NIC's TPT is safe — the TPT never calls back into mm, and DMA
// holds the TPT's fence only while copying, never across the IO-fault
// upcall, so the lock order k.mu → tpt.mu, k.mu → tpt.fence has no
// cycle.

// NotifyKind says why a page is losing its frame.
type NotifyKind uint8

const (
	// NotifySwapOut: the page is being evicted to swap.
	NotifySwapOut NotifyKind = iota
	// NotifyUnmap: the mapping is going away (munmap, process exit,
	// mprotect to PROT_NONE).
	NotifyUnmap
	// NotifyCOW: a copy-on-write break is moving the mapping to a new
	// frame; the old frame stays with the other sharers.
	NotifyCOW
)

func (nk NotifyKind) String() string {
	switch nk {
	case NotifySwapOut:
		return "swap-out"
	case NotifyUnmap:
		return "unmap"
	case NotifyCOW:
		return "cow"
	default:
		return fmt.Sprintf("notify(%d)", uint8(nk))
	}
}

// NotifyEvent describes one page losing its frame.
type NotifyEvent struct {
	// VPN is the affected virtual page.
	VPN pgtable.VPN
	// PageIndex is the page's index relative to the watched range start
	// (what a TPT subscriber needs: the region page number).
	PageIndex int
	// Kind says which kernel path is taking the frame away.
	Kind NotifyKind
}

// rangeNotifier is one registered watch.
type rangeNotifier struct {
	id     int
	as     *AddressSpace
	start  pgtable.VPN
	npages int
	fn     func(NotifyEvent)
}

// RegisterRangeNotifier watches npages starting at the page containing
// addr in the given address space.  fn fires under the kernel lock —
// see the package contract above.  Returns the registration id.
func (k *Kernel) RegisterRangeNotifier(as *AddressSpace, addr pgtable.VAddr, npages int, fn func(NotifyEvent)) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	id := k.nextNotifier
	k.nextNotifier++
	k.notifiers[id] = &rangeNotifier{
		id: id, as: as, start: pgtable.PageOf(addr), npages: npages, fn: fn,
	}
	return id
}

// UnregisterRangeNotifier removes a watch; unknown ids are ignored
// (teardown paths may race process exit).
func (k *Kernel) UnregisterRangeNotifier(id int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	delete(k.notifiers, id)
}

// notifyPageLocked fires every notifier watching (as, v).  Callers hold
// k.mu and call this BEFORE the page's image is taken and its old frame
// freed, so a subscriber's TPT entry is non-present, and its DMA
// drained, by the time the content is captured or the frame could
// belong to someone else.
func (k *Kernel) notifyPageLocked(as *AddressSpace, v pgtable.VPN, kind NotifyKind) {
	if len(k.notifiers) == 0 {
		return
	}
	for _, nt := range k.notifiers {
		if nt.as != as || v < nt.start || v >= nt.start+pgtable.VPN(nt.npages) {
			continue
		}
		k.stats.NotifierFires++
		nt.fn(NotifyEvent{VPN: v, PageIndex: int(v - nt.start), Kind: kind})
	}
}

// ResolvePage faults the page containing addr present (as a write
// access) and passes its physical address to fn while still holding the
// kernel lock, so reclaim cannot evict the page between the fault-in
// and fn — the repair window the nopin IO-fault handler needs to enter
// a valid translation into the TPT atomically with respect to eviction.
// fn is subject to the same no-re-entry contract as notifier callbacks.
func (k *Kernel) ResolvePage(as *AddressSpace, addr pgtable.VAddr, fn func(phys.Addr) error) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if as.dead {
		return ErrNoProcess
	}
	pfn, err := k.translateLocked(as, pgtable.PageOf(addr), true)
	if err != nil {
		return err
	}
	if fn == nil {
		return nil
	}
	return fn(pfn.Addr() + phys.Addr(pgtable.Offset(addr)))
}
