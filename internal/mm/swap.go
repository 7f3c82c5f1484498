package mm

import (
	"repro/internal/pgtable"
	"repro/internal/phys"
	"repro/internal/vma"
)

// TryToFreePages runs one direct-reclaim pass: first the shrink_mmap
// clock over the page cache, then swap_out over process memory — the
// exact order of do_try_to_free_pages the paper walks through in §2.2.
// It returns the number of frames freed.
func (k *Kernel) TryToFreePages() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.tryToFreePagesLocked()
}

// reclaimableLocked applies the kernel's eviction-eligibility rules,
// honouring the IgnorePageLocks ablation: with the flag set, the PG_*
// skip rule is gone but kernel pins still protect their pages.
func (k *Kernel) reclaimableLocked(pfn phys.PFN) bool {
	if !k.cfg.IgnorePageLocks {
		return k.phys.Reclaimable(pfn)
	}
	return k.phys.RefCount(pfn) > 0 && k.phys.Pins(pfn) == 0
}

func (k *Kernel) tryToFreePagesLocked() int {
	k.stats.DirectScans++
	freed := k.shrinkMmapLocked(k.cfg.ClockBatch)
	if freed > 0 {
		return freed
	}
	return k.swapOutLocked(k.cfg.SwapBatch)
}

// ShrinkMmap runs the clock algorithm over up to batch page-map entries,
// reclaiming page-cache frames.  Per §2.2 it leaves untouched: pages with
// PG_locked set, reserved pages, pinned pages, pages with a reference
// count other than one, and pages that are not cache pages at all (user
// process memory is never freed here).  Referenced cache pages get their
// second chance: the referenced bit is cleared and the hand moves on.
func (k *Kernel) ShrinkMmap(batch int) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.shrinkMmapLocked(batch)
}

func (k *Kernel) shrinkMmapLocked(batch int) int {
	freed := 0
	n := k.phys.NumFrames()
	for i := 0; i < batch && i < n; i++ {
		pfn := k.clockHand
		k.clockHand = (k.clockHand + 1) % phys.PFN(n)
		k.stats.ClockScans++

		cp, isCache := k.pageCache[pfn]
		if !isCache {
			continue // not page cache: shrink_mmap skips process pages
		}
		if !k.reclaimableLocked(pfn) {
			continue // PG_locked / PG_reserved / pinned
		}
		if k.phys.RefCount(pfn) != 1 {
			continue // shared: "pages with a reference counter other than one"
		}
		if cp.referenced {
			cp.referenced = false // second chance
			continue
		}
		delete(k.pageCache, pfn)
		if _, err := k.phys.Put(pfn); err == nil {
			freed++
			k.stats.CacheReclaim++
		}
	}
	return freed
}

// SwapOut evicts up to batch process pages to the swap device, visiting
// processes round-robin (swap_out → swap_out_process → swap_out_vma).
// VM_LOCKED areas are skipped wholesale; within an area, frames carrying
// PG_locked or PG_reserved or a kernel pin are skipped.  The reference
// count is NOT consulted: a victim page is written to swap, its PTE is
// redirected to the swap entry, and __free_page is called — if some
// driver raised the count, the frame is simply orphaned.  This is the
// behaviour the locktest experiment exposes.
func (k *Kernel) SwapOut(batch int) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.swapOutLocked(batch)
}

func (k *Kernel) swapOutLocked(batch int) int {
	procs := k.procs
	if len(procs) == 0 {
		return 0
	}
	evicted := 0
	// Visit each process at most once per pass, starting at the rotor.
	for i := 0; i < len(procs) && evicted < batch; i++ {
		as := procs[(k.swapRotor+i)%len(procs)]
		n := k.swapOutProcessLocked(as, batch-evicted)
		evicted += n
		if n > 0 {
			// Advance the rotor past this process for fairness.
			k.swapRotor = (k.swapRotor + i + 1) % len(procs)
		}
	}
	return evicted
}

// swapOutProcessLocked scans one process's areas from its saved scan
// position, evicting up to limit pages.
func (k *Kernel) swapOutProcessLocked(as *AddressSpace, limit int) int {
	if limit <= 0 || as.dead {
		return 0
	}
	evicted := 0
	// Two half-scans so the saved position wraps around the whole space.
	for pass := 0; pass < 2 && evicted < limit; pass++ {
		start := as.swapScan
		end := pgtable.VPN(pgtable.MaxVPN + 1)
		if pass == 1 {
			start = 0
			end = as.swapScan
		}
		for i := 0; i < as.vmas.Len() && evicted < limit; i++ {
			area := as.vmas.At(i)
			if area.Flags&vma.Locked != 0 {
				continue // swap_out_vma skips VM_LOCKED
			}
			lo, hi := area.Start, area.End
			if lo < start {
				lo = start
			}
			if hi > end {
				hi = end
			}
			for v := lo; v < hi && evicted < limit; v++ {
				e, err := as.pt.Lookup(v)
				if err != nil || !e.Present() {
					continue
				}
				if k.tryToSwapOutLocked(as, v, e) {
					evicted++
					as.swapScan = v + 1
				}
			}
		}
	}
	return evicted
}

// tryToSwapOutLocked evicts a single present page if permitted.
func (k *Kernel) tryToSwapOutLocked(as *AddressSpace, v pgtable.VPN, e pgtable.PTE) bool {
	pfn := e.PFN()
	if !k.reclaimableLocked(pfn) {
		return false // PG_locked / PG_reserved / pinned
	}
	// Recently used pages get a second chance: clear the accessed bit.
	if !k.cfg.NoSecondChance && e&pgtable.FlagAccessed != 0 {
		_ = as.pt.Set(v, e&^pgtable.FlagAccessed)
		return false
	}
	// Tell the watchers before the image is taken: once the notifier
	// returns, no DMA is still writing the frame (see notifier.go), so
	// what goes to swap — or what the clean path trusts is already
	// there — is the page's final content.  If the eviction then fails
	// the translation is merely non-present and repairs on next use.
	k.notifyPageLocked(as, v, NotifySwapOut)

	// Swap-cache fast path: a frame whose image still sits in its slot
	// needs no device write if it stayed clean since the swap-in; the
	// cache's slot use transfers to the PTE.  A dirty one refreshes the
	// image in place, same slot.
	slot, cached := k.swapCache[pfn]
	if cached {
		delete(k.swapCache, pfn)
		_ = k.phys.ClearFlags(pfn, phys.PGSwapCache)
	} else {
		var err error
		if slot, err = k.swap.Alloc(); err != nil {
			return false // swap full: nothing this path can do
		}
	}
	clean := cached && e&pgtable.FlagDirty == 0
	// Redirect the PTE to the swap entry, then __free_page.  If a driver
	// raised the count, the frame stays allocated — orphaned.
	if err := as.pt.Set(v, pgtable.MakeSwap(slot, e)); err != nil {
		_, _ = k.swap.Free(slot)
		return false
	}
	if clean {
		_, _ = k.phys.Put(pfn)
	} else {
		// The device write and the __free_page in one: a frame that
		// frees hands its page to the slot, which is what taking the
		// image means here; an orphan or a shared frame keeps its bytes
		// and the slot gets a copy.
		if err := k.swap.Store(slot, k.phys, pfn); err != nil {
			_ = as.pt.Set(v, e)
			_, _ = k.swap.Free(slot)
			return false
		}
		k.charge(k.costs().PageOut)
	}
	k.stats.SwapOuts++
	if clean {
		k.stats.SwapCacheHit++
	}
	return true
}

// putMappedFrameLocked drops one reference on a frame that was mapped by
// a PTE (munmap, exit, COW replacement, PROT_NONE).  When that was the
// last reference, any swap-cache slot still holding the frame's image is
// released too.
func (k *Kernel) putMappedFrameLocked(pfn phys.PFN) error {
	freed, err := k.phys.Put(pfn)
	if err != nil {
		return err
	}
	if freed {
		if slot, ok := k.swapCache[pfn]; ok {
			delete(k.swapCache, pfn)
			if _, err := k.swap.Free(slot); err != nil {
				return err
			}
		}
	}
	return nil
}
