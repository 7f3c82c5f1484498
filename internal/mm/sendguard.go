package mm

import (
	"errors"
	"fmt"

	"repro/internal/pgtable"
	"repro/internal/phys"
	"repro/internal/vma"
)

// Write guards implement the ownership-transfer half of the
// memory-protection zero-copy scheme (Power, "Using Memory-Protection to
// Simplify Zero-copy Operations"): for the duration of a transfer the
// sender's payload pages lose their PTE write permission, so an
// application store against an in-flight buffer becomes a visible fault
// instead of silent corruption.
//
// The revocation is PTE-level only — the VMA keeps its protection, so
// handleFaultLocked routes the store through the guard check rather than
// raising ErrSegv.  What happens then is the guard's policy:
//
//   - GuardFailFast: the store fails on the faulting goroutine with a
//     typed ErrWriteDuringFlight.
//   - GuardCopyOnTouch: the store succeeds against a fresh private copy
//     of the page; the original frame — the in-flight snapshot, normally
//     held by the transfer's kernel pin — stays stable.
//
// Guards may overlap (an application-level guard over a protocol-level
// one); a page is writable again only when no active guard covers it.

// ErrWriteDuringFlight is the typed error surfaced to a goroutine that
// stores to a page covered by a fail-fast write guard.
var ErrWriteDuringFlight = errors.New("mm: write to in-flight send buffer")

// GuardPolicy selects how a guarded write fault resolves.
type GuardPolicy uint8

const (
	// GuardFailFast fails the writer with ErrWriteDuringFlight.
	GuardFailFast GuardPolicy = iota
	// GuardCopyOnTouch gives the writer a private copy of the page and
	// lets the store proceed; the guarded frame is left untouched.
	GuardCopyOnTouch
)

// WriteGuard is one active revocation window, returned by RevokeWrite
// and released by RestoreWrite.
type WriteGuard struct {
	id     int
	k      *Kernel
	as     *AddressSpace
	start  pgtable.VPN
	npages int
	policy GuardPolicy

	// onScribble, when set, fires (under the kernel lock, on the
	// faulting goroutine) once per guarded write fault with the page
	// index inside the guarded range.  It must not re-enter the Kernel.
	onScribble func(page int)

	// hadWrite records which pages were present and writable when the
	// guard was installed — the set RestoreWrite re-enables.
	hadWrite []bool

	scribbles uint64
	released  bool
}

// Scribbles reports how many guarded write faults this guard absorbed.
func (g *WriteGuard) Scribbles() uint64 {
	g.k.mu.Lock()
	defer g.k.mu.Unlock()
	return g.scribbles
}

// RevokeWrite removes write permission from the npages pages at addr for
// the transfer's duration.  Only present, writable PTEs are modified;
// non-present pages are kept read-only by the guard-aware fault paths
// until the guard is released.  The returned guard must be released with
// RestoreWrite.
func (k *Kernel) RevokeWrite(as *AddressSpace, addr pgtable.VAddr, npages int, policy GuardPolicy, onScribble func(page int)) (*WriteGuard, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if as.dead {
		return nil, ErrNoProcess
	}
	if npages <= 0 {
		return nil, fmt.Errorf("mm: revoke of %d pages", npages)
	}
	start := pgtable.PageOf(addr)
	g := &WriteGuard{
		id:         k.nextGuard,
		k:          k,
		as:         as,
		start:      start,
		npages:     npages,
		policy:     policy,
		onScribble: onScribble,
		hadWrite:   make([]bool, npages),
	}
	k.charge(k.costs().KernelCall)
	undo := func(n int) {
		for i := 0; i < n; i++ {
			if g.hadWrite[i] {
				_ = as.pt.SetFlags(start+pgtable.VPN(i), pgtable.FlagWrite)
			}
		}
	}
	for i := 0; i < npages; i++ {
		v := start + pgtable.VPN(i)
		k.charge(k.costs().PTEWalk)
		e, err := as.pt.Lookup(v)
		if err != nil {
			undo(i)
			return nil, err
		}
		if e.Present() && e.Writable() {
			g.hadWrite[i] = true
			if err := as.pt.Set(v, e&^pgtable.FlagWrite); err != nil {
				undo(i)
				return nil, err
			}
		}
	}
	k.nextGuard++
	k.guards[g.id] = g
	return g, nil
}

// RestoreWrite releases the guard and re-enables write permission on the
// pages that had it when the guard was installed, except where
//
//   - another active guard still covers the page,
//   - the VMA no longer grants write (mprotect during the window),
//   - the page is no longer present (restored lazily on the next fault),
//   - the frame became genuinely COW-shared during the window (a fork):
//     the write bit then stays clear so the next store copies.
//
// The re-grant is eager rather than left to a COW fault on purpose: a
// registration pin elevates the frame's refcount, so a lazy COW fault
// would copy the frame and silently strand any cached NIC translation of
// it.  RestoreWrite is idempotent and nil-safe.
func (k *Kernel) RestoreWrite(g *WriteGuard) error {
	if g == nil {
		return nil
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if g.released {
		return nil
	}
	g.released = true
	delete(k.guards, g.id)
	if g.as.dead {
		return nil
	}
	k.charge(k.costs().KernelCall)
	var firstErr error
	for i := 0; i < g.npages; i++ {
		if !g.hadWrite[i] {
			continue
		}
		v := g.start + pgtable.VPN(i)
		if k.pageGuardedLocked(g.as, v) {
			continue
		}
		area, ok := g.as.vmas.Find(v)
		if !ok || area.Flags&vma.Write == 0 {
			continue
		}
		k.charge(k.costs().PTEWalk)
		e, err := g.as.pt.Lookup(v)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if !e.Present() || e.Writable() {
			continue
		}
		pfn := e.PFN()
		if k.mappingRefsLocked(pfn) > 1 {
			// COW-shared since the revoke (fork during flight): the
			// sibling still depends on the read-only mapping.
			continue
		}
		if err := g.as.pt.SetFlags(v, pgtable.FlagWrite); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ActiveGuards reports how many write guards are currently installed.
// Test and chaos harnesses use it to aim a racing writer at a
// revocation window instead of hammering blind — without it, a fast
// (non-race) build can complete every guarded send before the writer
// goroutine is ever scheduled inside the window.
func (k *Kernel) ActiveGuards() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.guards)
}

// mappingRefsLocked estimates how many PTE mappings reference the frame:
// total refcount minus kernel pins (each pin holds exactly one
// reference).  A result > 1 means the frame is genuinely shared between
// address spaces, not merely pinned.
func (k *Kernel) mappingRefsLocked(pfn phys.PFN) int {
	return int(k.phys.RefCount(pfn)) - int(k.phys.Pins(pfn))
}

// pageGuardedLocked reports whether any active guard covers the page.
func (k *Kernel) pageGuardedLocked(as *AddressSpace, v pgtable.VPN) bool {
	if len(k.guards) == 0 {
		return false
	}
	for _, g := range k.guards {
		if g.as == as && v >= g.start && v < g.start+pgtable.VPN(g.npages) {
			return true
		}
	}
	return false
}

// guardsCoveringLocked collects the active guards covering the page.
func (k *Kernel) guardsCoveringLocked(as *AddressSpace, v pgtable.VPN) []*WriteGuard {
	if len(k.guards) == 0 {
		return nil
	}
	var gs []*WriteGuard
	for _, g := range k.guards {
		if g.as == as && v >= g.start && v < g.start+pgtable.VPN(g.npages) {
			gs = append(gs, g)
		}
	}
	return gs
}

// guardScribbleLocked records a guarded write fault on every covering
// guard and resolves the combined policy: any fail-fast guard wins and
// the store fails typed; otherwise all guards are copy-on-touch and the
// caller proceeds with the copy.
func (k *Kernel) guardScribbleLocked(as *AddressSpace, v pgtable.VPN, gs []*WriteGuard) error {
	k.stats.ScribbleFaults++
	failFast := false
	for _, g := range gs {
		g.scribbles++
		if g.policy == GuardFailFast {
			failFast = true
		}
		if g.onScribble != nil {
			g.onScribble(int(v - g.start))
		}
	}
	if failFast {
		return fmt.Errorf("%w: %v vpn %#x", ErrWriteDuringFlight, as, uint64(v))
	}
	return nil
}

// guardWriteFaultLocked resolves a write fault on a present page covered
// by one or more guards.  Fail-fast guards reject the store; otherwise
// the store proceeds copy-on-touch: always a copy, never the sole-owner
// re-enable of the plain COW path, because the old frame is the
// in-flight snapshot and must stay stable under the transfer's pin.
func (k *Kernel) guardWriteFaultLocked(as *AddressSpace, v pgtable.VPN, e pgtable.PTE, gs []*WriteGuard) error {
	// Kernel-pin transparency: a registration pin reaching here means the
	// frame is genuinely COW-shared (translateLocked's guarded-pin branch
	// handles the exclusive case), so the copy must happen — but it is
	// not a user store: no scribble policy, and the new frame stays
	// write-revoked under the guard.
	if !k.kernelPin {
		if err := k.guardScribbleLocked(as, v, gs); err != nil {
			return err
		}
	}
	old := e.PFN()
	pfn, err := k.getFreePageLocked()
	if err != nil {
		return err
	}
	// Same stale-PTE hazard as cowLocked: the allocation may have run
	// reclaim and evicted the faulting page.  Re-validate and re-fault.
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
	// The mapping moves to the writer's private copy; any NIC translation
	// of the old frame goes stale for this process — told before the
	// copy is taken, as in cowLocked.
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
	flags := e&(pgtable.FlagUser) | pgtable.FlagDirty | pgtable.FlagAccessed
	if k.kernelPin {
		k.stats.COWCopies++
	} else {
		k.stats.GuardCopies++
		flags |= pgtable.FlagWrite
	}
	return as.pt.Set(v, pgtable.MakePresent(pfn, flags))
}
