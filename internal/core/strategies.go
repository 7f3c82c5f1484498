package core

import (
	"fmt"
	"sync"

	"repro/internal/caps"
	"repro/internal/mm"
	"repro/internal/pgtable"
	"repro/internal/phys"
)

// ---------------------------------------------------------------------------
// none: fault the pages in, record addresses, lock nothing.

type noneLocker struct{}

func (noneLocker) Name() Strategy { return StrategyNone }

func (noneLocker) Lock(k *mm.Kernel, as *mm.AddressSpace, addr pgtable.VAddr, length int) (*Lock, error) {
	frames, err := walkPages(k, as, addr, length)
	if err != nil {
		return nil, err
	}
	return &Lock{
		Strategy: StrategyNone,
		Frames:   frames,
		Offset:   pgtable.Offset(addr),
		Length:   length,
	}, nil
}

// ---------------------------------------------------------------------------
// refcount: the Berkeley-VIA / M-VIA approach — "simply increment the
// reference counter of the pages" (§3.1).  The experiment shows this is
// no lock at all: swap_out moves the pages anyway.

type refcountLocker struct{}

func (refcountLocker) Name() Strategy { return StrategyRefcount }

func (refcountLocker) Lock(k *mm.Kernel, as *mm.AddressSpace, addr pgtable.VAddr, length int) (*Lock, error) {
	frames, err := walkPages(k, as, addr, length)
	if err != nil {
		return nil, err
	}
	ph := k.Phys()
	for i, pfn := range frames {
		if err := ph.Get(pfn); err != nil {
			for _, done := range frames[:i] {
				_ = k.PutFrame(done)
			}
			return nil, err
		}
	}
	return &Lock{
		Strategy: StrategyRefcount,
		Frames:   frames,
		Offset:   pgtable.Offset(addr),
		Length:   length,
		hold:     holdRefs,
		k:        k,
	}, nil
}

// ---------------------------------------------------------------------------
// pageflag: the Giganet cLAN approach — refcount plus PG_locked and
// PG_reserved set directly by the driver.  The pages do stay put, but:
// the driver cannot tell whether PG_locked was already set by in-flight
// kernel I/O, and on deregistration it clears the flags "regardless of
// the counter state" (§3.1) — so the second of two registrations is
// silently unlocked, and a kernel I/O's lock bit can be clobbered.

type pageflagLocker struct{}

func (pageflagLocker) Name() Strategy { return StrategyPageFlag }

func (pageflagLocker) Lock(k *mm.Kernel, as *mm.AddressSpace, addr pgtable.VAddr, length int) (*Lock, error) {
	frames, err := walkPages(k, as, addr, length)
	if err != nil {
		return nil, err
	}
	ph := k.Phys()
	for i, pfn := range frames {
		if err := ph.Get(pfn); err != nil {
			for _, done := range frames[:i] {
				_ = ph.ClearFlags(done, phys.PGLocked|phys.PGReserved)
				_ = k.PutFrame(done)
			}
			return nil, err
		}
		// No check whether the flags are already owned by someone else —
		// exactly the unclean part.
		_ = ph.SetFlags(pfn, phys.PGLocked|phys.PGReserved)
	}
	// Unlock clears the flags "regardless of the counter state" (§3.1).
	return &Lock{
		Strategy: StrategyPageFlag,
		Frames:   frames,
		Offset:   pgtable.Offset(addr),
		Length:   length,
		hold:     holdFlags,
		k:        k,
	}, nil
}

// ---------------------------------------------------------------------------
// mlock: the authors' first implementation (§3.2) — VM_LOCKED through
// do_mlock, with two workarounds baked in: the kernel agent temporarily
// raises CAP_IPC_LOCK for unprivileged callers, and because mlock calls
// do not nest it keeps its own per-range registration counts and only
// munlocks on the last deregistration.

type mlockLocker struct {
	mu     sync.Mutex
	counts map[mlockRange]int
}

type mlockRange struct {
	asID   int
	start  pgtable.VPN
	npages int
}

func newMlockLocker() *mlockLocker {
	return &mlockLocker{counts: make(map[mlockRange]int)}
}

func (m *mlockLocker) Name() Strategy { return StrategyMlock }

func (m *mlockLocker) Lock(k *mm.Kernel, as *mm.AddressSpace, addr pgtable.VAddr, length int) (*Lock, error) {
	start, npages, offset, err := pageSpan(addr, length)
	if err != nil {
		return nil, err
	}
	key := mlockRange{asID: as.ID(), start: start, npages: npages}

	// Capability workaround: grant CAP_IPC_LOCK just around the call.
	raised := false
	if !k.HasCapability(as, caps.IPCLock) {
		k.RaiseCapability(as, caps.IPCLock)
		raised = true
	}
	err = k.DoMlock(as, start.Addr(), npages)
	if raised {
		k.LowerCapability(as, caps.IPCLock)
	}
	if err != nil {
		return nil, err
	}

	// The driver must still walk the page tables itself for addresses.
	frames, err := walkPages(k, as, addr, length)
	if err != nil {
		_ = k.DoMunlock(as, start.Addr(), npages)
		return nil, err
	}

	m.mu.Lock()
	m.counts[key]++
	m.mu.Unlock()

	return &Lock{
		Strategy: StrategyMlock,
		Frames:   frames,
		Offset:   offset,
		Length:   length,
		hold:     holdMlock,
		k:        k,
		mlock:    &mlockHold{m: m, as: as, key: key},
	}, nil
}

// mlockHold is what an mlock Lock releases: one count of its range.
type mlockHold struct {
	m   *mlockLocker
	as  *mm.AddressSpace
	key mlockRange
}

// release drops one registration of the range, munlocking it on the
// last one.
func (h *mlockHold) release(k *mm.Kernel) error {
	m := h.m
	m.mu.Lock()
	m.counts[h.key]--
	last := m.counts[h.key] == 0
	if last {
		delete(m.counts, h.key)
	}
	m.mu.Unlock()
	if last {
		return k.DoMunlock(h.as, h.key.start.Addr(), h.key.npages)
	}
	return nil
}

// RangeCount reports the bookkeeping count for a range (tests only).
func (m *mlockLocker) RangeCount(asID int, start pgtable.VPN, npages int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counts[mlockRange{asID: asID, start: start, npages: npages}]
}

// ---------------------------------------------------------------------------
// kiobuf: the paper's proposal (§4) — map_user_kiobuf does the paging-in
// and pinning through kernel-maintained accounting and returns the page
// list, so the driver neither walks page tables nor touches page flags,
// and registrations nest by construction.

type kiobufLocker struct{}

func (kiobufLocker) Name() Strategy { return StrategyKiobuf }

func (kiobufLocker) Lock(k *mm.Kernel, as *mm.AddressSpace, addr pgtable.VAddr, length int) (*Lock, error) {
	l := new(Lock)
	if err := l.mapKiobuf(k, as, addr, length, false); err != nil {
		return nil, err
	}
	return l, nil
}

// LockNested implements BatchLocker: the caller is already inside the
// kernel, so the whole pin batch rides on that one crossing.
func (kiobufLocker) LockNested(l *Lock, k *mm.Kernel, as *mm.AddressSpace, addr pgtable.VAddr, length int) error {
	return l.mapKiobuf(k, as, addr, length, true)
}

// mapKiobuf maps the range into the lock's own kiobuf; the lock's frame
// list is the kiobuf's page list, not a copy of it.
func (l *Lock) mapKiobuf(k *mm.Kernel, as *mm.AddressSpace, addr pgtable.VAddr, length int, nested bool) error {
	var err error
	if nested {
		err = l.kb.MapNested(k, as, addr, length)
	} else {
		err = l.kb.Map(k, as, addr, length)
	}
	if err != nil {
		return fmt.Errorf("core: kiobuf lock: %w", err)
	}
	l.Strategy, l.Frames, l.Offset, l.Length, l.hold = StrategyKiobuf, l.kb.Pages, l.kb.Offset, length, holdKiobuf
	return nil
}
