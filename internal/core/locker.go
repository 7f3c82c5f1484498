// Package core implements the paper's subject matter: the competing
// mechanisms for locking VIA communication memory, behind one Locker
// interface.
//
// Five strategies are provided, each modelled on a real implementation
// the paper examines:
//
//   - StrategyNone      — no locking at all (baseline).
//   - StrategyRefcount  — Berkeley-VIA / M-VIA: increment page->count.
//     Unreliable: the swap path ignores the count (§3.1).
//   - StrategyPageFlag  — Giganet cLAN: refcount + PG_locked/PG_reserved.
//     Pins pages but is "risky and unclean": it races with kernel I/O
//     that owns PG_locked and it unconditionally clears the flags on
//     deregistration, breaking multiple registrations (§3.1).
//   - StrategyMlock     — the authors' first approach: VM_LOCKED via
//     do_mlock with a capability-raising workaround; mlock does not
//     nest, so the driver keeps its own per-range counts (§3.2).
//   - StrategyKiobuf    — the paper's proposal: map_user_kiobuf pins
//     pages through kernel-maintained accounting and returns the page
//     list; nests naturally and never touches page tables or flags (§4).
package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/kiobuf"
	"repro/internal/mm"
	"repro/internal/pgtable"
	"repro/internal/phys"
)

// Strategy names a locking mechanism.
type Strategy string

// The five strategies the experiments compare.
const (
	StrategyNone     Strategy = "none"
	StrategyRefcount Strategy = "refcount"
	StrategyPageFlag Strategy = "pageflag"
	StrategyMlock    Strategy = "mlock"
	StrategyKiobuf   Strategy = "kiobuf"
)

// Strategies lists all strategies in presentation order.
func Strategies() []Strategy {
	return []Strategy{StrategyNone, StrategyRefcount, StrategyPageFlag, StrategyMlock, StrategyKiobuf}
}

// Properties is the static conformance profile of a strategy — the rows
// of the paper's implicit comparison (experiment E8).  The claims here
// are verified empirically by the test suite and the locktest harness.
type Properties struct {
	// Reliable: registered pages survive arbitrary memory pressure and
	// the TPT stays consistent with the page tables.
	Reliable bool
	// Nests: N registrations of a range require N deregistrations before
	// the pages become evictable (the VIA multiple-registration rule).
	Nests bool
	// WalksPageTables: the driver must read page tables itself to learn
	// physical addresses — the practice barred from mainline (§4.1).
	WalksPageTables bool
	// NeedsPrivilege: requires CAP_IPC_LOCK or a capability workaround.
	NeedsPrivilege bool
	// TouchesPageFlags: manipulates PG_* bits it does not own, risking
	// collisions with kernel I/O.
	TouchesPageFlags bool
}

// Properties returns the strategy's conformance profile.
func (s Strategy) Properties() Properties {
	switch s {
	case StrategyRefcount:
		return Properties{Reliable: false, Nests: true, WalksPageTables: true}
	case StrategyPageFlag:
		return Properties{Reliable: true, Nests: false, WalksPageTables: true, TouchesPageFlags: true}
	case StrategyMlock:
		return Properties{Reliable: true, Nests: true, WalksPageTables: true, NeedsPrivilege: true}
	case StrategyKiobuf:
		return Properties{Reliable: true, Nests: true}
	default: // StrategyNone
		return Properties{}
	}
}

// Lock is one held lock on a user buffer: the physical page layout
// recorded at lock time plus what the strategy holds to release it.
type Lock struct {
	// Strategy that produced the lock.
	Strategy Strategy
	// Frames are the physical frames backing the buffer at lock time, in
	// order.  This is what goes into the TPT.  Under the kiobuf strategy
	// it is the kiobuf's own page list, which Unlock hands back to the
	// kernel and sets to nil.
	Frames []phys.PFN
	// Offset is the buffer start offset within Frames[0].
	Offset int
	// Length is the locked byte length.
	Length int

	// hold names what Unlock must release; k, kb and mlock are what the
	// strategy recorded for that.
	hold     hold
	released bool
	mu       sync.Mutex
	k        *mm.Kernel
	kb       kiobuf.Kiobuf
	mlock    *mlockHold
}

// hold is what a Lock keeps until Unlock.
type hold uint8

const (
	holdNothing hold = iota // none strategy, or frames owned elsewhere
	holdRefs                // one page reference per frame
	holdFlags               // a reference plus PG_locked|PG_reserved
	holdMlock               // one count of the mlock range
	holdKiobuf              // a mapped kiobuf
)

// Errors returned by the lockers.
var (
	// ErrAlreadyUnlocked reports a double unlock.
	ErrAlreadyUnlocked = errors.New("core: lock already released")
	// ErrEmptyRange reports a lock of zero or negative length.
	ErrEmptyRange = errors.New("core: empty range")
)

// Unlock releases the lock exactly once.
func (l *Lock) Unlock() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.released {
		return ErrAlreadyUnlocked
	}
	l.released = true
	switch l.hold {
	case holdRefs, holdFlags:
		var firstErr error
		for _, pfn := range l.Frames {
			if l.hold == holdFlags {
				// "the PG_locked flag is reset regardless of the counter
				// state" — this is what breaks nesting.
				_ = l.k.Phys().ClearFlags(pfn, phys.PGLocked|phys.PGReserved)
			}
			if err := l.k.PutFrame(pfn); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	case holdMlock:
		return l.mlock.release(l.k)
	case holdKiobuf:
		l.Frames = nil
		return l.kb.Unmap()
	}
	return nil
}

// Released reports whether the lock has been released.
func (l *Lock) Released() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.released
}

// Locker is one locking mechanism.
type Locker interface {
	// Name identifies the strategy.
	Name() Strategy
	// Lock pages [addr, addr+length) of the process into memory (to the
	// extent the strategy actually achieves that) and reports the
	// physical page layout for TPT registration.
	Lock(k *mm.Kernel, as *mm.AddressSpace, addr pgtable.VAddr, length int) (*Lock, error)
}

// BatchLocker is implemented by strategies that can lock a whole range
// in one kernel-internal batch: the caller has already entered the
// kernel (and paid that crossing), so LockNested pins every page of the
// range without charging further crossings — one ioctl covers the whole
// batch.  Strategies that juggle per-page state from user context can't
// offer this; the kiobuf strategy can, which is the paper's argument
// for it.
type BatchLocker interface {
	Locker
	// LockNested is Lock for a caller already inside the kernel, into a
	// Lock the caller owns (a driver keeps it in its registration
	// record).  l must be zero.
	LockNested(l *Lock, k *mm.Kernel, as *mm.AddressSpace, addr pgtable.VAddr, length int) error
}

// New returns the Locker implementing the strategy.
func New(s Strategy) (Locker, error) {
	switch s {
	case StrategyNone:
		return noneLocker{}, nil
	case StrategyRefcount:
		return refcountLocker{}, nil
	case StrategyPageFlag:
		return pageflagLocker{}, nil
	case StrategyMlock:
		return newMlockLocker(), nil
	case StrategyKiobuf:
		return kiobufLocker{}, nil
	default:
		return nil, fmt.Errorf("core: unknown strategy %q", s)
	}
}

// MustNew is New for static strategy constants; it panics on error.
func MustNew(s Strategy) Locker {
	l, err := New(s)
	if err != nil {
		panic(err)
	}
	return l
}

// pageSpan computes the page range covering [addr, addr+length).
func pageSpan(addr pgtable.VAddr, length int) (start pgtable.VPN, npages, offset int, err error) {
	if length <= 0 {
		return 0, 0, 0, fmt.Errorf("%w: %d bytes", ErrEmptyRange, length)
	}
	start = pgtable.PageOf(addr)
	last := pgtable.PageOf(addr + pgtable.VAddr(length-1))
	return start, int(last-start) + 1, pgtable.Offset(addr), nil
}

// walkPages faults the range in and records the frame of each page by
// walking the page tables — the step every strategy except the kiobuf
// one needs.
func walkPages(k *mm.Kernel, as *mm.AddressSpace, addr pgtable.VAddr, length int) ([]phys.PFN, error) {
	start, npages, _, err := pageSpan(addr, length)
	if err != nil {
		return nil, err
	}
	if err := k.MakePagesPresent(as, addr, npages, true); err != nil {
		return nil, err
	}
	frames := make([]phys.PFN, npages)
	for i := 0; i < npages; i++ {
		pa, err := k.WalkPhys(as, (start + pgtable.VPN(i)).Addr())
		if err != nil {
			return nil, err
		}
		frames[i] = phys.FrameOf(pa)
	}
	return frames, nil
}
