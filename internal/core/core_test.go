package core

import (
	"testing"

	"repro/internal/mm"
	"repro/internal/pgtable"
	"repro/internal/phys"
	"repro/internal/simtime"
	"repro/internal/vma"
)

func newNode() *mm.Kernel {
	return mm.NewKernel(mm.Config{
		RAMPages: 128, SwapPages: 1024, ClockBatch: 64, SwapBatch: 16,
	}, simtime.NewMeter())
}

func mmapBuf(t *testing.T, k *mm.Kernel, as *mm.AddressSpace, npages int) pgtable.VAddr {
	t.Helper()
	addr, err := k.MMap(as, npages, vma.Read|vma.Write)
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

// pressure makes a hog process touch enough pages to force eviction of
// everything evictable.
func pressure(t *testing.T, k *mm.Kernel, pages int) {
	t.Helper()
	hog := k.CreateProcess("hog", false)
	addr, err := k.MMap(hog, pages, vma.Read|vma.Write)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Touch(hog, addr, pages); err != nil {
		t.Fatal(err)
	}
	if err := k.DestroyProcess(hog); err != nil {
		t.Fatal(err)
	}
}

// residentMatches counts pages of [addr, npages) still backed by the
// frames recorded in lockPages.
func residentMatches(t *testing.T, k *mm.Kernel, as *mm.AddressSpace, addr pgtable.VAddr, lockPages []phys.PFN) int {
	t.Helper()
	n := 0
	for i, want := range lockPages {
		pfn, err := k.ResidentPFN(as, addr+pgtable.VAddr(i*phys.PageSize))
		if err != nil {
			t.Fatal(err)
		}
		if pfn != phys.NoPFN && pfn == want {
			n++
		}
	}
	return n
}

func TestNewAllStrategies(t *testing.T) {
	for _, s := range Strategies() {
		l, err := New(s)
		if err != nil {
			t.Fatalf("New(%s): %v", s, err)
		}
		if l.Name() != s {
			t.Fatalf("Name() = %s, want %s", l.Name(), s)
		}
	}
	if _, err := New("bogus"); err == nil {
		t.Fatal("bogus strategy accepted")
	}
}

func TestLockRecordsLayout(t *testing.T) {
	for _, s := range Strategies() {
		t.Run(string(s), func(t *testing.T) {
			k := newNode()
			as := k.CreateProcess("p", false)
			addr := mmapBuf(t, k, as, 4)
			l, err := MustNew(s).Lock(k, as, addr+100, 2*phys.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = l.Unlock() }()
			if l.Offset != 100 {
				t.Fatalf("offset = %d", l.Offset)
			}
			if len(l.Frames) != 3 {
				t.Fatalf("pages = %d, want 3", len(l.Frames))
			}
			for i, pfn := range l.Frames {
				if k.Phys().RefCount(pfn) == 0 {
					t.Fatalf("page %d frame %d is free", i, pfn)
				}
			}
			// The recorded layout must match current page tables.
			if got := residentMatches(t, k, as, addr, l.Frames); got != 3 {
				t.Fatalf("only %d/3 pages match at lock time", got)
			}
		})
	}
}

func TestEmptyRangeRejected(t *testing.T) {
	for _, s := range Strategies() {
		k := newNode()
		as := k.CreateProcess("p", false)
		addr := mmapBuf(t, k, as, 1)
		if _, err := MustNew(s).Lock(k, as, addr, 0); err == nil {
			t.Fatalf("%s: empty lock accepted", s)
		}
	}
}

func TestDoubleUnlock(t *testing.T) {
	k := newNode()
	as := k.CreateProcess("p", false)
	addr := mmapBuf(t, k, as, 1)
	l, err := MustNew(StrategyKiobuf).Lock(k, as, addr, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Unlock(); err != nil {
		t.Fatal(err)
	}
	if err := l.Unlock(); err != ErrAlreadyUnlocked {
		t.Fatalf("second unlock err = %v", err)
	}
	if !l.Released() {
		t.Fatal("not marked released")
	}
}

// TestReliabilityUnderPressure is the heart of the reproduction: which
// strategies actually keep the registered pages in place.
func TestReliabilityUnderPressure(t *testing.T) {
	const regPages = 8
	for _, s := range Strategies() {
		t.Run(string(s), func(t *testing.T) {
			k := newNode()
			as := k.CreateProcess("app", false)
			addr := mmapBuf(t, k, as, regPages)
			l, err := MustNew(s).Lock(k, as, addr, regPages*phys.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = l.Unlock() }()
			pressure(t, k, 512) // 4x RAM

			match := residentMatches(t, k, as, addr, l.Frames)
			reliable := s.Properties().Reliable
			switch {
			case reliable && match != regPages:
				t.Fatalf("%s claims reliable but only %d/%d pages survived", s, match, regPages)
			case !reliable && match == regPages:
				t.Fatalf("%s claims unreliable but all pages survived — pressure too weak?", s)
			}
		})
	}
}

// TestNestingSemantics verifies the multiple-registration behaviour of
// each strategy: lock twice, unlock once, apply pressure, observe.
func TestNestingSemantics(t *testing.T) {
	for _, s := range []Strategy{StrategyRefcount, StrategyPageFlag, StrategyMlock, StrategyKiobuf} {
		t.Run(string(s), func(t *testing.T) {
			k := newNode()
			as := k.CreateProcess("app", false)
			addr := mmapBuf(t, k, as, 2)
			locker := MustNew(s)
			l1, err := locker.Lock(k, as, addr, 2*phys.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			l2, err := locker.Lock(k, as, addr, 2*phys.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			if err := l1.Unlock(); err != nil {
				t.Fatal(err)
			}
			pressure(t, k, 512)
			match := residentMatches(t, k, as, addr, l2.Frames)
			nests := s.Properties().Nests && s.Properties().Reliable
			switch {
			case nests && match != 2:
				t.Fatalf("%s should nest: %d/2 pages survived after 2 locks, 1 unlock", s, match)
			case s == StrategyPageFlag && match == 2:
				t.Fatalf("pageflag kept pages locked after one unlock — nesting bug not reproduced")
			}
			_ = l2.Unlock()
		})
	}
}

func TestMlockBookkeepingCounts(t *testing.T) {
	k := newNode()
	as := k.CreateProcess("app", false)
	addr := mmapBuf(t, k, as, 2)
	locker := newMlockLocker()
	l1, err := locker.Lock(k, as, addr, 2*phys.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := locker.Lock(k, as, addr, 2*phys.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	start := pgtable.PageOf(addr)
	if got := locker.RangeCount(as.ID(), start, 2); got != 2 {
		t.Fatalf("range count = %d", got)
	}
	if err := l1.Unlock(); err != nil {
		t.Fatal(err)
	}
	if !k.RangeLocked(as, addr, 2) {
		t.Fatal("VM_LOCKED dropped before last unlock")
	}
	if err := l2.Unlock(); err != nil {
		t.Fatal(err)
	}
	if k.RangeLocked(as, addr, 2) {
		t.Fatal("VM_LOCKED still set after last unlock")
	}
	if got := locker.RangeCount(as.ID(), start, 2); got != 0 {
		t.Fatalf("range count = %d after full unlock", got)
	}
}

// TestMlockOverlappingRangesHazard documents the limitation of per-range
// bookkeeping: overlapping (non-identical) registrations confuse it —
// unlocking one range drops VM_LOCKED from the shared pages even though
// another registration still covers them.
func TestMlockOverlappingRangesHazard(t *testing.T) {
	k := newNode()
	as := k.CreateProcess("app", false)
	addr := mmapBuf(t, k, as, 6)
	locker := newMlockLocker()
	lA, err := locker.Lock(k, as, addr, 4*phys.PageSize) // pages 0-3
	if err != nil {
		t.Fatal(err)
	}
	lB, err := locker.Lock(k, as, addr+2*phys.PageSize, 4*phys.PageSize) // pages 2-5
	if err != nil {
		t.Fatal(err)
	}
	if err := lB.Unlock(); err != nil {
		t.Fatal(err)
	}
	// Pages 2,3 are still covered by registration A, but the munlock of
	// range B cleared their VM_LOCKED bit.
	if k.RangeLocked(as, addr+2*phys.PageSize, 2) {
		t.Fatal("expected the overlap hazard: pages 2-3 should have lost VM_LOCKED")
	}
	_ = lA.Unlock()
}

// TestPageFlagClobbersKernelIO reproduces the flag-ownership race: a
// kernel I/O holds PG_locked on a page; the Giganet-style deregistration
// clears it out from under the I/O.
func TestPageFlagClobbersKernelIO(t *testing.T) {
	k := newNode()
	as := k.CreateProcess("app", false)
	addr := mmapBuf(t, k, as, 1)
	locker := MustNew(StrategyPageFlag)
	l, err := locker.Lock(k, as, addr, phys.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	pfn := l.Frames[0]
	// Kernel starts I/O on the same page (e.g. swap-cache writeback).
	if err := k.LockPageIO(pfn); err != nil {
		t.Fatal(err)
	}
	if err := l.Unlock(); err != nil {
		t.Fatal(err)
	}
	if err := k.UnlockPageIO(pfn); err != nil {
		t.Fatal(err)
	}
	if got := k.IOClobberCount(); got != 1 {
		t.Fatalf("clobbers = %d, want 1", got)
	}
}

// TestKiobufDoesNotClobberKernelIO: the proposed mechanism never touches
// PG_locked, so the same interleaving is harmless.
func TestKiobufDoesNotClobberKernelIO(t *testing.T) {
	k := newNode()
	as := k.CreateProcess("app", false)
	addr := mmapBuf(t, k, as, 1)
	locker := MustNew(StrategyKiobuf)
	l, err := locker.Lock(k, as, addr, phys.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	pfn := l.Frames[0]
	if err := k.LockPageIO(pfn); err != nil {
		t.Fatal(err)
	}
	if err := l.Unlock(); err != nil {
		t.Fatal(err)
	}
	if err := k.UnlockPageIO(pfn); err != nil {
		t.Fatal(err)
	}
	if got := k.IOClobberCount(); got != 0 {
		t.Fatalf("clobbers = %d, want 0", got)
	}
}

// TestRefcountOrphansFrames quantifies the memory the refcount strategy
// leaks while registered: frames orphaned by swap-out.
func TestRefcountOrphansFrames(t *testing.T) {
	const regPages = 8
	k := newNode()
	as := k.CreateProcess("app", false)
	addr := mmapBuf(t, k, as, regPages)
	l, err := MustNew(StrategyRefcount).Lock(k, as, addr, regPages*phys.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	pressure(t, k, 512)
	// Touch the buffer back in so the PTEs point at fresh frames.
	if err := k.Touch(as, addr, regPages); err != nil {
		t.Fatal(err)
	}
	orphans := k.OrphanFrames()
	if orphans == 0 {
		t.Fatal("no orphaned frames — the leak did not reproduce")
	}
	// Deregistration returns the orphans to the allocator.
	if err := l.Unlock(); err != nil {
		t.Fatal(err)
	}
	if got := k.OrphanFrames(); got != 0 {
		t.Fatalf("%d orphans remain after unlock", got)
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestKiobufUnlockReleasesForSwap: after the last unlock the pages are
// ordinary process memory again and pressure can take them.
func TestKiobufUnlockReleasesForSwap(t *testing.T) {
	k := newNode()
	as := k.CreateProcess("app", false)
	addr := mmapBuf(t, k, as, 4)
	l, err := MustNew(StrategyKiobuf).Lock(k, as, addr, 4*phys.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Unlock(); err != nil {
		t.Fatal(err)
	}
	pressure(t, k, 512)
	resident := 0
	for i := 0; i < 4; i++ {
		pfn, _ := k.ResidentPFN(as, addr+pgtable.VAddr(i*phys.PageSize))
		if pfn != phys.NoPFN {
			resident++
		}
	}
	if resident == 4 {
		t.Fatal("pages still resident after unlock + heavy pressure")
	}
}

// TestDataIntegrityAcrossLockAndPressure: the user's data must read back
// intact through the CPU path for every strategy (even the broken ones —
// their failure is TPT staleness, not CPU-visible corruption).
func TestDataIntegrityAcrossLockAndPressure(t *testing.T) {
	for _, s := range Strategies() {
		t.Run(string(s), func(t *testing.T) {
			k := newNode()
			as := k.CreateProcess("app", false)
			addr := mmapBuf(t, k, as, 4)
			data := make([]byte, 4*phys.PageSize)
			for i := range data {
				data[i] = byte(i * 13)
			}
			if err := k.CopyToUser(as, addr, data); err != nil {
				t.Fatal(err)
			}
			l, err := MustNew(s).Lock(k, as, addr, len(data))
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = l.Unlock() }()
			pressure(t, k, 512)
			got := make([]byte, len(data))
			if err := k.CopyFromUser(as, addr, got); err != nil {
				t.Fatal(err)
			}
			for i := range data {
				if got[i] != data[i] {
					t.Fatalf("CPU-visible corruption at byte %d under %s", i, s)
				}
			}
		})
	}
}

func TestPropertiesTable(t *testing.T) {
	// The conformance matrix must single out kiobuf as the only strategy
	// that is reliable, nests, and needs neither page-table walks, nor
	// privilege, nor page-flag abuse.
	for _, s := range Strategies() {
		p := s.Properties()
		clean := p.Reliable && p.Nests && !p.WalksPageTables && !p.NeedsPrivilege && !p.TouchesPageFlags
		if (s == StrategyKiobuf) != clean {
			t.Fatalf("%s: properties %+v break the paper's conclusion", s, p)
		}
	}
}
