package mm

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pgtable"
	"repro/internal/phys"
	"repro/internal/race"
	"repro/internal/swapdev"
	"repro/internal/vma"
)

// pageOf is the identity of the page a frame holds.
func pageOf(t *testing.T, k *Kernel, pfn phys.PFN) *byte {
	t.Helper()
	fb, err := k.Phys().FrameBytes(pfn)
	if err != nil {
		t.Fatal(err)
	}
	return &fb[0]
}

// slotPage is the identity of the page a swap slot holds.
func slotPage(k *Kernel, s swapdev.Slot) *byte { return &k.Swap().AppendPages(nil)[s].Held[0] }

// resident returns the frame backing addr, failing if there is none.
func resident(t *testing.T, k *Kernel, as *AddressSpace, addr pgtable.VAddr) phys.PFN {
	t.Helper()
	pfn, err := k.ResidentPFN(as, addr)
	if err != nil || pfn == phys.NoPFN {
		t.Fatalf("page %#x not resident: %v", uint64(addr), err)
	}
	return pfn
}

// swapped returns the slot holding addr, failing if the page is not out.
func swapped(t *testing.T, k *Kernel, as *AddressSpace, addr pgtable.VAddr) swapdev.Slot {
	t.Helper()
	e, err := k.LookupPTE(as, pgtable.PageOf(addr))
	if err != nil || !e.Swapped() {
		t.Fatalf("page %#x not swapped out: pte %v, err %v", uint64(addr), e, err)
	}
	return e.SwapSlot()
}

// checkPage reads the page at addr back and compares it with want.
func checkPage(t *testing.T, k *Kernel, as *AddressSpace, addr pgtable.VAddr, want []byte) {
	t.Helper()
	got := make([]byte, len(want))
	if err := k.CopyFromUser(as, addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("page %#x reads %q..., want %q...", uint64(addr), got[:16], want[:16])
	}
}

// filledPage maps one page and fills it with a recognisable image.
func filledPage(t *testing.T, k *Kernel, as *AddressSpace) (pgtable.VAddr, []byte) {
	t.Helper()
	addr := mmapRW(t, k, as, 1)
	img := bytes.Repeat([]byte("swap image "), phys.PageSize/11+1)[:phys.PageSize]
	if err := k.CopyToUser(as, addr, img); err != nil {
		t.Fatal(err)
	}
	return addr, img
}

// TestDirtySwapCycleMovesNoBytes: a dirty page evicted from a frame that
// frees, then write-faulted back, is the same page throughout — the image
// changed owner twice and was never copied — and the device counts one
// write and one read, as the copying device did.
func TestDirtySwapCycleMovesNoBytes(t *testing.T) {
	k := smallKernel()
	as := k.CreateProcess("p", false)
	addr, img := filledPage(t, k, as)
	page := pageOf(t, k, resident(t, k, as, addr))
	evictAll(k)
	if slotPage(k, swapped(t, k, as, addr)) != page {
		t.Fatal("swap-out copied the image instead of handing the page to the slot")
	}
	if err := k.Touch(as, addr, 1); err != nil { // write fault
		t.Fatal(err)
	}
	if pageOf(t, k, resident(t, k, as, addr)) != page {
		t.Fatal("swap-in copied the image instead of handing the page to the frame")
	}
	if st := k.Swap().Stats(); st.Writes != 1 || st.Reads != 1 {
		t.Fatalf("device stats %+v, want one write and one read", st)
	}
	checkPage(t, k, as, addr, img)
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSwapOutRaisedCountCopies is E1's refcount row at page level: the
// frame whose count a driver raised does not free, so it keeps its page
// and bytes (the orphan), the slot gets an equal copy, and a later
// bus-master write into the orphan does not reach the page that faults
// back.
func TestSwapOutRaisedCountCopies(t *testing.T) {
	k := smallKernel()
	as := k.CreateProcess("p", false)
	addr, img := filledPage(t, k, as)
	orphan := resident(t, k, as, addr)
	if err := k.Phys().Get(orphan); err != nil {
		t.Fatal(err)
	}
	page := pageOf(t, k, orphan)
	evictAll(k)
	if slotPage(k, swapped(t, k, as, addr)) == page || pageOf(t, k, orphan) != page {
		t.Fatal("a frame that did not free gave its page away")
	}
	if fb, _ := k.Phys().FrameBytes(orphan); k.Phys().RefCount(orphan) != 1 || !bytes.Equal(fb, img) {
		t.Fatalf("orphan lost its count (%d) or its bytes", k.Phys().RefCount(orphan))
	}
	if err := k.Phys().WritePhys(orphan.Addr(), []byte("late DMA into the orphan")); err != nil {
		t.Fatal(err)
	}
	checkPage(t, k, as, addr, img)
	if err := k.PutFrame(orphan); err != nil {
		t.Fatal(err)
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFreedFrameWriteMissesImage: after a swap-out that freed its frame,
// a bus-master write to the frame's old physical address does not alter
// the image that comes back, on a read fault or a write fault.
func TestFreedFrameWriteMissesImage(t *testing.T) {
	for _, write := range []bool{false, true} {
		k := smallKernel()
		as := k.CreateProcess("p", false)
		addr, img := filledPage(t, k, as)
		freed := resident(t, k, as, addr)
		evictAll(k)
		if k.Phys().RefCount(freed) != 0 {
			t.Fatal("evicted frame did not free")
		}
		if err := k.Phys().WritePhys(freed.Addr(), []byte("stale DMA after the eviction")); err != nil {
			t.Fatal(err)
		}
		if err := k.HandleFault(as, addr, write); err != nil {
			t.Fatal(err)
		}
		checkPage(t, k, as, addr, img)
	}
}

// TestForkSharedSlotCopiedOnFirstSwapIn: a slot fork shares (use count 2)
// is copied on the first swap-in and keeps its page; the second sharer
// then releases it, takes the page itself, and reads the same bytes.
func TestForkSharedSlotCopiedOnFirstSwapIn(t *testing.T) {
	k := smallKernel()
	parent := k.CreateProcess("parent", false)
	addr, img := filledPage(t, k, parent)
	evictAll(k)
	child, err := k.Fork(parent, "child")
	if err != nil {
		t.Fatal(err)
	}
	slot := swapped(t, k, parent, addr)
	if k.Swap().UseCount(slot) != 2 {
		t.Fatalf("slot use count %d, want 2", k.Swap().UseCount(slot))
	}
	page := slotPage(k, slot)
	if err := k.HandleFault(parent, addr, true); err != nil {
		t.Fatal(err)
	}
	if pageOf(t, k, resident(t, k, parent, addr)) == page || slotPage(k, slot) != page {
		t.Fatal("a shared slot gave its page away")
	}
	if err := k.HandleFault(child, addr, true); err != nil {
		t.Fatal(err)
	}
	if pageOf(t, k, resident(t, k, child, addr)) != page {
		t.Fatal("the last sharer's swap-in copied")
	}
	checkPage(t, k, parent, addr, img)
	checkPage(t, k, child, addr, img)
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSwapCycleZeroAllocs: evicting a range of dirty pages and
// write-faulting them back — reg_swapcold's path both ways — allocates
// nothing on the Go heap.
func TestSwapCycleZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race-detector instrumentation allocates")
	}
	const npages = 64
	k := NewKernel(Config{RAMPages: 256, SwapPages: 256, ClockBatch: 128, SwapBatch: 32}, nil)
	as := k.CreateProcess("p", false)
	addr := mmapRW(t, k, as, npages)
	// First touch: demand-zero faults and page-table allocation.
	if err := k.Touch(as, addr, npages); err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		k.SwapOut(npages) // clears the accessed bits
		if n := k.SwapOut(npages); n != npages {
			t.Fatalf("evicted %d of %d pages", n, npages)
		}
		if err := k.Touch(as, addr, npages); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Fatalf("swap cycle allocates %.1f times", avg)
	}
}

// TestSwapPageConservation drives random sequences of user writes and
// reads, swap-outs, forks, munmaps, COW writes, refcount-raised orphans,
// clean swap-cache re-evictions and swap-ins whose slot was freed behind
// the kernel's back, against a host-side shadow of every page's bytes:
// every page reads back as the shadow says, and CheckInvariants (page
// conservation included) holds after every step.
func TestSwapPageConservation(t *testing.T) {
	const npages = 12
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel(Config{RAMPages: 24, SwapPages: 96, ClockBatch: 16, SwapBatch: 8}, nil)
		type proc struct {
			as     *AddressSpace
			shadow [npages][]byte // nil: unmapped
		}
		first := &proc{as: k.CreateProcess("p", false)}
		base, err := k.MMap(first.as, npages, vma.Read|vma.Write)
		if err != nil {
			t.Log(err)
			return false
		}
		for i := range first.shadow {
			first.shadow[i] = make([]byte, phys.PageSize)
		}
		procs := []*proc{first}
		var orphans []phys.PFN
		// pick returns a random mapped page of a random process.
		pick := func() (*proc, int, pgtable.VAddr, bool) {
			p := procs[rng.Intn(len(procs))]
			i := rng.Intn(npages)
			return p, i, base + pgtable.VAddr(i*phys.PageSize), p.shadow[i] != nil
		}
		write := func(p *proc, i int, addr pgtable.VAddr) error {
			off, n := rng.Intn(phys.PageSize-64), 1+rng.Intn(64)
			buf := make([]byte, n)
			rng.Read(buf)
			copy(p.shadow[i][off:], buf)
			return k.CopyToUser(p.as, addr+pgtable.VAddr(off), buf)
		}
		read := func(p *proc, i int, addr pgtable.VAddr) error {
			got := make([]byte, phys.PageSize)
			if err := k.CopyFromUser(p.as, addr, got); err != nil {
				return err
			}
			if !bytes.Equal(got, p.shadow[i]) {
				return errors.New("page does not match its shadow")
			}
			return nil
		}
		for step := 0; step < 300; step++ {
			var err error
			p, i, addr, mapped := pick()
			switch rng.Intn(10) {
			case 0, 1: // user store (a COW break when the frame is shared)
				if mapped {
					err = write(p, i, addr)
				}
			case 2: // user load: faults swapped pages back, read faults keep the swap cache
				if mapped {
					err = read(p, i, addr)
				}
			case 3: // reclaim pressure
				k.SwapOut(1 + rng.Intn(16))
			case 4: // fork, then a COW write in one of the two
				if len(procs) < 3 {
					child, ferr := k.Fork(p.as, "child")
					if ferr != nil {
						err = ferr
						break
					}
					c := &proc{as: child}
					for j, s := range p.shadow {
						if s != nil {
							c.shadow[j] = bytes.Clone(s)
						}
					}
					procs = append(procs, c)
					if mapped {
						err = write([]*proc{p, c}[rng.Intn(2)], i, addr)
					}
				}
			case 5: // munmap one page
				if mapped {
					err = k.Munmap(p.as, addr, 1)
					p.shadow[i] = nil
				}
			case 6: // the core refcount strategy's "lock": raise the count of a resident frame
				if pfn, _ := k.ResidentPFN(p.as, addr); pfn != phys.NoPFN && len(orphans) < 4 {
					err = k.Phys().Get(pfn)
					orphans = append(orphans, pfn)
				} else if len(orphans) > 0 {
					err = k.PutFrame(orphans[0])
					orphans = orphans[1:]
				}
			case 7: // read fault into the swap cache, then a clean re-eviction
				if mapped {
					if err = read(p, i, addr); err == nil {
						k.SwapOut(32)
						k.SwapOut(32)
					}
				}
			case 8: // a swap-in whose slot was freed behind the kernel's back
				e, _ := k.LookupPTE(p.as, pgtable.PageOf(addr))
				if !mapped || !e.Swapped() || k.Swap().UseCount(e.SwapSlot()) != 1 || k.FreePages() == 0 {
					break
				}
				slot, free := e.SwapSlot(), k.FreePages()
				if _, err = k.Swap().Free(slot); err != nil {
					break
				}
				if ferr := k.HandleFault(p.as, addr, rng.Intn(2) == 0); !errors.Is(ferr, swapdev.ErrFreeSlot) {
					t.Logf("step %d: fault on a freed slot: %v", step, ferr)
					return false
				}
				if k.FreePages() != free {
					t.Logf("step %d: failed swap-in leaked a frame", step)
					return false
				}
				// Give the slot back (the device's free list is LIFO) so
				// the PTE names an allocated slot again.
				if again, aerr := k.Swap().Alloc(); aerr != nil || again != slot {
					t.Logf("step %d: slot %d not reallocated: %d, %v", step, slot, again, aerr)
					return false
				}
			case 9: // check a page without disturbing it when resident
				if mapped {
					err = read(p, i, addr)
				}
			}
			if err != nil {
				t.Logf("step %d: %v", step, err)
				return false
			}
			if err := k.CheckInvariants(); err != nil {
				t.Logf("step %d: %v", step, err)
				return false
			}
		}
		for _, p := range procs {
			for i, s := range p.shadow {
				if s != nil {
					if err := read(p, i, base+pgtable.VAddr(i*phys.PageSize)); err != nil {
						t.Logf("final read of page %d: %v", i, err)
						return false
					}
				}
			}
			if err := k.DestroyProcess(p.as); err != nil {
				t.Log(err)
				return false
			}
		}
		for _, pfn := range orphans {
			if err := k.PutFrame(pfn); err != nil {
				t.Log(err)
				return false
			}
		}
		if k.FreePages() != 24 || k.Swap().FreeSlots() != 96 {
			t.Logf("leaked: %d frames and %d slots free", k.FreePages(), k.Swap().FreeSlots())
			return false
		}
		return k.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
