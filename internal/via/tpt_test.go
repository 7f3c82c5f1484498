package via

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/phys"
)

// translate resolves (handle, byte offset) to a physical address: the
// tests' single-address probe of translateRange.
func (t *tpt) translate(h MemHandle, off int, tag ProtectionTag, needAttr func(MemAttrs) bool) (phys.Addr, error) {
	exts, fenced, err := t.translateRange(h, off, 1, tag, needAttr, nil)
	if err != nil {
		return 0, err
	}
	if fenced {
		t.fence.RUnlock()
	}
	return exts[0].addr, nil
}

func TestTPTRegisterTranslate(t *testing.T) {
	tb := newTPT(8)
	pages := []phys.Addr{4 * phys.PageSize, 9 * phys.PageSize}
	h, err := tb.register(pages, 100, 2*phys.PageSize-100, 5, MemAttrs{})
	if err != nil {
		t.Fatal(err)
	}
	// Offset 0 maps to page 0 at in-page offset 100.
	pa, err := tb.translate(h, 0, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pa != pages[0]+100 {
		t.Fatalf("translate(0) = %#x", pa)
	}
	// An offset landing in page 1.
	pa, err = tb.translate(h, phys.PageSize, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pa != pages[1]+100 {
		t.Fatalf("translate = %#x, want %#x", pa, pages[1]+100)
	}
}

func TestTPTUnalignedFrameAddressMasked(t *testing.T) {
	// Registration masks frame addresses to page boundaries.
	tb := newTPT(4)
	h, err := tb.register([]phys.Addr{3*phys.PageSize + 7}, 0, 64, 1, MemAttrs{})
	if err != nil {
		t.Fatal(err)
	}
	pa, err := tb.translate(h, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pa != 3*phys.PageSize {
		t.Fatalf("pa = %#x", pa)
	}
}

func TestTPTEmptyRegistrationRejected(t *testing.T) {
	tb := newTPT(4)
	if _, err := tb.register(nil, 0, 8, 1, MemAttrs{}); err == nil {
		t.Fatal("empty page list accepted")
	}
	if _, err := tb.register([]phys.Addr{0}, 0, 0, 1, MemAttrs{}); err == nil {
		t.Fatal("zero length accepted")
	}
}

func TestTPTAttrCheck(t *testing.T) {
	tb := newTPT(4)
	h, _ := tb.register([]phys.Addr{0}, 0, 64, 1, MemAttrs{EnableRDMARead: true})
	if _, err := tb.translate(h, 0, 1, func(a MemAttrs) bool { return a.EnableRDMAWrite }); !errors.Is(err, ErrRDMADisabled) {
		t.Fatalf("err = %v", err)
	}
	if _, err := tb.translate(h, 0, 1, func(a MemAttrs) bool { return a.EnableRDMARead }); err != nil {
		t.Fatal(err)
	}
}

// TestTPTRandomOps: property — random register/deregister/translate
// sequences conserve slots and translations always agree with a model.
func TestTPTRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const slots = 32
		tb := newTPT(slots)
		type mreg struct {
			h     MemHandle
			pages []phys.Addr
			off   int
			len   int
			tag   ProtectionTag
		}
		var regs []mreg
		used := 0
		for step := 0; step < 200; step++ {
			switch rng.Intn(3) {
			case 0: // register
				n := rng.Intn(5) + 1
				pages := make([]phys.Addr, n)
				for i := range pages {
					pages[i] = phys.Addr(rng.Intn(1000)) * phys.PageSize
				}
				off := rng.Intn(phys.PageSize)
				length := rng.Intn(n*phys.PageSize-off) + 1
				tag := ProtectionTag(rng.Intn(3) + 1)
				h, err := tb.register(pages, off, length, tag, MemAttrs{})
				if used+n <= slots {
					if err != nil {
						t.Logf("register failed with %d free: %v", slots-used, err)
						return false
					}
					regs = append(regs, mreg{h: h, pages: pages, off: off, len: length, tag: tag})
					used += n
				} else if err == nil {
					t.Log("register succeeded beyond capacity")
					return false
				}
			case 1: // deregister
				if len(regs) > 0 {
					i := rng.Intn(len(regs))
					r := regs[i]
					freed, err := tb.deregister(r.h)
					if err != nil {
						t.Log(err)
						return false
					}
					if freed != len(r.pages) {
						t.Logf("deregister freed %d slots, want %d", freed, len(r.pages))
						return false
					}
					used -= len(r.pages)
					regs = append(regs[:i], regs[i+1:]...)
				}
			case 2: // translate against the model
				if len(regs) > 0 {
					r := regs[rng.Intn(len(regs))]
					off := rng.Intn(r.len)
					pa, err := tb.translate(r.h, off, r.tag, nil)
					if err != nil {
						t.Logf("translate: %v", err)
						return false
					}
					abs := r.off + off
					want := (r.pages[abs/phys.PageSize] &^ phys.Addr(phys.PageMask)) + phys.Addr(abs%phys.PageSize)
					if pa != want {
						t.Logf("translate = %#x, want %#x", pa, want)
						return false
					}
					// Wrong tag must be rejected.
					if _, err := tb.translate(r.h, off, r.tag+100, nil); err == nil {
						t.Log("wrong tag accepted")
						return false
					}
				}
			}
			if tb.freeSlots() != slots-used {
				t.Logf("slot accounting: free=%d want %d", tb.freeSlots(), slots-used)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDescriptorTotalLength(t *testing.T) {
	d := NewDescriptor(OpSend,
		Segment{Length: 10}, Segment{Length: 20}, Segment{Length: 30})
	if d.TotalLength() != 60 {
		t.Fatalf("total = %d", d.TotalLength())
	}
	if NewDescriptor(OpSend).TotalLength() != 0 {
		t.Fatal("empty descriptor length")
	}
}

func TestDescriptorResetPanicsWhilePending(t *testing.T) {
	d := NewDescriptor(OpSend)
	defer func() {
		if recover() == nil {
			t.Fatal("Reset on pending descriptor did not panic")
		}
	}()
	d.Reset()
}

func TestDescriptorCompleteOnce(t *testing.T) {
	d := NewDescriptor(OpSend)
	d.complete(StatusSuccess, 5)
	d.complete(StatusProtectionError, 9) // ignored
	if d.Status != StatusSuccess || d.Transferred != 5 {
		t.Fatalf("descriptor %v/%d", d.Status, d.Transferred)
	}
}

func TestOpAndStatusStrings(t *testing.T) {
	if OpSend.String() != "send" || OpRDMAWrite.String() != "rdma-write" {
		t.Fatal("op strings")
	}
	if StatusSuccess.String() != "success" || StatusPending.String() != "pending" {
		t.Fatal("status strings")
	}
	if VIConnected.String() != "connected" {
		t.Fatal("state strings")
	}
}

// checkSlotPartition verifies the writer-side slot ledger: every TPT slot
// is in exactly one place — the free list, the grace list, or one
// published region — and the region count matches the directory.  A slot
// handed to a new registration while still parked on the grace list (the
// reuse the epoch-deferred free forbids) shows up as a duplicate.
func checkSlotPartition(t *testing.T, tb *tpt, slots int) {
	t.Helper()
	tb.mu.Lock()
	defer tb.mu.Unlock()
	owner := make([]string, slots)
	claim := func(s int, who string) {
		if s < 0 || s >= slots {
			t.Fatalf("slot %d out of range (%s)", s, who)
		}
		if owner[s] != "" {
			t.Fatalf("slot %d held twice: %s and %s", s, owner[s], who)
		}
		owner[s] = who
	}
	for _, s := range tb.free {
		claim(s, "free")
	}
	for _, s := range tb.grace {
		claim(s, "grace")
	}
	regions := 0
	tb.regions.Range(func(k, v any) bool {
		r := v.(*region)
		if k.(MemHandle) != r.handle || len(r.slots) != len(r.frames) {
			t.Fatalf("directory entry %v holds region %d with %d slots for %d frames", k, r.handle, len(r.slots), len(r.frames))
		}
		regions++
		for _, s := range r.slots {
			claim(s, "region")
		}
		return true
	})
	for s, who := range owner {
		if who == "" {
			t.Fatalf("slot %d lost", s)
		}
	}
	if regions != tb.regionCount() {
		t.Fatalf("regionCount = %d, directory holds %d", tb.regionCount(), regions)
	}
}

// TestTPTDirectoryChurn churns the per-region directory — register,
// invalidate, repair, deregister, several regions live at once — against
// concurrent translateRange, translate and walkRange, and checks what
// per-region publication must preserve:
//
//   - no torn region: a reader sees, for the handle it asked for, frames
//     that all belong to that handle (each page's original frame or its
//     repaired one), never a mix with another registration's;
//   - a handle below the retired watermark is ErrRegionReleased, one
//     that was never issued is ErrBadHandle — exactly, at any time;
//   - regionCount and the slot ledger are exact after every writer step.
func TestTPTDirectoryChurn(t *testing.T) {
	const (
		slots   = 64
		npages  = 4
		live    = 6 // regions kept registered at once
		iters   = 600
		readers = 4
	)
	// Handles are monotone, so the frames of handle h can be a function of
	// h: page p sits at frameOf(h, p), or one page further once repaired.
	frameOf := func(h MemHandle, p int) phys.Addr {
		return phys.Addr((int(h)*npages+p)*3) * phys.PageSize
	}
	tb := newTPT(slots)
	var issued, retired atomic.Uint64 // handles ≤ retired are deregistered, ≤ issued exist
	stop := make(chan struct{})

	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			scratch := make([]extent, 0, npages)
			checkFrame := func(h MemHandle, p int, pa phys.Addr) bool {
				if base := frameOf(h, p); pa != base && pa != base+phys.PageSize {
					t.Errorf("handle %d page %d translated to %#x: not a frame of this region", h, p, pa)
					return false
				}
				return true
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo, hi := retired.Load(), issued.Load()
				if hi == 0 {
					continue
				}
				// A released handle, whatever else is going on.
				if lo > 0 {
					h := MemHandle(1 + rng.Intn(int(lo)))
					if _, _, err := tb.translateRange(h, 0, 8, 9, nil, scratch[:0]); !errors.Is(err, ErrRegionReleased) {
						t.Errorf("released handle %d: %v", h, err)
						return
					}
				}
				// A handle that was never issued.
				if _, err := tb.regionLength(MemHandle(hi) + 1<<20); !errors.Is(err, ErrBadHandle) {
					t.Errorf("never-issued handle: %v", err)
					return
				}
				// A handle that is live or just gone.
				h := MemHandle(lo + 1 + uint64(rng.Intn(int(hi-lo))))
				exts, fenced, err := tb.translateRange(h, 0, npages*phys.PageSize, 9, nil, scratch[:0])
				if fenced {
					tb.fence.RUnlock()
				}
				switch {
				case err == nil:
					if len(exts) != npages {
						t.Errorf("handle %d: %d extents for %d scattered pages", h, len(exts), npages)
						return
					}
					for p, e := range exts {
						if e.n != phys.PageSize || !checkFrame(h, p, e.addr) {
							return
						}
					}
				case errors.Is(err, ErrRegionReleased), errors.Is(err, ErrIOPageFault):
				default:
					t.Errorf("handle %d: %v", h, err)
					return
				}
				_, err = tb.walkRange(h, 0, npages*phys.PageSize, 9, nil, func(_, p int, pa phys.Addr, _ int, _ bool) {
					checkFrame(h, p, pa)
				})
				if err != nil && !errors.Is(err, ErrRegionReleased) {
					t.Errorf("walkRange %d: %v", h, err)
					return
				}
			}
		}(w)
	}

	var window []MemHandle
	pages := make([]phys.Addr, npages)
	for i := 0; i < iters; i++ {
		h := tb.peekNextHandle()
		for p := range pages {
			pages[p] = frameOf(h, p)
		}
		got, err := tb.register(pages, 0, npages*phys.PageSize, 9, MemAttrs{NoPin: i%2 == 0})
		if err != nil || got != h {
			t.Fatalf("register: handle %d (want %d), err %v", got, h, err)
		}
		issued.Store(uint64(h))
		window = append(window, h)
		checkSlotPartition(t, tb, slots)
		if i%2 == 0 {
			p := i % npages
			if !tb.invalidatePage(h, p) {
				t.Fatalf("invalidate of present page %d of handle %d reported absent", p, h)
			}
			checkSlotPartition(t, tb, slots)
			if err := tb.repairPage(h, p, frameOf(h, p)+phys.PageSize); err != nil {
				t.Fatal(err)
			}
		}
		if len(window) > live {
			old := window[0]
			window = window[1:]
			if n, err := tb.deregister(old); err != nil || n != npages {
				t.Fatalf("deregister %d: %d slots, %v", old, n, err)
			}
			retired.Store(uint64(old))
			if _, err := tb.deregister(old); !errors.Is(err, ErrRegionReleased) {
				t.Fatalf("second deregister of %d: %v", old, err)
			}
		}
		checkSlotPartition(t, tb, slots)
		if got := tb.regionCount(); got != len(window) {
			t.Fatalf("regionCount = %d with %d regions registered", got, len(window))
		}
	}
	close(stop)
	wg.Wait()
}
