package via

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/phys"
	"repro/internal/race"
)

// pfnsOf converts page addresses to the frame list register takes.
func pfnsOf(addrs []phys.Addr) []phys.PFN {
	out := make([]phys.PFN, len(addrs))
	for i, pa := range addrs {
		out[i] = phys.FrameOf(pa)
	}
	return out
}

// peekNextHandle reports the next handle to be issued (tests use it to
// build handles guaranteed never to have existed).
func (t *tpt) peekNextHandle() MemHandle {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nextH
}

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
	h, err := tb.register(pfnsOf(pages), 100, 2*phys.PageSize-100, 5, MemAttrs{})
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

func TestTPTEmptyRegistrationRejected(t *testing.T) {
	tb := newTPT(4)
	if _, err := tb.register(nil, 0, 8, 1, MemAttrs{}); err == nil {
		t.Fatal("empty page list accepted")
	}
	if _, err := tb.register([]phys.PFN{0}, 0, 0, 1, MemAttrs{}); err == nil {
		t.Fatal("zero length accepted")
	}
}

func TestTPTAttrCheck(t *testing.T) {
	tb := newTPT(4)
	h, _ := tb.register([]phys.PFN{0}, 0, 64, 1, MemAttrs{EnableRDMARead: true})
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
				h, err := tb.register(pfnsOf(pages), off, length, tag, MemAttrs{})
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
// is counted in exactly one place — free, grace-parked, or one page of a
// published region — and the region count matches the directory.
// handles are the ones the caller believes live; each must resolve to a
// region carrying it.
func checkSlotPartition(t *testing.T, tb *tpt, slots int, handles []MemHandle) {
	t.Helper()
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if tb.free < 0 || tb.grace < 0 {
		t.Fatalf("negative slot count: free %d grace %d", tb.free, tb.grace)
	}
	held := 0
	for _, h := range handles {
		r := tb.find(h)
		if r == nil || r.handle != h {
			t.Fatalf("live handle %d not in the directory", h)
		}
		held += len(r.frames)
	}
	if tb.free+tb.grace+held != slots {
		t.Fatalf("slot ledger: free %d + grace %d + held %d != %d", tb.free, tb.grace, held, slots)
	}
	if len(handles) != tb.regionCount() {
		t.Fatalf("regionCount = %d, %d regions live", tb.regionCount(), len(handles))
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
//
// 1 300 handles cross every directory chunk size (8, 16, … 256) and run
// into two recycled chunks: the run 249–504 is dead by handle 511 and
// reused at 761, the run 505–760 at 1017, while readers still probe
// handles of the runs that used to live there.
func TestTPTDirectoryChurn(t *testing.T) {
	const (
		slots   = 64
		npages  = 4
		live    = 6 // regions kept registered at once
		iters   = 1300
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
		got, err := tb.register(pfnsOf(pages), 0, npages*phys.PageSize, 9, MemAttrs{NoPin: i%2 == 0})
		if err != nil || got != h {
			t.Fatalf("register: handle %d (want %d), err %v", got, h, err)
		}
		issued.Store(uint64(h))
		window = append(window, h)
		checkSlotPartition(t, tb, slots, window)
		if i%2 == 0 {
			p := i % npages
			if !tb.invalidatePage(h, p) {
				t.Fatalf("invalidate of present page %d of handle %d reported absent", p, h)
			}
			checkSlotPartition(t, tb, slots, window)
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
		checkSlotPartition(t, tb, slots, window)
		if got := tb.regionCount(); got != len(window) {
			t.Fatalf("regionCount = %d with %d regions registered", got, len(window))
		}
	}
	close(stop)
	wg.Wait()
}

// TestTPTStaleHandlesNeverAlias: one writer registers, deregisters and
// re-registers regions of 1 to 8 pages, thousands of handles deep (so
// directory chunks die and are reused), while readers translate live,
// stale and not yet issued handles.  A stale handle is ErrRegionReleased
// every time, and no translation ever returns a frame of a registration
// other than the one its handle named.  Run under -race.
func TestTPTStaleHandlesNeverAlias(t *testing.T) {
	const (
		slots   = 64
		live    = 4
		iters   = 3000
		readers = 3
	)
	sizeOf := func(h MemHandle) int { return 1 + int(h)%8 }
	frameOf := func(h MemHandle, p int) phys.PFN { return phys.PFN((int(h)*8 + p) * 2) }
	tb := newTPT(slots)
	var issued, retired atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			scratch := make([]extent, 0, 8)
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo, hi := retired.Load(), issued.Load()
				h := MemHandle(1 + rng.Intn(int(hi)+2))
				n := sizeOf(h)
				exts, _, err := tb.translateRange(h, 0, n*phys.PageSize, 9, nil, scratch[:0])
				switch {
				case uint64(h) <= lo && !errors.Is(err, ErrRegionReleased):
					t.Errorf("stale handle %d (retired ≤ %d): %v", h, lo, err)
					return
				case err == nil:
					if len(exts) != n {
						t.Errorf("handle %d: %d extents for %d pages", h, len(exts), n)
						return
					}
					for p, e := range exts {
						if e.addr != frameOf(h, p).Addr() {
							t.Errorf("handle %d page %d translated to %#x: another registration's frame", h, p, e.addr)
							return
						}
					}
				case !errors.Is(err, ErrRegionReleased) && !errors.Is(err, ErrBadHandle):
					t.Errorf("handle %d: %v", h, err)
					return
				}
			}
		}(w)
	}
	var window []MemHandle
	pfns := make([]phys.PFN, 8)
	for i := 0; i < iters; i++ {
		h := tb.peekNextHandle()
		for p := range pfns {
			pfns[p] = frameOf(h, p)
		}
		got, err := tb.register(pfns[:sizeOf(h)], 0, sizeOf(h)*phys.PageSize, 9, MemAttrs{})
		if err != nil || got != h {
			t.Fatalf("register: handle %d (want %d), err %v", got, h, err)
		}
		issued.Store(uint64(h))
		if window = append(window, h); len(window) > live {
			if _, err := tb.deregister(window[0]); err != nil {
				t.Fatal(err)
			}
			retired.Store(uint64(window[0]))
			window = window[1:]
		}
	}
	close(stop)
	wg.Wait()
	checkSlotPartition(t, tb, slots, window)
}

// TestTPTGraceDefersSlotReuse: slots a deregistration frees are parked
// until the next writer operation, and counted as free all along.
func TestTPTGraceDefersSlotReuse(t *testing.T) {
	tb := newTPT(4)
	h, err := tb.register([]phys.PFN{1, 2, 3}, 0, 3*phys.PageSize, 1, MemAttrs{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.deregister(h); err != nil {
		t.Fatal(err)
	}
	tb.mu.Lock()
	free, grace := tb.free, tb.grace
	tb.mu.Unlock()
	if free != 1 || grace != 3 || tb.freeSlots() != 4 {
		t.Fatalf("after deregister: free %d grace %d freeSlots %d, want 1, 3, 4", free, grace, tb.freeSlots())
	}
	if _, err := tb.register([]phys.PFN{1, 2, 3, 4}, 0, 4*phys.PageSize, 1, MemAttrs{}); err != nil {
		t.Fatalf("the next writer did not promote the parked slots: %v", err)
	}
}

// TestTPTRegisterZeroAllocs: registering and deregistering a pinned
// region allocates nothing in steady state — slots are counts, the
// directory recycles its chunks, and regions and frame lists are carved
// from blocks.
func TestTPTRegisterZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race-detector instrumentation allocates")
	}
	tb := newTPT(64)
	pfns := []phys.PFN{3, 9, 4, 1, 5, 9, 2, 6}
	got := testing.AllocsPerRun(1000, func() {
		h, err := tb.register(pfns, 0, len(pfns)*phys.PageSize, 1, MemAttrs{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tb.deregister(h); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("register+deregister allocates %v objects, want 0", got)
	}
}

// TestTPTLookupChecksTheHandle: what a reader holding a directory index
// from before a chunk's reuse sees — the slot of its released handle
// holding a later registration's region — is a miss, never that
// region's frames.
func TestTPTLookupChecksTheHandle(t *testing.T) {
	tb := newTPT(8)
	old, err := tb.register([]phys.PFN{1}, 0, 64, 3, MemAttrs{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.deregister(old); err != nil {
		t.Fatal(err)
	}
	later, err := tb.register([]phys.PFN{7}, 0, 64, 3, MemAttrs{})
	if err != nil {
		t.Fatal(err)
	}
	tb.mu.Lock()
	tb.dir.Store(uint32(old), tb.find(later))
	tb.mu.Unlock()
	if pa, err := tb.translate(old, 0, 3, nil); !errors.Is(err, ErrRegionReleased) {
		t.Fatalf("released handle %d translated to %#x (err %v): the region of handle %d", old, pa, err, later)
	}
	if _, err := tb.walkRange(old, 0, 64, 3, nil, func(int, int, phys.Addr, int, bool) {}); !errors.Is(err, ErrRegionReleased) {
		t.Fatalf("walkRange of released handle %d: %v", old, err)
	}
}
