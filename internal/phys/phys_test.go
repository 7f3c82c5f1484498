package phys

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAllFramesFree(t *testing.T) {
	m := New(32)
	if m.NumFrames() != 32 {
		t.Fatalf("NumFrames = %d", m.NumFrames())
	}
	if m.FreeFrames() != 32 {
		t.Fatalf("FreeFrames = %d, want 32", m.FreeFrames())
	}
}

func TestAllocFrameInitialState(t *testing.T) {
	m := New(4)
	pfn, err := m.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.RefCount(pfn); got != 1 {
		t.Errorf("fresh frame refcount %d, want 1", got)
	}
	if got := m.Flags(pfn); got != 0 {
		t.Errorf("fresh frame flags %v, want none", got)
	}
	if got := m.Pins(pfn); got != 0 {
		t.Errorf("fresh frame pins %d, want 0", got)
	}
}

func TestAllocFrameZeroed(t *testing.T) {
	m := New(2)
	pfn, err := m.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WritePhys(pfn.Addr(), []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Put(pfn); err != nil {
		t.Fatal(err)
	}
	// Reallocate (LIFO free list returns the same frame) and check zeroing.
	pfn2, err := m.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if pfn2 != pfn {
		t.Fatalf("expected LIFO reuse of frame %d, got %d", pfn, pfn2)
	}
	buf := make([]byte, 3)
	if err := m.ReadPhys(pfn2.Addr(), buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 || buf[1] != 0 || buf[2] != 0 {
		t.Fatalf("reallocated frame not zeroed: %v", buf)
	}
}

func TestAllocExhaustion(t *testing.T) {
	m := New(3)
	for i := 0; i < 3; i++ {
		if _, err := m.AllocFrame(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.AllocFrame(); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if got := m.Stats().FailedAlloc; got != 1 {
		t.Fatalf("FailedAlloc = %d, want 1", got)
	}
}

func TestGetPutRefcounting(t *testing.T) {
	m := New(2)
	pfn, _ := m.AllocFrame()
	if err := m.Get(pfn); err != nil {
		t.Fatal(err)
	}
	if got := m.RefCount(pfn); got != 2 {
		t.Fatalf("refcount %d, want 2", got)
	}
	freed, err := m.Put(pfn)
	if err != nil || freed {
		t.Fatalf("first put: freed=%v err=%v, want not freed", freed, err)
	}
	freed, err = m.Put(pfn)
	if err != nil || !freed {
		t.Fatalf("second put: freed=%v err=%v, want freed", freed, err)
	}
	if m.FreeFrames() != 2 {
		t.Fatalf("FreeFrames = %d, want 2", m.FreeFrames())
	}
}

func TestPutOrphanedFrameStaysAllocated(t *testing.T) {
	// The paper's core observation: an extra reference keeps the frame
	// allocated after the owner "frees" it — but nothing maps it anymore.
	m := New(2)
	pfn, _ := m.AllocFrame()
	if err := m.Get(pfn); err != nil { // sloppy driver "lock"
		t.Fatal(err)
	}
	if freed, _ := m.Put(pfn); freed { // swap path's __free_page
		t.Fatal("frame freed despite raised count")
	}
	if m.FreeFrames() != 1 {
		t.Fatalf("orphaned frame returned to the free list")
	}
	// The frame must never be handed out again while orphaned.
	pfn2, err := m.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if pfn2 == pfn {
		t.Fatal("allocator reused an orphaned frame")
	}
}

func TestPutOnFreeFrameFails(t *testing.T) {
	m := New(1)
	pfn, _ := m.AllocFrame()
	if _, err := m.Put(pfn); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Put(pfn); !errors.Is(err, ErrFrameFree) {
		t.Fatalf("double free err = %v, want ErrFrameFree", err)
	}
}

func TestGetOnFreeFrameFails(t *testing.T) {
	m := New(1)
	if err := m.Get(0); !errors.Is(err, ErrFrameFree) {
		t.Fatalf("get on free frame err = %v, want ErrFrameFree", err)
	}
}

func TestBadPFN(t *testing.T) {
	m := New(1)
	if err := m.Get(99); !errors.Is(err, ErrBadPFN) {
		t.Fatalf("err = %v, want ErrBadPFN", err)
	}
	if _, err := m.PageInfo(99); !errors.Is(err, ErrBadPFN) {
		t.Fatalf("err = %v, want ErrBadPFN", err)
	}
}

func TestFlags(t *testing.T) {
	m := New(1)
	pfn, _ := m.AllocFrame()
	if err := m.SetFlags(pfn, PGLocked|PGDirty); err != nil {
		t.Fatal(err)
	}
	if !m.TestFlags(pfn, PGLocked) || !m.TestFlags(pfn, PGDirty) {
		t.Fatal("flags not set")
	}
	if m.TestFlags(pfn, PGReserved) {
		t.Fatal("unexpected reserved flag")
	}
	if err := m.ClearFlags(pfn, PGLocked); err != nil {
		t.Fatal(err)
	}
	if m.TestFlags(pfn, PGLocked) {
		t.Fatal("PGLocked still set after clear")
	}
	if !m.TestFlags(pfn, PGDirty) {
		t.Fatal("clear removed unrelated flag")
	}
}

func TestFlagsClearedOnFree(t *testing.T) {
	m := New(1)
	pfn, _ := m.AllocFrame()
	_ = m.SetFlags(pfn, PGDirty|PGReferenced)
	if _, err := m.Put(pfn); err != nil {
		t.Fatal(err)
	}
	pfn2, _ := m.AllocFrame()
	if got := m.Flags(pfn2); got != 0 {
		t.Fatalf("flags survived free/realloc: %v", got)
	}
}

func TestPinUnpin(t *testing.T) {
	m := New(1)
	pfn, _ := m.AllocFrame()
	if err := m.Pin(pfn); err != nil {
		t.Fatal(err)
	}
	if err := m.Pin(pfn); err != nil {
		t.Fatal(err)
	}
	if got := m.Pins(pfn); got != 2 {
		t.Fatalf("pins = %d, want 2", got)
	}
	if err := m.Unpin(pfn); err != nil {
		t.Fatal(err)
	}
	if err := m.Unpin(pfn); err != nil {
		t.Fatal(err)
	}
	if err := m.Unpin(pfn); err == nil {
		t.Fatal("unpin below zero succeeded")
	}
}

func TestPutRefusesFreeingPinnedFrame(t *testing.T) {
	m := New(1)
	pfn, _ := m.AllocFrame()
	if err := m.Pin(pfn); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Put(pfn); err == nil {
		t.Fatal("freeing a pinned frame must fail")
	}
	// The invariant checker must still be satisfied afterwards.
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReclaimable(t *testing.T) {
	m := New(4)
	pfn, _ := m.AllocFrame()
	if !m.Reclaimable(pfn) {
		t.Fatal("plain frame should be reclaimable")
	}
	_ = m.SetFlags(pfn, PGLocked)
	if m.Reclaimable(pfn) {
		t.Fatal("PG_locked frame reclaimable")
	}
	_ = m.ClearFlags(pfn, PGLocked)
	_ = m.SetFlags(pfn, PGReserved)
	if m.Reclaimable(pfn) {
		t.Fatal("PG_reserved frame reclaimable")
	}
	_ = m.ClearFlags(pfn, PGReserved)
	_ = m.Pin(pfn)
	if m.Reclaimable(pfn) {
		t.Fatal("pinned frame reclaimable")
	}
	_ = m.Unpin(pfn)
	if !m.Reclaimable(pfn) {
		t.Fatal("frame should be reclaimable again")
	}
	// Raised refcount does NOT protect a frame (the paper's finding).
	_ = m.Get(pfn)
	if !m.Reclaimable(pfn) {
		t.Fatal("refcount must not make a frame unreclaimable")
	}
}

func TestReadWritePhys(t *testing.T) {
	m := New(2)
	p0, _ := m.AllocFrame()
	p1, _ := m.AllocFrame()
	msg := []byte("dma write across nothing")
	if err := m.WritePhys(p1.Addr()+17, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := m.ReadPhys(p1.Addr()+17, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("read back %q", got)
	}
	// Frame 0 untouched.
	z := make([]byte, 4)
	if err := m.ReadPhys(p0.Addr(), z); err != nil {
		t.Fatal(err)
	}
	for _, b := range z {
		if b != 0 {
			t.Fatal("write leaked into other frame")
		}
	}
}

func TestReadWritePhysBounds(t *testing.T) {
	m := New(1)
	buf := make([]byte, 8)
	if err := m.ReadPhys(Addr(PageSize-4), buf); !errors.Is(err, ErrBadAddr) {
		t.Fatalf("out-of-range read err = %v", err)
	}
	if err := m.WritePhys(Addr(PageSize), buf); !errors.Is(err, ErrBadAddr) {
		t.Fatalf("out-of-range write err = %v", err)
	}
}

func TestCopyPhys(t *testing.T) {
	m := New(2)
	p0, _ := m.AllocFrame()
	p1, _ := m.AllocFrame()
	src := []byte{9, 8, 7, 6}
	if err := m.WritePhys(p0.Addr(), src); err != nil {
		t.Fatal(err)
	}
	if err := m.CopyPhys(p1.Addr()+100, p0.Addr(), 4); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if err := m.ReadPhys(p1.Addr()+100, got); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("copy mismatch at %d: %v", i, got)
		}
	}
}

// TestPutHandOff: the eviction Put exchanges pages only when it frees the
// frame.  A raised count or a pin at the last reference hands nothing
// over and leaves the frame its page.
func TestPutHandOff(t *testing.T) {
	m := New(2)
	pfn, _ := m.AllocFrame()
	own := m.data[pfn].Load()
	spare := new(PageData)
	_ = m.Get(pfn)
	if pg, err := m.PutHandOff(pfn, spare); pg != nil || err != nil || m.data[pfn].Load() != own {
		t.Fatalf("put of a shared frame handed off %p (err %v)", pg, err)
	}
	_ = m.Pin(pfn)
	if pg, err := m.PutHandOff(pfn, spare); pg != nil || err == nil || m.data[pfn].Load() != own {
		t.Fatalf("put of a pinned last reference handed off %p (err %v)", pg, err)
	}
	_ = m.Unpin(pfn)
	if pg, err := m.PutHandOff(pfn, spare); pg != own || err != nil || m.data[pfn].Load() != spare {
		t.Fatalf("freeing put: got %p (err %v), frame holds %p", pg, err, m.data[pfn].Load())
	}
	if m.RefCount(pfn) != 0 || m.FreeFrames() != 2 {
		t.Fatal("frame not freed")
	}
}

// TestAllocFrameWith: the frame takes the supplied page as it is, not
// zero-filled, and the displaced page goes to the caller; with no free
// frame nothing changes hands.
func TestAllocFrameWith(t *testing.T) {
	m := New(1)
	img := new(PageData)
	copy(img[:], "an image that already exists")
	pfn, displaced, err := m.AllocFrameWith(img)
	if err != nil || displaced != m.own.Peek(int(pfn)) || m.data[pfn].Load() != img {
		t.Fatalf("pfn %d displaced %p (err %v)", pfn, displaced, err)
	}
	got := make([]byte, 28)
	if err := m.ReadPhys(pfn.Addr(), got); err != nil || string(got) != "an image that already exists" {
		t.Fatalf("frame reads %q (err %v)", got, err)
	}
	if _, pg, err := m.AllocFrameWith(new(PageData)); !errors.Is(err, ErrOutOfMemory) || pg != nil {
		t.Fatalf("full memory: err %v, displaced %p", err, pg)
	}
}

// TestCopiesFollowPageReferences: the bus-master paths reach a frame's
// current page, and copy frames that still hold their own pages as one
// run.
func TestCopiesFollowPageReferences(t *testing.T) {
	m := New(4)
	if got := len(m.run(10, 3*PageSize)); got != 3*PageSize {
		t.Fatalf("never-swapped memory: run of %d bytes, want %d", got, 3*PageSize)
	}
	img := new(PageData)
	for i := range img {
		img[i] = 0xee
	}
	if _, err := m.AllocFrame(); err != nil { // frame 0
		t.Fatal(err)
	}
	pfn, old, err := m.AllocFrameWith(img) // frame 1 takes a page from elsewhere
	if err != nil || pfn != 1 {
		t.Fatalf("pfn %d, err %v", pfn, err)
	}
	if got := len(m.run(10, 3*PageSize)); got != PageSize-10 {
		t.Fatalf("run crosses into a moved page: %d bytes", got)
	}
	buf := bytes.Repeat([]byte{0x11}, 3*PageSize)
	if err := m.WritePhys(PageSize/2, buf); err != nil {
		t.Fatal(err)
	}
	if img[PageSize/2] != 0x11 || old[PageSize/2] != 0 {
		t.Fatal("write went to the frame's old page")
	}
	// Frame 3's second half was not written: copy into it from across
	// the boundary of frame 0 and the moved page.
	const dst = 3*PageSize + PageSize/2 + 100
	if err := m.CopyPhys(dst, PageSize-8, 16); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	if err := m.ReadPhys(dst, got); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{0x11}, 16)) {
		t.Fatalf("copy across the moved page read %v (err %v)", got, err)
	}
}

func TestAddrConversions(t *testing.T) {
	if got := PFN(3).Addr(); got != 3*PageSize {
		t.Fatalf("PFN(3).Addr() = %d", got)
	}
	if got := FrameOf(Addr(3*PageSize + 17)); got != 3 {
		t.Fatalf("FrameOf = %d", got)
	}
}

func TestPageFlagsString(t *testing.T) {
	if got := (PGLocked | PGDirty).String(); got != "locked|dirty" {
		t.Fatalf("flags string = %q", got)
	}
	if got := PageFlags(0).String(); got != "-" {
		t.Fatalf("zero flags string = %q", got)
	}
}

func TestStatsCounting(t *testing.T) {
	m := New(2)
	a, _ := m.AllocFrame()
	b, _ := m.AllocFrame()
	_, _ = m.Put(a)
	_, _ = m.Put(b)
	s := m.Stats()
	if s.Allocs != 2 || s.Frees != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestRandomOpsInvariants drives random alloc/get/put/pin/unpin sequences
// and checks the page-map invariants after every step.
func TestRandomOpsInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(16)
		var live []PFN
		pins := map[PFN]int{}
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(5); {
			case op == 0: // alloc
				if pfn, err := m.AllocFrame(); err == nil {
					live = append(live, pfn)
				}
			case op == 1 && len(live) > 0: // get
				pfn := live[rng.Intn(len(live))]
				if err := m.Get(pfn); err == nil {
					live = append(live, pfn)
				}
			case op == 2 && len(live) > 0: // put
				i := rng.Intn(len(live))
				pfn := live[i]
				// Avoid dropping the last reference of a pinned frame.
				if m.RefCount(pfn) == 1 && pins[pfn] > 0 {
					break
				}
				if _, err := m.Put(pfn); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			case op == 3 && len(live) > 0: // pin
				pfn := live[rng.Intn(len(live))]
				if err := m.Pin(pfn); err == nil {
					pins[pfn]++
				}
			case op == 4: // unpin something pinned
				for pfn, n := range pins {
					if n > 0 {
						if err := m.Unpin(pfn); err != nil {
							return false
						}
						pins[pfn]--
						break
					}
				}
			}
			if err := m.CheckInvariants(); err != nil {
				t.Logf("invariant violated at step %d: %v", step, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
