package swapdev

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/phys"
)

func TestAllocFree(t *testing.T) {
	d := New(4)
	if d.FreeSlots() != 4 {
		t.Fatalf("FreeSlots = %d", d.FreeSlots())
	}
	s, err := d.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if d.UseCount(s) != 1 {
		t.Fatalf("use count = %d", d.UseCount(s))
	}
	released, err := d.Free(s)
	if err != nil || !released {
		t.Fatalf("free: released=%v err=%v", released, err)
	}
	if d.FreeSlots() != 4 {
		t.Fatalf("FreeSlots after free = %d", d.FreeSlots())
	}
}

func TestExhaustion(t *testing.T) {
	d := New(2)
	if _, err := d.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Alloc(); !errors.Is(err, ErrFull) {
		t.Fatalf("err = %v, want ErrFull", err)
	}
}

func TestDupSharing(t *testing.T) {
	d := New(2)
	s, _ := d.Alloc()
	if err := d.Dup(s); err != nil {
		t.Fatal(err)
	}
	released, err := d.Free(s)
	if err != nil || released {
		t.Fatalf("first free: released=%v err=%v, want kept", released, err)
	}
	released, err = d.Free(s)
	if err != nil || !released {
		t.Fatalf("second free: released=%v err=%v, want released", released, err)
	}
}

// framed returns a memory of n frames and one frame in it filled with b.
func framed(t *testing.T, n int, b byte) (*phys.Memory, phys.PFN) {
	t.Helper()
	m := phys.New(n)
	pfn, err := m.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	fb, _ := m.FrameBytes(pfn)
	for i := range fb {
		fb[i] = b + byte(i*7)
	}
	return m, pfn
}

// pageOf is the identity of the page a frame holds.
func pageOf(t *testing.T, m *phys.Memory, pfn phys.PFN) *byte {
	t.Helper()
	fb, err := m.FrameBytes(pfn)
	if err != nil {
		t.Fatal(err)
	}
	return &fb[0]
}

// TestReadWriteRoundTrip: a write-out whose frame frees and a read-back
// that releases the slot move the one page from frame to slot to frame —
// no copy either way — and count as one device write and one read.
func TestReadWriteRoundTrip(t *testing.T) {
	d := New(3)
	m, pfn := framed(t, 4, 1)
	want, _ := m.FrameBytes(pfn)
	want = bytes.Clone(want)
	page := pageOf(t, m, pfn)
	s, _ := d.Alloc()
	if err := d.Store(s, m, pfn); err != nil {
		t.Fatal(err)
	}
	if m.RefCount(pfn) != 0 {
		t.Fatalf("stored frame still has count %d", m.RefCount(pfn))
	}
	if pageOf(t, m, pfn) == page {
		t.Fatal("the freed frame kept the page the slot now owns")
	}
	got, kept, err := d.Load(s, m, false)
	if err != nil || kept {
		t.Fatalf("load: kept=%v err=%v", kept, err)
	}
	if pageOf(t, m, got) != page {
		t.Fatal("the releasing read copied instead of handing the page over")
	}
	if fb, _ := m.FrameBytes(got); !bytes.Equal(fb, want) {
		t.Fatal("round trip mismatch")
	}
	if d.UseCount(s) != 0 || d.FreeSlots() != 3 {
		t.Fatalf("slot not released: use count %d, %d free", d.UseCount(s), d.FreeSlots())
	}
	st := d.Stats()
	if st.Writes != 1 || st.Reads != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestStoreCopiesFrameThatStaysAllocated: a frame whose count was raised
// (the paper's refcount "lock") does not free, keeps its page and bytes,
// and the slot gets an equal copy that later stores into the frame do
// not reach.
func TestStoreCopiesFrameThatStaysAllocated(t *testing.T) {
	d := New(2)
	m, pfn := framed(t, 4, 3)
	if err := m.Get(pfn); err != nil {
		t.Fatal(err)
	}
	page := pageOf(t, m, pfn)
	want, _ := m.FrameBytes(pfn)
	want = bytes.Clone(want)
	s, _ := d.Alloc()
	if err := d.Store(s, m, pfn); err != nil {
		t.Fatal(err)
	}
	if m.RefCount(pfn) != 1 || pageOf(t, m, pfn) != page {
		t.Fatalf("orphan: count %d, page moved %v", m.RefCount(pfn), pageOf(t, m, pfn) != page)
	}
	if err := m.WritePhys(pfn.Addr(), []byte("bus-master store")); err != nil {
		t.Fatal(err)
	}
	got, _, err := d.Load(s, m, false)
	if err != nil {
		t.Fatal(err)
	}
	if fb, _ := m.FrameBytes(got); !bytes.Equal(fb, want) {
		t.Fatal("the slot's copy changed with the orphan frame")
	}
}

// TestLoadCopiesWhatStaysAllocated: a kept image and a slot fork still
// shares are copied into the frame, and the slot keeps its page.
func TestLoadCopiesWhatStaysAllocated(t *testing.T) {
	for _, tc := range []struct {
		name            string
		dup, keep, kept bool
	}{
		{name: "kept", keep: true, kept: true},
		{name: "shared", dup: true},
		{name: "shared-read", dup: true, keep: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := New(2)
			m, pfn := framed(t, 4, 5)
			want, _ := m.FrameBytes(pfn)
			want = bytes.Clone(want)
			s, _ := d.Alloc()
			if err := d.Store(s, m, pfn); err != nil {
				t.Fatal(err)
			}
			if tc.dup {
				if err := d.Dup(s); err != nil {
					t.Fatal(err)
				}
			}
			page := d.AppendPages(nil)[s].Held
			got, kept, err := d.Load(s, m, tc.keep)
			if err != nil || kept != tc.kept {
				t.Fatalf("load: kept=%v err=%v, want kept=%v", kept, err, tc.kept)
			}
			if d.UseCount(s) != 1 || d.AppendPages(nil)[s].Held != page {
				t.Fatalf("slot: use count %d, page moved %v", d.UseCount(s), d.AppendPages(nil)[s].Held != page)
			}
			if fb, _ := m.FrameBytes(got); !bytes.Equal(fb, want) || &fb[0] == &page[0] {
				t.Fatal("frame does not hold a copy of the image")
			}
		})
	}
}

// TestLoadOutOfMemoryLeavesSlot: a load that finds no free frame changes
// nothing, so the kernel can reclaim and retry.
func TestLoadOutOfMemoryLeavesSlot(t *testing.T) {
	d := New(1)
	m, pfn := framed(t, 1, 7)
	s, _ := d.Alloc()
	if err := d.Store(s, m, pfn); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AllocFrame(); err != nil {
		t.Fatal(err)
	}
	for _, keep := range []bool{false, true} {
		if _, _, err := d.Load(s, m, keep); !errors.Is(err, phys.ErrOutOfMemory) {
			t.Fatalf("keep=%v: err = %v, want ErrOutOfMemory", keep, err)
		}
	}
	if d.UseCount(s) != 1 || d.Stats().Reads != 0 {
		t.Fatalf("failed load touched the slot: use count %d, stats %+v", d.UseCount(s), d.Stats())
	}
}

func TestFreeSlotOperationsFail(t *testing.T) {
	d := New(2)
	m, pfn := framed(t, 2, 0)
	if err := d.Store(0, m, pfn); !errors.Is(err, ErrFreeSlot) {
		t.Fatalf("store on free slot err = %v", err)
	}
	if m.RefCount(pfn) != 1 {
		t.Fatalf("failed store put the frame: count %d", m.RefCount(pfn))
	}
	if _, _, err := d.Load(0, m, false); !errors.Is(err, ErrFreeSlot) {
		t.Fatalf("load on free slot err = %v", err)
	}
	if m.FreeFrames() != 1 {
		t.Fatalf("failed load took a frame: %d free", m.FreeFrames())
	}
	if err := d.Dup(0); !errors.Is(err, ErrFreeSlot) {
		t.Fatalf("dup on free slot err = %v", err)
	}
	if _, err := d.Free(0); !errors.Is(err, ErrFreeSlot) {
		t.Fatalf("free on free slot err = %v", err)
	}
}

func TestBadSlot(t *testing.T) {
	d := New(1)
	if err := d.Dup(42); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("err = %v, want ErrBadSlot", err)
	}
}

func TestSlotIsolation(t *testing.T) {
	d := New(2)
	ma, pa := framed(t, 2, 0xaa)
	mb, pb := framed(t, 2, 0xbb)
	want, _ := ma.FrameBytes(pa)
	want = bytes.Clone(want)
	a, _ := d.Alloc()
	b, _ := d.Alloc()
	if err := d.Store(a, ma, pa); err != nil {
		t.Fatal(err)
	}
	if err := d.Store(b, mb, pb); err != nil {
		t.Fatal(err)
	}
	got, _, err := d.Load(a, ma, false)
	if err != nil {
		t.Fatal(err)
	}
	if fb, _ := ma.FrameBytes(got); !bytes.Equal(fb, want) {
		t.Fatal("slot a corrupted by write to slot b")
	}
}

func TestRandomOpsInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := New(8)
		var live []Slot
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(3); {
			case op == 0:
				if s, err := d.Alloc(); err == nil {
					live = append(live, s)
				}
			case op == 1 && len(live) > 0:
				s := live[rng.Intn(len(live))]
				if err := d.Dup(s); err != nil {
					return false
				}
				live = append(live, s)
			case op == 2 && len(live) > 0:
				i := rng.Intn(len(live))
				if _, err := d.Free(live[i]); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
			if err := d.CheckInvariants(); err != nil {
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
