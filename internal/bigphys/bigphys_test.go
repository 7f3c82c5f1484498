package bigphys

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/mm"
	"repro/internal/phys"
	"repro/internal/pressure"
	"repro/internal/simtime"
	"repro/internal/via"
)

func boot(t *testing.T, ram, reserve int) (*mm.Kernel, *Area) {
	t.Helper()
	k := mm.NewKernel(mm.Config{RAMPages: ram, SwapPages: 4 * ram, ClockBatch: 64, SwapBatch: 16}, simtime.NewMeter())
	a, err := Reserve(k, reserve)
	if err != nil {
		t.Fatal(err)
	}
	return k, a
}

func TestReserveTakesContiguousFrames(t *testing.T) {
	k, a := boot(t, 256, 64)
	if a.Size() != 64 || a.FreeFrames() != 64 {
		t.Fatalf("size %d free %d", a.Size(), a.FreeFrames())
	}
	if k.FreePages() != 192 {
		t.Fatalf("kernel free pages %d", k.FreePages())
	}
}

func TestReserveTooLargeFails(t *testing.T) {
	k := mm.NewKernel(mm.Config{RAMPages: 32, SwapPages: 64, ClockBatch: 8, SwapBatch: 8}, nil)
	if _, err := Reserve(k, 64); !errors.Is(err, ErrBootTooLate) {
		t.Fatalf("err = %v", err)
	}
	// Failed reservation must return the frames.
	if k.FreePages() != 32 {
		t.Fatalf("frames leaked: %d", k.FreePages())
	}
}

func TestAllocFreeCoalesce(t *testing.T) {
	_, a := boot(t, 256, 32)
	b1, err := a.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := a.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	b3, err := a.Alloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if a.FreeFrames() != 0 {
		t.Fatalf("free = %d", a.FreeFrames())
	}
	if _, err := a.Alloc(1); !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v", err)
	}
	// Free out of order and reallocate the whole thing: coalescing works.
	if err := a.Free(b2); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(b1); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(b3); err != nil {
		t.Fatal(err)
	}
	whole, err := a.Alloc(32)
	if err != nil {
		t.Fatalf("coalescing failed: %v", err)
	}
	_ = a.Free(whole)
}

func TestFragmentationHurtsLargeAllocs(t *testing.T) {
	// The scheme's known weakness: "this would tend to a hard memory
	// fragmentation over the time".
	_, a := boot(t, 256, 32)
	var blocks []*Block
	for i := 0; i < 16; i++ {
		b, err := a.Alloc(2)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
	}
	// Free every other block: 16 frames free, no 4-frame extent.
	for i := 0; i < 16; i += 2 {
		if err := a.Free(blocks[i]); err != nil {
			t.Fatal(err)
		}
	}
	if a.FreeFrames() != 16 {
		t.Fatalf("free = %d", a.FreeFrames())
	}
	if _, err := a.Alloc(4); !errors.Is(err, ErrExhausted) {
		t.Fatalf("fragmented area satisfied a 4-frame alloc: %v", err)
	}
}

func TestDoubleFreeAndForeignFree(t *testing.T) {
	_, a := boot(t, 256, 16)
	b, _ := a.Alloc(4)
	if err := a.Free(b); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(b); !errors.Is(err, ErrForeign) {
		t.Fatalf("double free err = %v", err)
	}
}

func TestReservedFramesSurvivePressureWithoutLocking(t *testing.T) {
	// The one thing bigphysarea does deliver: its frames are PG_reserved
	// and never reclaimed, with no locking calls at all.
	k, a := boot(t, 256, 32)
	b, _ := a.Alloc(8)
	msg := []byte("boot-reserved memory")
	if err := b.Write(0, msg); err != nil {
		t.Fatal(err)
	}
	if _, err := pressure.Level(k, 1.5); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := b.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("reserved memory corrupted under pressure")
	}
}

func TestBlockRegistersWithNIC(t *testing.T) {
	// Area blocks slot straight into the TPT (contiguous, stable), and
	// DMA through them stays consistent under pressure — at the price of
	// the bounce copies counted below.
	k, a := boot(t, 256, 32)
	nic := via.NewNIC("n", k.Phys(), k.Meter(), 64)
	b, _ := a.Alloc(4)
	h, err := nic.RegisterMemory(b.PFNs(), 0, b.Bytes(), 9, via.MemAttrs{})
	if err != nil {
		t.Fatal(err)
	}
	// Application data lives in ordinary memory: it must be staged.
	payload := bytes.Repeat([]byte{0xab}, 4096)
	if err := b.Write(0, payload); err != nil { // the bounce copy
		t.Fatal(err)
	}
	if _, err := pressure.Level(k, 1.5); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if err := nic.DMAReadLocal(h, 0, got, 9); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("NIC view of reserved block corrupted")
	}
	if a.Stats().BounceCopy == 0 {
		t.Fatal("bounce copy not counted")
	}
}

func TestContains(t *testing.T) {
	_, a := boot(t, 256, 16)
	b, _ := a.Alloc(1)
	if !a.Contains(b.Addr()) {
		t.Fatal("own block outside area")
	}
	if a.Contains(b.Addr() + phys.Addr(64*phys.PageSize)) {
		t.Fatal("far address inside area")
	}
}

func TestBlockRWBounds(t *testing.T) {
	_, a := boot(t, 256, 16)
	b, _ := a.Alloc(1)
	if err := b.Write(phys.PageSize-2, []byte("abc")); err == nil {
		t.Fatal("overflow write accepted")
	}
	if err := b.Read(-1, make([]byte, 2)); err == nil {
		t.Fatal("negative read accepted")
	}
}
