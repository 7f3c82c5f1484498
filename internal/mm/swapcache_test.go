package mm

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/pgtable"
	"repro/internal/swapdev"
)

// evictAll ages and evicts as much as possible.
func evictAll(k *Kernel) {
	for i := 0; i < 4; i++ {
		k.SwapOut(64)
	}
}

func TestSwapCacheSkipsCleanRewrite(t *testing.T) {
	k := smallKernel()
	as := k.CreateProcess("p", false)
	addr := mmapRW(t, k, as, 1)
	data := []byte("stable contents")
	if err := k.CopyToUser(as, addr, data); err != nil {
		t.Fatal(err)
	}
	evictAll(k)
	// Read fault: swap-in keeps the slot as the frame's cache image.
	got := make([]byte, len(data))
	if err := k.CopyFromUser(as, addr, got); err != nil {
		t.Fatal(err)
	}
	if st := k.Swap().Stats(); st.Writes != 1 || st.Reads != 1 || st.Frees != 0 {
		t.Fatalf("after evict + read fault: device %+v, want 1 write, 1 read, slot kept", st)
	}
	evictAll(k)
	st := k.Stats()
	if st.SwapCacheHit == 0 {
		t.Fatal("clean re-eviction did not hit the swap cache")
	}
	if got := k.Swap().Stats(); got.Writes != 1 || got.Reads != 1 {
		t.Fatalf("clean re-eviction moved the image: device %+v", got)
	}
	// Contents must still round-trip.
	if err := k.CopyFromUser(as, addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("data corrupted: %q", got)
	}
	if st := k.Swap().Stats(); st.Writes != 1 || st.Reads != 2 {
		t.Fatalf("second read fault: device %+v, want 1 write, 2 reads", st)
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSwapCacheDirtyRewritesImage(t *testing.T) {
	k := smallKernel()
	as := k.CreateProcess("p", false)
	addr := mmapRW(t, k, as, 1)
	if err := k.CopyToUser(as, addr, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	evictAll(k)
	// Read it back in (cached), then dirty it.
	tmp := make([]byte, 2)
	if err := k.CopyFromUser(as, addr, tmp); err != nil {
		t.Fatal(err)
	}
	if err := k.CopyToUser(as, addr, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	evictAll(k)
	if err := k.CopyFromUser(as, addr, tmp); err != nil {
		t.Fatal(err)
	}
	if string(tmp) != "v2" {
		t.Fatalf("dirty re-eviction lost the update: %q", tmp)
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSwapCacheSlotReleasedOnUnmap(t *testing.T) {
	k := smallKernel()
	as := k.CreateProcess("p", false)
	addr := mmapRW(t, k, as, 2)
	if err := k.Touch(as, addr, 2); err != nil {
		t.Fatal(err)
	}
	evictAll(k)
	buf := make([]byte, 8)
	if err := k.CopyFromUser(as, addr, buf); err != nil { // swap-in, cached
		t.Fatal(err)
	}
	if err := k.Munmap(as, addr, 2); err != nil {
		t.Fatal(err)
	}
	if got := k.Swap().FreeSlots(); got != k.Swap().NumSlots() {
		t.Fatalf("swap slots leaked: %d free of %d", got, k.Swap().NumSlots())
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSwapCacheWriteFaultNotCached(t *testing.T) {
	k := smallKernel()
	as := k.CreateProcess("p", false)
	addr := mmapRW(t, k, as, 1)
	if err := k.Touch(as, addr, 1); err != nil {
		t.Fatal(err)
	}
	evictAll(k)
	// Write fault brings the page in dirty: no cache entry, slot freed.
	if err := k.Touch(as, addr, 1); err != nil {
		t.Fatal(err)
	}
	if got := k.Swap().FreeSlots(); got != k.Swap().NumSlots() {
		t.Fatalf("slot not freed on write-fault swap-in: %d free", got)
	}
	if k.Stats().SwapCacheHit != 0 {
		t.Fatal("unexpected cache hit")
	}
}

// TestFailedSwapInReleasesFrame: a swap-in that cannot read its slot
// (freed behind the kernel's back here; a device error in life) fails
// the fault, and the frame it had already taken for the page goes back
// to the free list — frames are conserved on the error path too.
func TestFailedSwapInReleasesFrame(t *testing.T) {
	k := smallKernel()
	as := k.CreateProcess("p", false)
	addr := mmapRW(t, k, as, 1)
	if err := k.CopyToUser(as, addr, []byte("soon unreadable")); err != nil {
		t.Fatal(err)
	}
	evictAll(k)
	e, err := k.LookupPTE(as, pgtable.PageOf(addr))
	if err != nil || !e.Swapped() {
		t.Fatalf("page not swapped out: pte %v, err %v", e, err)
	}
	if _, err := k.Swap().Free(e.SwapSlot()); err != nil {
		t.Fatal(err)
	}
	free := k.FreePages()
	for _, write := range []bool{false, true} {
		if err := k.HandleFault(as, addr, write); !errors.Is(err, swapdev.ErrFreeSlot) {
			t.Fatalf("fault (write=%v) on a page whose slot is gone: %v", write, err)
		}
		if got := k.FreePages(); got != free {
			t.Fatalf("failed swap-in (write=%v) leaked frames: %d free, %d before", write, got, free)
		}
		if err := k.Phys().CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
