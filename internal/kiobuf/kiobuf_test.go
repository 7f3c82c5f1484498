package kiobuf

import (
	"errors"
	"testing"

	"repro/internal/mm"
	"repro/internal/pgtable"
	"repro/internal/phys"
	"repro/internal/simtime"
	"repro/internal/vma"
)

func setup(t *testing.T) (*mm.Kernel, *mm.AddressSpace, pgtable.VAddr) {
	t.Helper()
	k := mm.NewKernel(mm.Config{
		RAMPages: 64, SwapPages: 256, ClockBatch: 32, SwapBatch: 8,
	}, simtime.NewMeter())
	as := k.CreateProcess("p", false)
	addr, err := k.MMap(as, 8, vma.Read|vma.Write)
	if err != nil {
		t.Fatal(err)
	}
	return k, as, addr
}

func TestPageCount(t *testing.T) {
	cases := []struct {
		addr pgtable.VAddr
		len  int
		want int
	}{
		{0, 1, 1},
		{0, phys.PageSize, 1},
		{0, phys.PageSize + 1, 2},
		{100, phys.PageSize, 2},   // straddles a boundary
		{phys.PageSize - 1, 2, 2}, // two pages, two bytes
		{0, 3 * phys.PageSize, 3}, //
		{5, 3 * phys.PageSize, 4}, // offset pushes into a 4th page
		{0, 0, 0},                 // empty
		{phys.PageSize - 1, 0, 0}, // empty at boundary
	}
	for _, c := range cases {
		if got := PageCount(c.addr, c.len); got != c.want {
			t.Errorf("PageCount(%#x, %d) = %d, want %d", uint64(c.addr), c.len, got, c.want)
		}
	}
}

func TestMapUnmapBasics(t *testing.T) {
	k, as, addr := setup(t)
	b, err := MapUserKiobuf(k, as, addr+100, 2*phys.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Mapped() {
		t.Fatal("not mapped")
	}
	if len(b.Pages) != 3 {
		t.Fatalf("pages = %d, want 3 (offset straddle)", len(b.Pages))
	}
	if b.Offset != 100 {
		t.Fatalf("offset = %d", b.Offset)
	}
	for _, pfn := range b.Pages {
		if k.Phys().Pins(pfn) != 1 {
			t.Fatalf("pfn %d pins = %d", pfn, k.Phys().Pins(pfn))
		}
	}
	if err := b.Unmap(); err != nil {
		t.Fatal(err)
	}
	if b.Mapped() {
		t.Fatal("still mapped")
	}
	if err := b.Unmap(); !errors.Is(err, ErrNotMapped) {
		t.Fatalf("double unmap err = %v", err)
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyRangeRejected(t *testing.T) {
	k, as, addr := setup(t)
	if _, err := MapUserKiobuf(k, as, addr, 0); !errors.Is(err, ErrEmpty) {
		t.Fatalf("err = %v", err)
	}
	if _, err := MapUserKiobuf(k, as, addr, -5); !errors.Is(err, ErrEmpty) {
		t.Fatalf("err = %v", err)
	}
}

func TestMapOutsideVMAFails(t *testing.T) {
	k, as, addr := setup(t)
	if _, err := MapUserKiobuf(k, as, addr, 20*phys.PageSize); err == nil {
		t.Fatal("map past the VMA succeeded")
	}
	// Nothing must be left pinned after the rollback.
	for i := 0; i < 8; i++ {
		pfn, _ := k.ResidentPFN(as, addr+pgtable.VAddr(i*phys.PageSize))
		if pfn != phys.NoPFN && k.Phys().Pins(pfn) != 0 {
			t.Fatalf("page %d leaked a pin", i)
		}
	}
}

func TestNestingTwoMappings(t *testing.T) {
	// The VIA multiple-registration requirement: each kiobuf holds its
	// own pins, so the pages stay locked until the LAST unmap.
	k, as, addr := setup(t)
	b1, err := MapUserKiobuf(k, as, addr, phys.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := MapUserKiobuf(k, as, addr, phys.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if k.Phys().Pins(b1.Pages[0]) != 2 {
		t.Fatalf("pins = %d", k.Phys().Pins(b1.Pages[0]))
	}
	if err := b1.Unmap(); err != nil {
		t.Fatal(err)
	}
	// Still pinned: eviction must skip it.
	k.SwapOut(16)
	k.SwapOut(16)
	if got, _ := k.ResidentPFN(as, addr); got == phys.NoPFN {
		t.Fatal("page evicted while second kiobuf held it")
	}
	if err := b2.Unmap(); err != nil {
		t.Fatal(err)
	}
	k.SwapOut(16)
	k.SwapOut(16)
	if got, _ := k.ResidentPFN(as, addr); got != phys.NoPFN {
		t.Fatal("page not evictable after all unmaps")
	}
}

func TestMappedPagesSurvivePressure(t *testing.T) {
	k, as, addr := setup(t)
	b, err := MapUserKiobuf(k, as, addr, 4*phys.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Unmap() }()
	before := append([]phys.PFN(nil), b.Pages...)

	// Hammer the node with an allocation far beyond RAM.
	hog := k.CreateProcess("hog", false)
	hogAddr, err := k.MMap(hog, 200, vma.Read|vma.Write)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Touch(hog, hogAddr, 200); err != nil {
		t.Fatal(err)
	}

	for i, pfn := range before {
		got, _ := k.ResidentPFN(as, addr+pgtable.VAddr(i*phys.PageSize))
		if got != pfn {
			t.Fatalf("page %d moved from %d to %d under pressure", i, pfn, got)
		}
	}
}

func TestPhysAddr(t *testing.T) {
	k, as, addr := setup(t)
	b, err := MapUserKiobuf(k, as, addr+50, phys.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Unmap() }()
	// Offset 0 → page 0 at in-page offset 50.
	pa, err := b.PhysAddr(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := b.Pages[0].Addr() + 50; pa != want {
		t.Fatalf("PhysAddr(0) = %#x, want %#x", pa, want)
	}
	// An offset landing in the second page.
	pa, err = b.PhysAddr(phys.PageSize - 50)
	if err != nil {
		t.Fatal(err)
	}
	if want := b.Pages[1].Addr(); pa != want {
		t.Fatalf("PhysAddr = %#x, want start of page 1 %#x", pa, want)
	}
	if _, err := b.PhysAddr(-1); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := b.PhysAddr(b.Length); err == nil {
		t.Fatal("offset == length accepted")
	}
}

func TestPhysAddrMatchesDMAVisibility(t *testing.T) {
	// Write via CPU, read via "DMA" at the kiobuf-provided address.
	k, as, addr := setup(t)
	b, err := MapUserKiobuf(k, as, addr, 2*phys.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Unmap() }()
	msg := []byte("through the TPT")
	off := phys.PageSize - 4 // straddle on purpose? no: keep within page 0 tail
	if err := k.CopyToUser(as, addr+pgtable.VAddr(off), msg[:4]); err != nil {
		t.Fatal(err)
	}
	pa, err := b.PhysAddr(off)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if err := k.Phys().ReadPhys(pa, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg[:4]) {
		t.Fatalf("DMA read %q, want %q", got, msg[:4])
	}
}

func TestUnmapAfterProcessPressureKeepsInvariants(t *testing.T) {
	k, as, addr := setup(t)
	var bufs []*Kiobuf
	var firstPFN phys.PFN
	for i := 0; i < 5; i++ {
		b, err := MapUserKiobuf(k, as, addr, 3*phys.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		firstPFN = b.Pages[0]
		bufs = append(bufs, b)
	}
	for _, b := range bufs {
		if err := b.Unmap(); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := k.Phys().Pins(firstPFN); got != 0 {
		t.Fatalf("unexpected pins remaining: %d", got)
	}
}

// TestMapNestedIntoOwnedKiobuf: a kiobuf the caller owns maps in place,
// refuses a second map while mapped (it would strand the first pins),
// hands its page list back on Unmap, and maps again afterwards — the
// next nested map reusing the list the kernel took back.
func TestMapNestedIntoOwnedKiobuf(t *testing.T) {
	k, as, addr := setup(t)
	var b Kiobuf
	if err := b.MapNested(k, as, addr, 3*phys.PageSize); err != nil {
		t.Fatal(err)
	}
	list, frames := &b.Pages[0], append([]phys.PFN(nil), b.Pages...)
	if err := b.MapNested(k, as, addr, phys.PageSize); !errors.Is(err, ErrMapped) {
		t.Fatalf("second map: err = %v, want ErrMapped", err)
	}
	if err := b.Unmap(); err != nil {
		t.Fatal(err)
	}
	if b.Pages != nil {
		t.Fatal("unmap left the page list behind")
	}
	for _, pfn := range frames {
		if pins := k.Phys().Pins(pfn); pins != 0 {
			t.Fatalf("frame %d still has %d pins", pfn, pins)
		}
	}
	if err := b.MapNested(k, as, addr+phys.PageSize, 2*phys.PageSize); err != nil {
		t.Fatal(err)
	}
	if &b.Pages[0] != list {
		t.Fatal("the next nested map did not reuse the list the kernel took back")
	}
	if err := b.Unmap(); err != nil {
		t.Fatal(err)
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
