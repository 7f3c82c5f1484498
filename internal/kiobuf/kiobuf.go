// Package kiobuf implements the kernel I/O buffer facility the paper
// proposes as the reliable locking mechanism (§4): MapUserKiobuf pages a
// user buffer in, pins every page through the kernel's own accounting,
// and hands the driver the physical page list — so the driver neither
// walks page tables nor touches page flags, multiple mappings of the
// same range nest naturally (one kiobuf per mapping), and no privilege
// is required.
package kiobuf

import (
	"errors"
	"fmt"

	"repro/internal/mm"
	"repro/internal/pgtable"
	"repro/internal/phys"
)

// Kiobuf describes one mapped user buffer.  It corresponds to the
// kernel's struct kiobuf: an offset into the first page, a total length,
// and the list of pinned physical pages covering the range.
type Kiobuf struct {
	kernel *mm.Kernel
	as     *mm.AddressSpace

	// Offset is the byte offset of the buffer start within Pages[0].
	Offset int
	// Length is the buffer length in bytes.
	Length int
	// Pages are the pinned frames covering the buffer, in order.
	Pages []phys.PFN

	mapped bool
	// nested records that the map was made from inside the kernel
	// (MapNested), so the unmap must not charge a crossing
	// either.
	nested bool
}

// Errors returned by the facility.
var (
	ErrNotMapped = errors.New("kiobuf: buffer not mapped")
	ErrMapped    = errors.New("kiobuf: buffer already mapped")
	ErrEmpty     = errors.New("kiobuf: empty range")
)

// PageCount returns how many pages the buffer spans.
func PageCount(addr pgtable.VAddr, length int) int {
	if length <= 0 {
		return 0
	}
	first := pgtable.PageOf(addr)
	last := pgtable.PageOf(addr + pgtable.VAddr(length-1))
	return int(last-first) + 1
}

// MapUserKiobuf maps [addr, addr+length) of the process into a new
// kiobuf, faulting the pages in and pinning them.  Each call returns an
// independent kiobuf holding its own pins, so N mappings of the same
// range require N unmaps before the pages become evictable again —
// exactly the nesting the VIA specification demands of registrations.
func MapUserKiobuf(k *mm.Kernel, as *mm.AddressSpace, addr pgtable.VAddr, length int) (*Kiobuf, error) {
	b := new(Kiobuf)
	if err := b.Map(k, as, addr, length); err != nil {
		return nil, err
	}
	return b, nil
}

// Map is MapUserKiobuf into a kiobuf the caller owns (a driver keeps it
// inside its registration record).  The kiobuf must not be mapped.
func (b *Kiobuf) Map(k *mm.Kernel, as *mm.AddressSpace, addr pgtable.VAddr, length int) error {
	return b.mapUser(k, as, addr, length, false)
}

// MapNested is Map for callers already executing inside the kernel (a
// driver servicing an ioctl): the pin batch is identical but no kernel
// crossing is charged on map or on the later Unmap — the caller's own
// entry covers the whole batch.  The page list is the kernel's (see
// mm.Kernel.PinUserPagesNested): Unmap hands it back.
func (b *Kiobuf) MapNested(k *mm.Kernel, as *mm.AddressSpace, addr pgtable.VAddr, length int) error {
	return b.mapUser(k, as, addr, length, true)
}

func (b *Kiobuf) mapUser(k *mm.Kernel, as *mm.AddressSpace, addr pgtable.VAddr, length int, nested bool) error {
	if b.mapped {
		return ErrMapped
	}
	if length <= 0 {
		return ErrEmpty
	}
	n := PageCount(addr, length)
	pin := k.PinUserPages
	if nested {
		pin = k.PinUserPagesNested
	}
	pfns, err := pin(as, addr, n, true)
	if err != nil {
		return fmt.Errorf("kiobuf: map_user_kiobuf: %w", err)
	}
	*b = Kiobuf{
		kernel: k,
		as:     as,
		Offset: pgtable.Offset(addr),
		Length: length,
		Pages:  pfns,
		mapped: true,
		nested: nested,
	}
	return nil
}

// Unmap releases the kiobuf's pins (unmap_kiobuf).  It is an error to
// unmap twice.
func (b *Kiobuf) Unmap() error {
	if !b.mapped {
		return ErrNotMapped
	}
	b.mapped = false
	unpin := b.kernel.UnpinUserPages
	if b.nested {
		unpin = b.kernel.UnpinUserPagesNested
	}
	err := unpin(b.Pages)
	b.Pages = nil
	return err
}

// Mapped reports whether the kiobuf still holds its pins.
func (b *Kiobuf) Mapped() bool { return b.mapped }

// PhysAddr translates a byte offset within the buffer to the physical
// address, using only the kiobuf's own page list — no page-table access.
func (b *Kiobuf) PhysAddr(off int) (phys.Addr, error) {
	if !b.mapped {
		return 0, ErrNotMapped
	}
	if off < 0 || off >= b.Length {
		return 0, fmt.Errorf("kiobuf: offset %d outside buffer of %d bytes", off, b.Length)
	}
	abs := b.Offset + off
	page := abs / phys.PageSize
	return b.Pages[page].Addr() + phys.Addr(abs%phys.PageSize), nil
}
