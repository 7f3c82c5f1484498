// Package swapdev simulates a swap partition: a fixed number of slots,
// each holding one page, with allocation and per-slot use counts (a swap
// entry can be shared after fork, so slots are reference counted like the
// kernel's swap_map).  Slot pages come from phys.OwnPages, so host memory
// is allocated — a 256 KiB chunk at a time — only when a slot first holds
// an image.
//
// Store and Load are the device write of a swap-out and the device read of
// a swap-in.  Where ownership of the image can move — the evicted frame
// frees, or the faulting process releases the slot — they exchange pages
// with the frame instead of copying 4 KiB; where it cannot (the frame
// stays allocated, the slot stays allocated) they copy.
package swapdev

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/phys"
)

// Slot identifies one page-sized slot on the swap device.
type Slot uint32

// NoSlot is the sentinel for "no slot".
const NoSlot Slot = ^Slot(0)

// Stats aggregates device activity.
type Stats struct {
	Writes uint64 // pages written out
	Reads  uint64 // pages read back
	Allocs uint64 // slots allocated
	Frees  uint64 // slots released
}

// Device is a simulated swap partition.
type Device struct {
	mu sync.Mutex
	// pages is each slot's page, free slots included; nil until the
	// slot's own page is materialized (slot).  Only d.mu guards it: no
	// bus master reaches a slot.
	pages    []*phys.PageData
	own      phys.OwnPages
	useCount []int32 // swap_map: 0 = free
	free     []Slot
	stats    Stats
}

// Errors returned by the device.
var (
	ErrFull     = errors.New("swapdev: no free swap slots")
	ErrBadSlot  = errors.New("swapdev: bad slot")
	ErrFreeSlot = errors.New("swapdev: operation on free slot")
)

// New creates a device with nslots slots, all free, none of whose pages
// is materialized yet.
func New(nslots int) *Device {
	if nslots <= 0 {
		panic("swapdev: invalid geometry")
	}
	d := &Device{
		pages:    make([]*phys.PageData, nslots),
		own:      phys.NewOwnPages(nslots),
		useCount: make([]int32, nslots),
		free:     make([]Slot, 0, nslots),
	}
	for i := nslots - 1; i >= 0; i-- {
		d.free = append(d.free, Slot(i))
	}
	return d
}

// NumSlots reports the device capacity in pages.
func (d *Device) NumSlots() int { return len(d.useCount) }

// FreeSlots reports the number of unallocated slots.
func (d *Device) FreeSlots() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.free)
}

// Stats returns a snapshot of device statistics.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Alloc reserves a slot with use count 1.
func (d *Device) Alloc() (Slot, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.free) == 0 {
		return NoSlot, ErrFull
	}
	s := d.free[len(d.free)-1]
	d.free = d.free[:len(d.free)-1]
	d.useCount[s] = 1
	d.stats.Allocs++
	return s, nil
}

// Dup increments the slot's use count (swap_duplicate, used by fork).
func (d *Device) Dup(s Slot) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(s); err != nil {
		return err
	}
	d.useCount[s]++
	return nil
}

// Free decrements the slot's use count (swap_free) and releases the slot
// when it reaches zero.  It reports whether the slot was released.
func (d *Device) Free(s Slot) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(s); err != nil {
		return false, err
	}
	return d.put(s), nil
}

// put is Free after the check.
func (d *Device) put(s Slot) bool {
	d.useCount[s]--
	if d.useCount[s] != 0 {
		return false
	}
	d.free = append(d.free, s)
	d.stats.Frees++
	return true
}

// UseCount reports a slot's use count (0 = free).
func (d *Device) UseCount(s Slot) int32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(s) >= len(d.useCount) {
		return 0
	}
	return d.useCount[s]
}

// Store writes the image of frame pfn of m to slot s and drops the
// caller's reference to the frame (__free_page), in one critical section.
// When that frees the frame, the frame's page becomes the slot's and the
// slot's old page the free frame's (m.PutHandOff): no byte is copied.
// When the frame stays allocated — a count raised by a refcount-only
// "lock", another process still mapping it — the frame keeps its bytes
// and the slot gets a copy.  Store fails only for a bad slot or frame, and
// then changes nothing.
func (d *Device) Store(s Slot, m *phys.Memory, pfn phys.PFN) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(s); err != nil {
		return err
	}
	fb, err := m.FrameBytes(pfn)
	if err != nil {
		return err
	}
	// A Put that fails (the frame is already free, or pinned at its last
	// reference — a broken locking strategy) hands nothing over, as the
	// __free_page after a device write would, and the image is copied.
	if pg, _ := m.PutHandOff(pfn, d.slot(s)); pg != nil {
		d.pages[s] = pg
	} else {
		copy(d.slot(s)[:], fb)
	}
	d.stats.Writes++
	return nil
}

// Load reads slot s into a fresh frame of m and drops the caller's use of
// the slot — except that with keep set and the caller the slot's only
// user, the slot stays allocated as the frame's swap-cache image and kept
// is true.  A load that releases the slot hands the slot's page to the
// frame (m.AllocFrameWith: no zero fill, no copy) and takes the frame's
// displaced page in the same critical section that frees the slot.  Any
// other load — a kept image, a slot fork still shares — copies into a
// zero-filled frame.  A failed allocation (phys.ErrOutOfMemory) leaves the
// slot as it was, so the caller can reclaim and retry.
func (d *Device) Load(s Slot, m *phys.Memory, keep bool) (pfn phys.PFN, kept bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(s); err != nil {
		return phys.NoPFN, false, err
	}
	sole := d.useCount[s] == 1
	if sole && !keep {
		pfn, displaced, err := m.AllocFrameWith(d.slot(s))
		if err != nil {
			return phys.NoPFN, false, err
		}
		d.pages[s] = displaced
		d.put(s)
		d.stats.Reads++
		return pfn, false, nil
	}
	if pfn, err = m.AllocFrame(); err != nil {
		return phys.NoPFN, false, err
	}
	fb, _ := m.FrameBytes(pfn) // a frame AllocFrame returned is in range
	copy(fb, d.slot(s)[:])
	d.stats.Reads++
	if sole {
		return pfn, true, nil
	}
	d.put(s)
	return pfn, false, nil
}

// AppendPages appends each slot's PageRef to dst in slot order, free slots
// included: the view of the device that the page-conservation audit
// (phys.CheckConservation) checks.  A slot that never held an image holds
// a nil page.
func (d *Device) AppendPages(dst []phys.PageRef) []phys.PageRef {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, p := range d.pages {
		dst = append(dst, phys.PageRef{Held: p, Own: d.own.Peek(i)})
	}
	return dst
}

// slot returns the page slot s holds, materializing its own page if it
// holds none, so that a hand-off never exchanges a nil.
func (d *Device) slot(s Slot) *phys.PageData {
	if d.pages[s] == nil {
		d.pages[s] = d.own.Get(int(s))
	}
	return d.pages[s]
}

// CheckInvariants validates slot accounting.
func (d *Device) CheckInvariants() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	onFree := make(map[Slot]bool, len(d.free))
	for _, s := range d.free {
		if onFree[s] {
			return fmt.Errorf("swapdev: slot %d on free list twice", s)
		}
		onFree[s] = true
	}
	for i, uc := range d.useCount {
		s := Slot(i)
		switch {
		case uc < 0:
			return fmt.Errorf("swapdev: slot %d negative use count %d", s, uc)
		case uc == 0 && !onFree[s]:
			return fmt.Errorf("swapdev: slot %d free but not on free list", s)
		case uc > 0 && onFree[s]:
			return fmt.Errorf("swapdev: slot %d in use but on free list", s)
		}
	}
	return nil
}

func (d *Device) check(s Slot) error {
	if int(s) >= len(d.useCount) {
		return fmt.Errorf("%w: %d (of %d)", ErrBadSlot, s, len(d.useCount))
	}
	if d.useCount[s] == 0 {
		return fmt.Errorf("%w: %d", ErrFreeSlot, s)
	}
	return nil
}
