// Package bigphys implements the pre-kiobuf status quo the companion
// articles describe: the Bigphysarea patch.  A contiguous block of
// physical frames is reserved at boot (marked PG_reserved, invisible to
// the allocator and the swap path), and only memory from this region
// can be exported/registered — so applications must allocate
// communication buffers through a special allocator, and data living in
// ordinary malloc memory must be staged through bounce copies.  That is
// the "violates a major goal of the MPI standard: Architecture
// Independence" problem that motivates the flexible per-page
// translation tables plus reliable locking.
package bigphys

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/mm"
	"repro/internal/phys"
	"repro/internal/simtime"
)

// Errors returned by the area.
var (
	ErrExhausted   = errors.New("bigphys: reserved area exhausted")
	ErrForeign     = errors.New("bigphys: block not from this area")
	ErrBootTooLate = errors.New("bigphys: reservation requires that many free frames at boot")
)

// Area is the boot-reserved contiguous region.
type Area struct {
	kernel *mm.Kernel
	meter  *simtime.Meter

	mu     sync.Mutex
	base   phys.PFN
	frames int
	// free holds [start, len) extents, sorted by start.
	free   []extent
	blocks map[phys.PFN]int // allocated block start -> length
	stats  Stats
}

type extent struct {
	start phys.PFN
	n     int
}

// Stats counts area activity.
type Stats struct {
	Allocs      uint64
	Frees       uint64
	FailedAlloc uint64
	BounceCopy  uint64 // bounce copies into/out of the area
}

// Reserve carves a contiguous region of n frames out of the kernel at
// "boot" (it must still have n contiguous free frames — reserve before
// starting workloads).  The frames are marked PG_reserved: the clock
// scan and the swap path will never touch them, which is the whole — and
// the only — guarantee the scheme offers.
func Reserve(k *mm.Kernel, n int) (*Area, error) {
	if n <= 0 {
		return nil, fmt.Errorf("bigphys: reserve %d frames", n)
	}
	// Allocate n frames and verify contiguity; at boot the free list
	// hands them out in ascending order.
	got := make([]phys.PFN, 0, n)
	for i := 0; i < n; i++ {
		pfn, err := k.Phys().AllocFrame()
		if err != nil {
			for _, p := range got {
				_, _ = k.Phys().Put(p)
			}
			return nil, fmt.Errorf("%w: got %d of %d", ErrBootTooLate, i, n)
		}
		got = append(got, pfn)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i := 1; i < len(got); i++ {
		if got[i] != got[i-1]+1 {
			for _, p := range got {
				_, _ = k.Phys().Put(p)
			}
			return nil, fmt.Errorf("%w: free memory fragmented at boot", ErrBootTooLate)
		}
	}
	for _, p := range got {
		if err := k.Phys().SetFlags(p, phys.PGReserved); err != nil {
			return nil, err
		}
	}
	return &Area{
		kernel: k,
		meter:  k.Meter(),
		base:   got[0],
		frames: n,
		free:   []extent{{start: got[0], n: n}},
		blocks: make(map[phys.PFN]int),
	}, nil
}

// Size reports the area capacity in frames.
func (a *Area) Size() int { return a.frames }

// FreeFrames reports the unallocated frame count.
func (a *Area) FreeFrames() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, e := range a.free {
		n += e.n
	}
	return n
}

// Stats returns a snapshot of area statistics.
func (a *Area) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// Block is one contiguous allocation from the area.
type Block struct {
	area *Area
	// Start is the first frame of the block.
	Start phys.PFN
	// Frames is the block length.
	Frames int
}

// Addr returns the block's physical base address — contiguous by
// construction, which is why the old bridges could use a single
// base+offset window.
func (b *Block) Addr() phys.Addr { return b.Start.Addr() }

// Bytes reports the block length in bytes.
func (b *Block) Bytes() int { return b.Frames * phys.PageSize }

// Alloc carves a contiguous block of n frames out of the area
// (first-fit, like bigphysarea_alloc_pages).
func (a *Area) Alloc(n int) (*Block, error) {
	if n <= 0 {
		return nil, fmt.Errorf("bigphys: alloc %d frames", n)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := range a.free {
		if a.free[i].n >= n {
			start := a.free[i].start
			a.free[i].start += phys.PFN(n)
			a.free[i].n -= n
			if a.free[i].n == 0 {
				a.free = append(a.free[:i], a.free[i+1:]...)
			}
			a.blocks[start] = n
			a.stats.Allocs++
			return &Block{area: a, Start: start, Frames: n}, nil
		}
	}
	a.stats.FailedAlloc++
	return nil, fmt.Errorf("%w: no %d contiguous frames", ErrExhausted, n)
}

// Free returns the block to the area, coalescing neighbours.
func (a *Area) Free(b *Block) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	n, ok := a.blocks[b.Start]
	if !ok || n != b.Frames {
		return ErrForeign
	}
	delete(a.blocks, b.Start)
	a.free = append(a.free, extent{start: b.Start, n: b.Frames})
	sort.Slice(a.free, func(i, j int) bool { return a.free[i].start < a.free[j].start })
	// Coalesce.
	out := a.free[:0]
	for _, e := range a.free {
		if len(out) > 0 && out[len(out)-1].start+phys.PFN(out[len(out)-1].n) == e.start {
			out[len(out)-1].n += e.n
		} else {
			out = append(out, e)
		}
	}
	a.free = out
	a.stats.Frees++
	return nil
}

// Write copies data into the block at off (the "special malloc" usage:
// the application builds its message directly in area memory — or, for
// ordinary buffers, this IS the bounce copy).
func (b *Block) Write(off int, data []byte) error {
	if off < 0 || off+len(data) > b.Bytes() {
		return fmt.Errorf("bigphys: write [%d,+%d) outside block of %d", off, len(data), b.Bytes())
	}
	b.area.mu.Lock()
	b.area.stats.BounceCopy++
	b.area.mu.Unlock()
	b.area.meter.ChargeN(b.area.meter.Costs.PIOPerByte, len(data))
	return b.area.kernel.Phys().WritePhys(b.Addr()+phys.Addr(off), data)
}

// Read copies data out of the block.
func (b *Block) Read(off int, data []byte) error {
	if off < 0 || off+len(data) > b.Bytes() {
		return fmt.Errorf("bigphys: read [%d,+%d) outside block of %d", off, len(data), b.Bytes())
	}
	b.area.mu.Lock()
	b.area.stats.BounceCopy++
	b.area.mu.Unlock()
	b.area.meter.ChargeN(b.area.meter.Costs.PIOPerByte, len(data))
	return b.area.kernel.Phys().ReadPhys(b.Addr()+phys.Addr(off), data)
}

// PFNs returns the block's frames, suitable for NIC registration
// (trivially contiguous).
func (b *Block) PFNs() []phys.PFN {
	out := make([]phys.PFN, b.Frames)
	for i := range out {
		out[i] = b.Start + phys.PFN(i)
	}
	return out
}

// Contains reports whether a physical address lies inside the area —
// the old bridges' only protection check ("accesses are only allowed if
// they fall within the specified window").
func (a *Area) Contains(addr phys.Addr) bool {
	pfn := phys.FrameOf(addr)
	return pfn >= a.base && pfn < a.base+phys.PFN(a.frames)
}
