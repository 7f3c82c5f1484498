// Package phys simulates the physical memory of one node: a fixed number
// of 4 KiB frames backed by real bytes, plus the Linux-style page map
// (mem_map) holding per-frame reference counts and PG_* flags.
//
// Everything the paper's analysis hinges on lives here:
//
//   - page->count semantics: __free_page decrements the count and only a
//     count of zero returns the frame to the free list, so a frame whose
//     count was raised by a sloppy "locking" scheme is orphaned — still
//     allocated, but no longer mapped by anyone — instead of being pinned;
//   - PG_locked / PG_reserved: frames carrying either flag are skipped by
//     both the clock scan (shrink_mmap) and the swap-out path;
//   - Pins: the kernel-internal pin count maintained exclusively by the
//     kiobuf facility (package kiobuf).  Drivers never touch it directly;
//     that is precisely the paper's point.
//
// DMA by the simulated NIC goes through ReadPhys/WritePhys/CopyFrom using
// raw physical addresses, bypassing all page tables — as bus-master DMA
// does.
//
// A frame's bytes are a reference to a PageData.  The swap path moves
// those references between frames and swap slots (PutHandOff,
// AllocFrameWith) instead of copying 4 KiB each way; the model — PFNs,
// physical addresses, the page map — does not see the difference.  The
// pages themselves come from OwnPages, which allocates them in chunks
// when a frame is first allocated, so RAM the simulation never uses costs
// the host nothing.
package phys

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
)

// Fault-injection sites the memory system guards.
const (
	// SiteRead guards bus-master frame reads (ReadPhys).
	SiteRead = "phys.read"
	// SiteWrite guards bus-master frame writes (WritePhys).
	SiteWrite = "phys.write"
)

// Page geometry.  4 KiB pages as on IA-32, the paper's primary target.
const (
	PageShift = 12
	PageSize  = 1 << PageShift // 4096
	PageMask  = PageSize - 1
)

// PageData is the content of one page.  Frames and swap slots each hold
// one by reference.
type PageData [PageSize]byte

// Addr is a physical byte address.
type Addr uint64

// PFN is a physical frame number.
type PFN uint32

// NoPFN is the sentinel for "no frame".
const NoPFN PFN = ^PFN(0)

// Addr returns the physical byte address of the start of the frame.
func (p PFN) Addr() Addr { return Addr(p) << PageShift }

// FrameOf returns the frame containing the physical address.
func FrameOf(a Addr) PFN { return PFN(a >> PageShift) }

// PageFlags mirrors the relevant mem_map_t flag bits.
type PageFlags uint32

const (
	// PGLocked marks a page locked for kernel I/O.  The swap path and the
	// clock scan leave such pages untouched.  The flag is owned by the
	// kernel I/O layer; a driver setting or clearing it behind the
	// kernel's back is the "risky and unclean" Giganet approach.
	PGLocked PageFlags = 1 << iota
	// PGReserved marks pages not available to the memory system at all.
	PGReserved
	// PGDirty marks pages modified since the last writeback.
	PGDirty
	// PGReferenced is the clock algorithm's second-chance bit.
	PGReferenced
	// PGSwapCache marks a page that also lives in the swap cache.
	PGSwapCache
)

func (f PageFlags) String() string {
	s := ""
	add := func(bit PageFlags, name string) {
		if f&bit != 0 {
			if s != "" {
				s += "|"
			}
			s += name
		}
	}
	add(PGLocked, "locked")
	add(PGReserved, "reserved")
	add(PGDirty, "dirty")
	add(PGReferenced, "referenced")
	add(PGSwapCache, "swapcache")
	if s == "" {
		return "-"
	}
	return s
}

// Page is a copy of one entry of the page map (the mem_map_t of the
// paper's §2.1), as PageInfo returns it.
type Page struct {
	// Count is the reference count.  Zero means the frame is free.
	Count int32
	// Flags holds the PG_* bits.
	Flags PageFlags
	// Pins is the kernel-maintained pin count (kiobuf mappings).  A frame
	// with Pins > 0 is never reclaimed or swapped.  Only package kiobuf
	// writes this field, via the Pin/Unpin methods.
	Pins int32
}

// page is the live page-map entry.  Like Linux's mem_map it is read and
// written with atomic operations, not under a lock.  refs packs Count
// (low 32 bits) and Pins (high 32 bits) into one word so the rules that
// span both — no pin on a free frame, no free with pins outstanding —
// are decided by a single compare-and-swap.
type page struct {
	refs  atomic.Uint64
	flags atomic.Uint32
}

const (
	oneRef = 1
	onePin = 1 << 32
)

// unpack splits a refs word into Count and Pins.
func unpack(r uint64) (count, pins int32) { return int32(uint32(r)), int32(r >> 32) }

// Stats aggregates allocator activity for the experiments.
type Stats struct {
	Allocs      uint64 // successful frame allocations
	Frees       uint64 // frames returned to the free list
	FailedAlloc uint64 // allocations that found the free list empty
}

// Memory is the physical memory of one simulated node.
type Memory struct {
	// inj is the attached fault injector (nil in production: the DMA
	// paths pay one atomic load + branch).
	inj atomic.Pointer[faultinject.Injector]

	// data is each frame's page, nil until the frame's own page is
	// materialized: when the frame is allocated, or first reached by
	// DMA.  It changes owner only while the frame has one owner: at
	// allocation (AllocFrameWith) and at the free that hands it off
	// (PutHandOff).
	data  []atomic.Pointer[PageData]
	own   OwnPages
	pages []page // the page map; never moves
	size  Addr   // nframes * PageSize: the first address past the end

	// mu guards the free list and the statistics.  Every transition of a
	// Count to or from zero happens under it, so "Count == 0" and "on
	// the free list" can never be seen to disagree by CheckInvariants.
	mu    sync.Mutex
	free  []PFN // LIFO free list
	stats Stats
}

// SetFaultInjector attaches (or, with nil, detaches) a fault injector
// guarding the bus-master paths (SiteRead, SiteWrite).
func (m *Memory) SetFaultInjector(inj *faultinject.Injector) { m.inj.Store(inj) }

// Errors returned by the allocator and accessors.
var (
	ErrOutOfMemory = errors.New("phys: out of memory")
	ErrBadPFN      = errors.New("phys: bad frame number")
	ErrBadAddr     = errors.New("phys: physical address out of range")
	ErrFrameFree   = errors.New("phys: operation on free frame")
	// ErrPinnedFree reports a frame whose last reference went while
	// pins were outstanding: a broken locking strategy.
	ErrPinnedFree = errors.New("phys: refcount reached zero with pins outstanding")
	// ErrNotPinned reports an unpin of a frame with no pins.
	ErrNotPinned = errors.New("phys: unpin of a frame with no pins")
)

// New creates a node with nframes physical frames, all free.
func New(nframes int) *Memory {
	if nframes <= 0 {
		panic("phys: nframes must be positive")
	}
	m := &Memory{
		data:  make([]atomic.Pointer[PageData], nframes),
		own:   NewOwnPages(nframes),
		pages: make([]page, nframes),
		size:  Addr(nframes) << PageShift,
		free:  make([]PFN, 0, nframes),
	}
	// Hand out low frames first: push in reverse so the LIFO pops 0,1,2…
	for i := nframes - 1; i >= 0; i-- {
		m.free = append(m.free, PFN(i))
	}
	return m
}

// NumFrames reports the total number of frames.
func (m *Memory) NumFrames() int { return len(m.pages) }

// FreeFrames reports how many frames are currently on the free list.
func (m *Memory) FreeFrames() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.free)
}

// Stats returns a snapshot of allocator statistics.
func (m *Memory) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// AllocFrame takes a frame off the free list with Count=1 and cleared
// flags.  It fails with ErrOutOfMemory when the free list is empty —
// reclaim is the caller's job (mm.GetFreePage wraps this with
// try_to_free_pages, exactly like get_free_pages in the kernel).
func (m *Memory) AllocFrame() (PFN, error) {
	m.mu.Lock()
	pfn, fresh, err := m.alloc()
	m.mu.Unlock()
	if err == nil && !fresh {
		// Zero the frame: get_free_page hands out zeroed memory.  The
		// frame is the caller's alone by now, so this needs no lock.  A
		// page materialized by the allocation is still as Go zeroed it.
		clear(m.data[pfn].Load()[:])
	}
	return pfn, err
}

// AllocFrameWith is AllocFrame for a frame that is about to hold an image
// that already exists (a swap-in): the frame takes pg as its page instead
// of being zero-filled, and the page it displaced is returned to the
// caller, who owns it from then on.
func (m *Memory) AllocFrameWith(pg *PageData) (PFN, *PageData, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	pfn, _, err := m.alloc()
	if err != nil {
		return NoPFN, nil, err
	}
	return pfn, m.exchange(pfn, pg), nil
}

// alloc takes a frame off the free list with Count=1 and cleared flags,
// and materializes its page; fresh reports that the page was materialized
// just now, and so is zero.  The caller holds m.mu.
func (m *Memory) alloc() (pfn PFN, fresh bool, err error) {
	if len(m.free) == 0 {
		m.stats.FailedAlloc++
		return NoPFN, false, ErrOutOfMemory
	}
	pfn = m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	if m.data[pfn].Load() == nil {
		_, fresh = m.materialize(pfn)
	}
	pg := &m.pages[pfn]
	pg.flags.Store(0)
	pg.refs.Store(oneRef)
	m.stats.Allocs++
	return pfn, fresh, nil
}

// Get increments the frame's reference count (get_page).
func (m *Memory) Get(pfn PFN) error { return m.addRef(pfn, oneRef, "get") }

// addRef adds oneRef or onePin to the refs word of a frame in use.
func (m *Memory) addRef(pfn PFN, delta uint64, op string) error {
	pg, err := m.page(pfn)
	if err != nil {
		return err
	}
	for {
		r := pg.refs.Load()
		if uint32(r) == 0 {
			return fmt.Errorf("%w: %s on pfn %d", ErrFrameFree, op, pfn)
		}
		if pg.refs.CompareAndSwap(r, r+delta) {
			return nil
		}
	}
}

// Put decrements the frame's reference count (__free_page) and returns
// the frame to the free list when the count reaches zero.  It reports
// whether the frame was actually freed.
//
// This is the exact behaviour the locktest experiment exploits: a frame
// whose count was raised stays allocated after the swap path "frees" it,
// so it is never reused — but it is no longer mapped either.
func (m *Memory) Put(pfn PFN) (freed bool, err error) {
	freed, _, err = m.put(pfn, nil)
	return freed, err
}

// PutHandOff is Put for the swap path's victim.  When it drops the last
// reference, the frame goes back to the free list holding spare, and the
// page it held — the image being evicted — is returned: it changes owner
// instead of being copied.  When the frame does not free (a count raised
// by a refcount-only "lock", a second mapper, or an error), it returns
// nil and the frame keeps its page, so the caller must copy the image.
func (m *Memory) PutHandOff(pfn PFN, spare *PageData) (*PageData, error) {
	_, pg, err := m.put(pfn, spare)
	return pg, err
}

// put drops one reference; when that frees the frame and spare is set,
// the frame's page is exchanged for spare in the same critical section.
func (m *Memory) put(pfn PFN, spare *PageData) (freed bool, taken *PageData, err error) {
	pg, err := m.page(pfn)
	if err != nil {
		return false, nil, err
	}
	for {
		r := pg.refs.Load()
		count, pins := unpack(r)
		switch {
		case count <= 0:
			return false, nil, fmt.Errorf("%w: put on pfn %d", ErrFrameFree, pfn)
		case count > 1:
			if pg.refs.CompareAndSwap(r, r-oneRef) {
				return false, nil, nil
			}
		case pins != 0:
			// A pinned frame must always hold a reference; reaching zero
			// with pins outstanding indicates a broken locking strategy.
			// The count is left at one so the invariant checker can see it.
			return false, nil, fmt.Errorf("%w: pfn %d, %d pins", ErrPinnedFree, pfn, pins)
		default:
			m.mu.Lock()
			freed = pg.refs.CompareAndSwap(r, 0)
			if freed {
				pg.flags.Store(0)
				if spare != nil {
					taken = m.exchange(pfn, spare)
				}
				m.free = append(m.free, pfn)
				m.stats.Frees++
			}
			m.mu.Unlock()
			if freed {
				return true, taken, nil
			}
		}
	}
}

// RefCount reports the frame's reference count.
func (m *Memory) RefCount(pfn PFN) int32 { return m.peek(pfn).Count }

// Flags reports the frame's PG_* flags.
func (m *Memory) Flags(pfn PFN) PageFlags { return m.peek(pfn).Flags }

// SetFlags ors the given flags into the frame's flag word.
// Note: offering this unconditionally is deliberate — it is the unchecked
// interface the Giganet-style driver abuses.  The kernel-internal users go
// through the same entry point but follow the ownership protocol.
func (m *Memory) SetFlags(pfn PFN, f PageFlags) error { return m.updateFlags(pfn, f, 0) }

// ClearFlags removes the given flags from the frame's flag word.
func (m *Memory) ClearFlags(pfn PFN, f PageFlags) error { return m.updateFlags(pfn, 0, f) }

func (m *Memory) updateFlags(pfn PFN, set, clr PageFlags) error {
	pg, err := m.page(pfn)
	if err != nil {
		return err
	}
	for {
		old := pg.flags.Load()
		if pg.flags.CompareAndSwap(old, (old|uint32(set))&^uint32(clr)) {
			return nil
		}
	}
}

// TestFlags reports whether all of the given flags are set on the frame.
func (m *Memory) TestFlags(pfn PFN, f PageFlags) bool { return m.Flags(pfn)&f == f }

// Pin increments the kernel pin count of the frame.  Pinned frames are
// excluded from reclaim and swap.  Only the kiobuf facility calls this.
func (m *Memory) Pin(pfn PFN) error { return m.addRef(pfn, onePin, "pin") }

// Unpin decrements the kernel pin count of the frame.
func (m *Memory) Unpin(pfn PFN) error {
	pg, err := m.page(pfn)
	if err != nil {
		return err
	}
	for {
		r := pg.refs.Load()
		if int32(r>>32) <= 0 {
			return fmt.Errorf("%w: pfn %d", ErrNotPinned, pfn)
		}
		if pg.refs.CompareAndSwap(r, r-onePin) {
			return nil
		}
	}
}

// Pins reports the frame's kernel pin count.
func (m *Memory) Pins(pfn PFN) int32 { return m.peek(pfn).Pins }

// Reclaimable reports whether the swap path may take the frame away:
// it must be in use, unpinned, and carry neither PG_locked nor
// PG_reserved.  (The refcount is deliberately NOT consulted here — that
// is the paper's §3.1 finding: swap_out ignores the count and the count
// only matters at the final __free_page.)
func (m *Memory) Reclaimable(pfn PFN) bool {
	pg := m.peek(pfn)
	return pg.Count > 0 && pg.Pins == 0 && pg.Flags&(PGLocked|PGReserved) == 0
}

// PageInfo returns a copy of the page-map entry for inspection.
func (m *Memory) PageInfo(pfn PFN) (Page, error) {
	if _, err := m.page(pfn); err != nil {
		return Page{}, err
	}
	return m.peek(pfn), nil
}

// peek is PageInfo with the zero Page (a free frame) for a
// frame number out of range: plain loads, no lock.
func (m *Memory) peek(pfn PFN) Page {
	if int(pfn) >= len(m.pages) {
		return Page{}
	}
	pg := &m.pages[pfn]
	count, pins := unpack(pg.refs.Load())
	return Page{Count: count, Flags: PageFlags(pg.flags.Load()), Pins: pins}
}

// ReadPhys copies len(buf) bytes starting at physical address a into buf.
// It is the bus-master read path of the simulated NIC: no page tables, no
// protection, no lock (a frame's page changes only while the frame has one
// owner, and DMA cannot reach it then) — concurrent bus masters stream in
// parallel, and ordering between accesses to the same bytes is the
// callers' problem, exactly like real DMA.
func (m *Memory) ReadPhys(a Addr, buf []byte) error {
	if inj := m.inj.Load(); inj != nil {
		if err := inj.Check(faultinject.Op{Site: SiteRead, Key: uint64(a), N: len(buf)}); err != nil {
			return err
		}
	}
	if !m.inRange(a, len(buf)) {
		return ErrBadAddr
	}
	for len(buf) > 0 {
		k := copy(buf, m.run(a, len(buf)))
		buf, a = buf[k:], a+Addr(k)
	}
	return nil
}

// WritePhys copies buf to physical address a.  The bus-master write path,
// lock-free like ReadPhys.
func (m *Memory) WritePhys(a Addr, buf []byte) error {
	if inj := m.inj.Load(); inj != nil {
		if err := inj.Check(faultinject.Op{Site: SiteWrite, Key: uint64(a), N: len(buf)}); err != nil {
			return err
		}
	}
	if !m.inRange(a, len(buf)) {
		return ErrBadAddr
	}
	for len(buf) > 0 {
		k := copy(m.run(a, len(buf)), buf)
		buf, a = buf[k:], a+Addr(k)
	}
	return nil
}

// CopyFrom copies n bytes at physical address src of sm to physical
// address dst of m (sm may be m): the bus-master path of a NIC streaming
// between two nodes' pinned frames, with no host buffer in between.  It
// is ReadPhys on sm and WritePhys on m in one step — sm's SiteRead guard,
// then m's SiteWrite guard, both bounds checks, and nothing moves unless
// all four pass.  When sm is m the two ranges must not overlap: the copy
// goes page run by page run, front to back, so an overlapping transfer
// must be staged through a host buffer (as via's loopback path does).
func (m *Memory) CopyFrom(dst Addr, sm *Memory, src Addr, n int) error {
	if inj := sm.inj.Load(); inj != nil {
		if err := inj.Check(faultinject.Op{Site: SiteRead, Key: uint64(src), N: n}); err != nil {
			return err
		}
	}
	if inj := m.inj.Load(); inj != nil {
		if err := inj.Check(faultinject.Op{Site: SiteWrite, Key: uint64(dst), N: n}); err != nil {
			return err
		}
	}
	return m.copyRuns(dst, sm, src, n)
}

// CopyPhys copies n bytes from physical address src to physical address
// dst within this memory (page-copy, COW, bounce buffers).  The ranges
// must not overlap, as for CopyFrom.
func (m *Memory) CopyPhys(dst, src Addr, n int) error { return m.copyRuns(dst, m, src, n) }

// copyRuns is CopyFrom after the guards: one copy per stretch that is one
// piece of host memory on both sides.
func (m *Memory) copyRuns(dst Addr, sm *Memory, src Addr, n int) error {
	if !sm.inRange(src, n) || !m.inRange(dst, n) {
		return ErrBadAddr
	}
	for n > 0 {
		k := copy(m.run(dst, n), sm.run(src, n))
		dst, src, n = dst+Addr(k), src+Addr(k), n-k
	}
	return nil
}

// inRange reports whether the n bytes at physical address a all lie in
// this memory, in unsigned arithmetic that no address or length overflows.
func (m *Memory) inRange(a Addr, n int) bool {
	return n >= 0 && Addr(n) <= m.size && a <= m.size-Addr(n)
}

// run returns the longest prefix of the n bytes at physical address a that
// is one piece of host memory: the rest of the frame's page, extended from
// frame to frame within the frame's chunk for as long as each still holds
// its own page.  A memory that never swapped therefore copies an extent in
// one copy per chunk it touches (five for 1 MiB at most).  A frame never
// allocated has its page materialized here, so raw DMA to it works.
func (m *Memory) run(a Addr, n int) []byte {
	pfn, off := FrameOf(a), int(a&PageMask)
	p := m.frame(pfn)
	if off+n <= PageSize {
		return p[off : off+n]
	}
	c, j := m.own.chunks[pfn/chunkPages].Load(), int(pfn%chunkPages)
	if p != c.page(j) {
		return p[off:]
	}
	start := j<<PageShift + off
	end := min(start+n, len(c))
	next := (j + 1) << PageShift
	for next < end && m.frame(pfn-PFN(j)+PFN(next>>PageShift)) == c.page(next>>PageShift) {
		next += PageSize
	}
	return c[start:min(next, end)]
}

// frame returns the page frame pfn holds, materializing its own page if
// it holds none.
func (m *Memory) frame(pfn PFN) *PageData {
	if p := m.data[pfn].Load(); p != nil {
		return p
	}
	p, _ := m.materialize(pfn)
	return p
}

// materialize makes a frame that holds no page hold its own, and returns
// the page the frame holds.  fresh reports that this call installed it,
// so it is still as Go zeroed it: an own page is written only once its
// frame holds it.  Concurrent callers (racing first DMA touches) agree
// through compare-and-swap on the chunk, then on the frame's reference.
func (m *Memory) materialize(pfn PFN) (p *PageData, fresh bool) {
	own := m.own.Get(int(pfn))
	if m.data[pfn].CompareAndSwap(nil, own) {
		return own, true
	}
	return m.data[pfn].Load(), false
}

// exchange makes frame pfn hold p and returns the page it held,
// materializing the frame first.  p must not be nil: a nil would claim
// the frame's own page back while someone else may hold it.
func (m *Memory) exchange(pfn PFN, p *PageData) *PageData {
	if p == nil {
		panic("phys: hand-off of a nil page")
	}
	m.frame(pfn)
	return m.data[pfn].Swap(p)
}

// FrameBytes returns the bytes of a frame's page, for CPU access to a
// frame its caller owns: user copies, and the swap device's copies of
// images that cannot change owner.  The slice stays the frame's only
// while the caller owns the frame under the kernel lock: once the frame
// is freed its page may move to a swap slot.  An allocated frame's page
// was materialized by the allocation; a free frame's is materialized
// here if it never was.
func (m *Memory) FrameBytes(pfn PFN) ([]byte, error) {
	if _, err := m.page(pfn); err != nil {
		return nil, err
	}
	return m.frame(pfn)[:], nil
}

// AppendPages appends each frame's PageRef to dst in frame order: the view
// of this memory that the page-conservation audit (CheckConservation)
// checks.  A frame never allocated nor reached by DMA holds a nil page.
func (m *Memory) AppendPages(dst []PageRef) []PageRef {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.data {
		// Held before Own: a frame materialized meanwhile reads as
		// (nil, own) or (own, own), never as a page without its chunk.
		held := m.data[i].Load()
		dst = append(dst, PageRef{Held: held, Own: m.own.Peek(i)})
	}
	return dst
}

// CheckInvariants validates the global page-map invariants and returns a
// descriptive error on the first violation.  Property tests call it after
// every randomized operation sequence.
func (m *Memory) CheckInvariants() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	onFree := make(map[PFN]bool, len(m.free))
	for _, pfn := range m.free {
		if onFree[pfn] {
			return fmt.Errorf("phys: pfn %d on free list twice", pfn)
		}
		onFree[pfn] = true
	}
	for i := range m.pages {
		count, pins := unpack(m.pages[i].refs.Load())
		pfn := PFN(i)
		switch {
		case count < 0:
			return fmt.Errorf("phys: pfn %d negative refcount %d", pfn, count)
		case pins < 0:
			return fmt.Errorf("phys: pfn %d negative pin count %d", pfn, pins)
		case pins > 0 && count == 0:
			return fmt.Errorf("phys: pfn %d pinned but free", pfn)
		case count == 0 && !onFree[pfn]:
			return fmt.Errorf("phys: pfn %d count==0 but not on free list", pfn)
		case count > 0 && onFree[pfn]:
			return fmt.Errorf("phys: pfn %d count==%d but on free list", pfn, count)
		}
	}
	return nil
}

// page validates a PFN and returns its page-map entry.
func (m *Memory) page(pfn PFN) (*page, error) {
	if int(pfn) >= len(m.pages) {
		return nil, fmt.Errorf("%w: %d (of %d)", ErrBadPFN, pfn, len(m.pages))
	}
	return &m.pages[pfn], nil
}
