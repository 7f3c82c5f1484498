// Package via simulates a Virtual Interface Architecture NIC as the
// paper's companion articles describe it: virtual interfaces (VIs) with
// send/receive work queues and doorbells, descriptor processing, a
// Translation and Protection Table (TPT) holding the physical page
// addresses recorded at registration time, protection tags checked on
// every access, and a DMA engine that reads and writes the node's
// physical memory directly — bypassing all page tables, exactly like
// bus-master DMA.  If the kernel agent's locking is unreliable and the
// pages move, the TPT silently goes stale and DMA touches orphaned
// frames: the failure the paper demonstrates.
package via

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/handledir"
	"repro/internal/phys"
	"repro/internal/slab"
	"repro/internal/trace"
)

// ProtectionTag identifies a protection domain.  Every VI and every TPT
// entry carries one; they must match for an access to proceed.
type ProtectionTag uint32

// InvalidTag is never assigned to a VI.
const InvalidTag ProtectionTag = 0

// MemAttrs are the per-registration access attributes.
type MemAttrs struct {
	// EnableRDMAWrite permits incoming RDMA writes to the region.
	EnableRDMAWrite bool
	// EnableRDMARead permits incoming RDMA reads from the region.
	EnableRDMARead bool
	// NoPin registers the region without pinning its pages (the RegNoPin
	// mode): the kernel remains free to evict them, the TPT tracks a
	// present bit per page, and DMA touching a non-present entry raises
	// an IO page fault instead of silently reading an orphaned frame.
	NoPin bool
}

// MemHandle names a registered memory region on one NIC.  The handle is
// an index into the NIC's region directory; the region in turn owns one
// TPT slot per page.
type MemHandle uint32

// NoMemHandle is the sentinel for "no region".
const NoMemHandle MemHandle = ^MemHandle(0)

// region describes one registered memory region.  A region is immutable
// once published in the directory: the data path reads frames directly
// and never sees a half-built or half-torn-down registration.  Nopin
// invalidation and repair never mutate a published region either — they
// clone it, edit the clone, and publish the clone under the same handle.
type region struct {
	handle MemHandle
	frames []phys.Addr // page-aligned physical frame per page, in order
	offset int         // byte offset of the buffer start within the first page
	length int         // registered length in bytes
	tag    ProtectionTag
	attrs  MemAttrs
	// present holds one valid bit per page for nopin regions; nil for
	// pinned regions, whose translations can never go non-present.
	present []uint64
	// epoch counts invalidate/repair edits of this region.  Speculative
	// DMA snapshots it before copying and revalidates afterwards.
	epoch uint64
}

// pagePresent reports whether page i of the region has a valid
// translation.  Pinned regions (present == nil) always do.
func (r *region) pagePresent(i int) bool {
	return r.present == nil || r.present[i/64]&(1<<uint(i%64)) != 0
}

// clone returns a deep copy of the mutable nopin state (frames and
// present bits) sharing the immutable rest, ready to edit and republish.
func (r *region) clone() *region {
	nr := *r
	nr.frames = append([]phys.Addr(nil), r.frames...)
	if r.present != nil {
		nr.present = append([]uint64(nil), r.present...)
	}
	return &nr
}

// Errors reported by the TPT and the DMA paths.
var (
	ErrTPTFull        = errors.New("via: translation and protection table full")
	ErrBadHandle      = errors.New("via: bad memory handle")
	ErrTagMismatch    = errors.New("via: protection tag mismatch")
	ErrOutOfRegion    = errors.New("via: access outside registered region")
	ErrRDMADisabled   = errors.New("via: RDMA access not enabled on region")
	ErrRegionReleased = errors.New("via: memory handle already deregistered")
	// ErrEmptyRegistration reports a registration of no pages or bytes.
	ErrEmptyRegistration = errors.New("via: empty registration")
	// ErrPinnedRegion reports a present-bit edit of a pinned region,
	// whose translations never go non-present.
	ErrPinnedRegion = errors.New("via: region is pinned")
	// ErrIOPageFault reports DMA touching a nopin TPT entry whose page
	// the host has invalidated (swapped out, unmapped, COW-broken).
	ErrIOPageFault = errors.New("via: IO page fault on non-present translation")
)

// IOPageFaultError carries which page of which region faulted, so the
// host-side handler can fault exactly that page back in and repair the
// entry.  It unwraps to ErrIOPageFault.
type IOPageFaultError struct {
	Handle MemHandle
	Page   int    // page index within the region
	Epoch  uint64 // region epoch at which the fault was observed
}

func (e *IOPageFaultError) Error() string {
	return fmt.Sprintf("via: IO page fault: handle %d page %d (epoch %d)", e.Handle, e.Page, e.Epoch)
}

func (e *IOPageFaultError) Unwrap() error { return ErrIOPageFault }

// tpt is the NIC's translation and protection table plus region
// directory.  The read path (translateRange and friends) is lock-free:
// one directory lookup yields an immutable region, so concurrent DMA
// translations never serialize — against each other or against
// registrations.  Registration, deregistration and nopin
// invalidate/repair serialize on the writer mutex and publish exactly
// the one region they touch, so their cost does not grow with the number
// of live regions.  A translation that loaded a region just before it
// was replaced or removed may still complete against it; see DESIGN.md
// §9 for why that matches hardware.
type tpt struct {
	// inj guards data-path translations (SiteTPT); set through
	// NIC.SetFaultInjector, nil in production.
	inj atomic.Pointer[faultinject.Injector]
	// obs is the attached observer (set through NIC.AttachObs, nil in
	// production).
	obs atomic.Pointer[nicObs]

	// dir is the published directory the data path reads: handle →
	// region.  live counts its regions.
	dir  handledir.Dir[region]
	live atomic.Int64

	// fence orders nopin DMA against invalidation: a transfer into a
	// nopin region holds it shared from before its translation until its
	// last byte is copied, and invalidatePage passes through it
	// exclusively after publishing the cleared present bit — so once an
	// invalidation returns, no DMA that translated the old frame is
	// still touching it.  Pinned regions never take it.
	fence sync.RWMutex

	// mu serializes writers (register/deregister/invalidate/repair) and
	// guards everything below.  The data path never takes it; only the
	// miss slow path does, to distinguish a released handle from one
	// that never existed.
	mu    sync.Mutex
	free  int // slots a registration may take now
	nextH MemHandle
	// grace counts slots of deregistered regions for one writer epoch:
	// a lock-free reader may still be consuming the region it loaded
	// before the removal, so its slots must not be handed to a new
	// registration until the removal has been published and a later
	// writer operation proves time has passed.  Every writer promotes
	// grace → free on entry.
	grace int
	// Regions and their frame lists are carved, never reused: a reader
	// that loaded a region before its removal keeps reading that
	// registration's frames, never another's.
	regions slab.Slab[region]
	frames  slab.Slab[phys.Addr]
}

func newTPT(slots int) *tpt {
	return &tpt{free: slots, nextH: 1}
}

// promoteGraceLocked releases slots parked by an earlier deregister.
// Called on entry to every writer operation: by then the removal of
// their region has long been published, so reuse is safe (the
// epoch-deferred free).
func (t *tpt) promoteGraceLocked() {
	t.free += t.grace
	t.grace = 0
}

// find returns the published region of h, or nil.  The directory may
// hand back a region of a later handle when h's chunk was recycled
// under a stale reader, hence the handle check.
func (t *tpt) find(h MemHandle) *region {
	if r := t.dir.Load(uint32(h)); r != nil && r.handle == h {
		return r
	}
	return nil
}

// lookup resolves a handle to its currently published region (find,
// spelled out so the data path makes one call into the directory).
func (t *tpt) lookup(h MemHandle) (*region, error) {
	if r := t.dir.Load(uint32(h)); r != nil && r.handle == h {
		return r, nil
	}
	return nil, t.missErr(h)
}

// missErr classifies a directory miss.  Handles are issued monotonically
// and never reused, so any handle below nextH was valid once and must
// have been deregistered since — exact classification with no bounded
// tombstone ring to wrap and forget (the ring misclassified every
// handle older than its capacity as ErrBadHandle).  This is the only
// place the read path can touch the writer mutex, and only after it has
// already failed.
func (t *tpt) missErr(h MemHandle) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.missErrLocked(h)
}

func (t *tpt) missErrLocked(h MemHandle) error {
	if h >= 1 && h < t.nextH {
		return fmt.Errorf("%w: %d", ErrRegionReleased, h)
	}
	return fmt.Errorf("%w: %d", ErrBadHandle, h)
}

// register enters the frame list into the TPT and returns a handle;
// offset/length describe the byte range within the frames.  The new
// region is fully built before it is published, so the data path can
// never observe a partial registration.
func (t *tpt) register(pfns []phys.PFN, offset, length int, tag ProtectionTag, attrs MemAttrs) (MemHandle, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.promoteGraceLocked()
	if len(pfns) == 0 || length <= 0 {
		return NoMemHandle, ErrEmptyRegistration
	}
	if t.free < len(pfns) {
		return NoMemHandle, fmt.Errorf("%w: need %d slots, %d free", ErrTPTFull, len(pfns), t.free)
	}
	t.free -= len(pfns)
	r := t.regions.New()
	*r = region{handle: t.nextH, frames: t.frames.Make(len(pfns)), offset: offset, length: length, tag: tag, attrs: attrs}
	t.nextH++
	for i, pfn := range pfns {
		r.frames[i] = pfn.Addr()
	}
	if attrs.NoPin {
		r.present = make([]uint64, (len(pfns)+63)/64)
		for i := range pfns {
			r.present[i/64] |= 1 << uint(i%64)
		}
	}
	t.dir.Store(uint32(r.handle), r)
	t.live.Add(1)
	return r.handle, nil
}

// deregister removes the region from the directory, reporting how many
// TPT slots were invalidated.  The removal is published FIRST; only then
// are the slots parked for the grace epoch, so a lock-free reader still
// consuming the region can never race a new registration writing into
// the same slots (see promoteGraceLocked).  A translation already
// running against the region may still complete — the same window a
// real NIC has between the invalidate doorbell and the DMA engine's last
// in-flight fetch.
func (t *tpt) deregister(h MemHandle) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.promoteGraceLocked()
	r := t.dir.Delete(uint32(h))
	if r == nil {
		return 0, t.missErrLocked(h)
	}
	t.live.Add(-1)
	t.grace += len(r.frames)
	return len(r.frames), nil
}

// invalidatePage marks one page of a nopin region non-present — the
// MMU-notifier downcall.  It publishes a cloned region with the present
// bit cleared and the epoch advanced, then passes through the DMA fence:
// a transfer that translated the page before the publish finishes its
// copy before invalidatePage returns, and every later one faults.  The
// caller may therefore take the page's image, or free its frame, as
// soon as this returns.  It reports whether the page was present (false
// also for unknown handles or out-of-range pages, which arrive
// harmlessly when the host tears a registration down concurrently with
// reclaim).
func (t *tpt) invalidatePage(h MemHandle, page int) bool {
	if !t.clearPresent(h, page) {
		return false
	}
	// Taken outside t.mu, so registrations proceed while DMA drains.
	t.fence.Lock()
	t.fence.Unlock()
	return true
}

func (t *tpt) clearPresent(h MemHandle, page int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.promoteGraceLocked()
	r := t.find(h)
	if r == nil || r.present == nil || page < 0 || page >= len(r.frames) || !r.pagePresent(page) {
		return false
	}
	nr := r.clone()
	nr.present[page/64] &^= 1 << uint(page%64)
	nr.epoch++
	t.dir.Store(uint32(h), nr)
	return true
}

// repairPage restores one page of a nopin region after the host faulted
// it back in: the new frame is entered and the present bit set, under a
// fresh epoch so speculative validation can tell the entry changed.
func (t *tpt) repairPage(h MemHandle, page int, pa phys.Addr) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.promoteGraceLocked()
	r := t.find(h)
	if r == nil {
		return t.missErrLocked(h)
	}
	if r.present == nil {
		return fmt.Errorf("%w: repairPage on region %d", ErrPinnedRegion, h)
	}
	if page < 0 || page >= len(r.frames) {
		return fmt.Errorf("%w: page %d of %d", ErrOutOfRegion, page, len(r.frames))
	}
	nr := r.clone()
	nr.frames[page] = pa &^ phys.Addr(phys.PageMask)
	nr.present[page/64] |= 1 << uint(page%64)
	nr.epoch++
	t.dir.Store(uint32(h), nr)
	return nil
}

// extent is one physically contiguous run of a translated byte range.
type extent struct {
	addr phys.Addr
	n    int
}

// translateRange resolves the byte range [off, off+length) of a handle
// into physically contiguous extents, appending them to exts (pass a
// scratch slice to avoid allocation).  Adjacent frames coalesce, so a
// transfer over physically contiguous pages yields one extent.  The
// whole range is validated before any extent is returned: tag,
// attributes, bounds and (for nopin regions) present bits — a DMA either
// translates completely or not at all; the first non-present page raises
// an IOPageFaultError.
//
// A pinned region translates without taking any lock.  A nopin region
// translates inside the DMA fence and, on success, returns with it still
// held (fenced == true): the caller copies against the extents and then
// releases t.fence.RUnlock, without calling into the host in between.
func (t *tpt) translateRange(h MemHandle, off, length int, tag ProtectionTag, needAttr func(MemAttrs) bool, exts []extent) (out []extent, fenced bool, err error) {
	out, fenced, err = t.translateRangeUnobserved(h, off, length, tag, needAttr, exts)
	if obs := t.obs.Load(); obs != nil {
		obs.translates.Inc()
		if err != nil {
			obs.translateErrs.Inc()
		}
		obs.trc.Instant(trace.KindTranslate, uint64(h), uint64(length))
	}
	return out, fenced, err
}

// translateRangeUnobserved is translateRange without the observability
// accounting (split out so the accounting has a single exit point).
func (t *tpt) translateRangeUnobserved(h MemHandle, off, length int, tag ProtectionTag, needAttr func(MemAttrs) bool, exts []extent) ([]extent, bool, error) {
	if inj := t.inj.Load(); inj != nil {
		if err := inj.Check(faultinject.Op{Site: SiteTPT, Key: uint64(h), N: length}); err != nil {
			return nil, false, fmt.Errorf("%w: %w", ErrTranslationFault, err)
		}
	}
	r, err := t.lookup(h)
	if err != nil {
		return nil, false, err
	}
	if r.present == nil {
		exts, err = r.extents(off, length, tag, needAttr, exts)
		return exts, false, err
	}
	// Enter the fence, then load the region again: an invalidation
	// published before we got in is seen, one published after waits.
	t.fence.RLock()
	if r, err = t.lookup(h); err == nil {
		exts, err = r.extents(off, length, tag, needAttr, exts)
	}
	if err != nil {
		t.fence.RUnlock()
		return nil, false, err
	}
	return exts, true, nil
}

// extents validates an access against the region and resolves it (the
// body of translateRange; r is immutable, so this takes no lock).
func (r *region) extents(off, length int, tag ProtectionTag, needAttr func(MemAttrs) bool, exts []extent) ([]extent, error) {
	if r.tag != tag {
		return nil, fmt.Errorf("%w: region tag %d vs access tag %d", ErrTagMismatch, r.tag, tag)
	}
	if off < 0 || length < 0 || off+length > r.length {
		return nil, fmt.Errorf("%w: range [%d,%d) of %d", ErrOutOfRegion, off, off+length, r.length)
	}
	if needAttr != nil && !needAttr(r.attrs) {
		return nil, ErrRDMADisabled
	}
	abs := r.offset + off
	if r.present != nil {
		for p, end := abs/phys.PageSize, (abs+length-1)/phys.PageSize; p <= end; p++ {
			if !r.pagePresent(p) {
				return nil, &IOPageFaultError{Handle: r.handle, Page: p, Epoch: r.epoch}
			}
		}
	}
	// Coalesce only with this call's own extents: what exts already holds
	// belongs to an earlier segment of the caller's list.
	for own := len(exts); length > 0; {
		pa := r.frames[abs/phys.PageSize] + phys.Addr(abs&phys.PageMask)
		n := phys.PageSize - abs&phys.PageMask
		if n > length {
			n = length
		}
		if k := len(exts) - 1; k >= own && exts[k].addr+phys.Addr(exts[k].n) == pa {
			exts[k].n += n
		} else {
			exts = append(exts, extent{addr: pa, n: n})
		}
		abs += n
		length -= n
	}
	return exts, nil
}

// walkRange is the speculative-DMA variant of translateRange: after the
// same validation (tag, attributes, bounds) it visits every page-bounded
// piece of the byte range, reporting the piece's position in the
// transfer, its region page index, physical address, byte count and
// present bit — non-present pieces are reported, not failed, so the
// engine can stream the present ones and retransmit the holes after
// host-side validation.  It returns the region epoch the walk observed.
func (t *tpt) walkRange(h MemHandle, off, length int, tag ProtectionTag, needAttr func(MemAttrs) bool,
	fn func(bufPos, page int, pa phys.Addr, n int, present bool)) (uint64, error) {
	r, err := t.lookup(h)
	if err != nil {
		return 0, err
	}
	if r.tag != tag {
		return 0, fmt.Errorf("%w: region tag %d vs access tag %d", ErrTagMismatch, r.tag, tag)
	}
	if off < 0 || length < 0 || off+length > r.length {
		return 0, fmt.Errorf("%w: range [%d,%d) of %d", ErrOutOfRegion, off, off+length, r.length)
	}
	if needAttr != nil && !needAttr(r.attrs) {
		return 0, ErrRDMADisabled
	}
	abs := r.offset + off
	pos := 0
	for length > 0 {
		page := abs / phys.PageSize
		pa := r.frames[page] + phys.Addr(abs&phys.PageMask)
		n := phys.PageSize - abs&phys.PageMask
		if n > length {
			n = length
		}
		fn(pos, page, pa, n, r.pagePresent(page))
		abs += n
		pos += n
		length -= n
	}
	return r.epoch, nil
}

// pageState reports the current frame, present bit and epoch for one
// page of a region — the host-side validation read of speculative DMA.
func (t *tpt) pageState(h MemHandle, page int) (pa phys.Addr, present bool, epoch uint64, err error) {
	r, err := t.lookup(h)
	if err != nil {
		return 0, false, 0, err
	}
	if page < 0 || page >= len(r.frames) {
		return 0, false, 0, fmt.Errorf("%w: page %d of %d", ErrOutOfRegion, page, len(r.frames))
	}
	return r.frames[page], r.pagePresent(page), r.epoch, nil
}

// regionLength reports the registered length of a handle.
func (t *tpt) regionLength(h MemHandle) (int, error) {
	r, err := t.lookup(h)
	if err != nil {
		return 0, err
	}
	return r.length, nil
}

// presentPages reports how many of a region's pages currently have
// valid translations (all of them for pinned regions).
func (t *tpt) presentPages(h MemHandle) (present, total int, err error) {
	r, err := t.lookup(h)
	if err != nil {
		return 0, 0, err
	}
	total = len(r.frames)
	if r.present == nil {
		return total, total, nil
	}
	for i := 0; i < total; i++ {
		if r.pagePresent(i) {
			present++
		}
	}
	return present, total, nil
}

// freeSlots reports the number of TPT slots not owned by a live region
// (immediately free plus grace-parked).
func (t *tpt) freeSlots() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.free + t.grace
}

// regionCount reports how many regions are currently registered.
func (t *tpt) regionCount() int {
	return int(t.live.Load())
}
