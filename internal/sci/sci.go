// Package sci simulates the SCI (Scalable Coherent Interface)
// distributed-shared-memory substrate of the group's combined VIA/SCI
// project — the system the paper's locking mechanism was built to serve.
// It implements the *improved* memory management the companion articles
// propose ("Memory Management in a Combined VIA/SCI Hardware"): instead
// of one fixed 512 KiB-aligned window, each bridge has
//
//   - an upstream translation table mapping SCI-visible pages to local
//     physical pages, page-granular, covering arbitrary process memory
//     that was exported — which is exactly why exported memory must be
//     locked reliably: the table records physical addresses;
//   - a downstream translation table mapping pages of a local import
//     window to (remote node, remote SCI page).
//
// Programmed I/O (remote loads/stores through an imported window)
// traverses: host page tables → downstream table → fabric → remote
// upstream table → remote physical memory.  The exporter's kernel pins
// the exported pages with a pluggable core.Locker, so the reproduction
// can show remote PIO silently landing in orphaned frames when the
// locking strategy is broken — the same failure as the VIA TPT case.
package sci

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/mm"
	"repro/internal/pgtable"
	"repro/internal/phys"
	"repro/internal/simtime"
)

// NodeID identifies a bridge on the fabric.
type NodeID uint16

// ExportID names one exported region on its node.
type ExportID uint32

// Errors returned by the SCI layer.
var (
	ErrTableFull    = errors.New("sci: translation table full")
	ErrBadExport    = errors.New("sci: unknown export")
	ErrBadImport    = errors.New("sci: unknown import")
	ErrBounds       = errors.New("sci: access outside region")
	ErrUnknownNode  = errors.New("sci: unknown node id")
	ErrStaleMapping = errors.New("sci: mapping no longer valid")
)

// Stats counts bridge activity.
type Stats struct {
	RemoteWrites  uint64 // PIO write transactions handled for remote nodes
	RemoteReads   uint64 // PIO read transactions handled for remote nodes
	BytesIn       uint64 // payload bytes written into this node
	BytesOut      uint64 // payload bytes read out of this node
	ExportsActive int    // current exports
	ImportsActive int    // current imports
}

// Export is one exported region: a contiguous range of SCI pages backed
// by pinned local memory.
type Export struct {
	// ID names the export on its node.
	ID ExportID
	// SCIPage is the first SCI page number assigned to the region.
	SCIPage uint32
	// Pages is the region length in pages.
	Pages int

	bridge *Bridge
	lock   *core.Lock
	addr   pgtable.VAddr
	as     *mm.AddressSpace
	tag    Tag
}

// Import is a window onto a remote export.
type Import struct {
	bridge  *Bridge
	remote  NodeID
	sciPage uint32
	pages   int
	valid   bool
	tag     Tag
}

// Bridge is one node's PCI–SCI bridge.
type Bridge struct {
	node   NodeID
	kernel *mm.Kernel
	meter  *simtime.Meter
	fabric *Fabric
	locker core.Locker

	mu sync.Mutex
	// upstream: SCI page number -> local physical page address.
	upstream     map[uint32]phys.Addr
	upstreamFree int
	nextSCIPage  uint32
	exports      map[ExportID]*Export
	nextExport   ExportID
	imports      map[*Import]struct{}
	stats        Stats
	dmaStats     DMAStats
}

// DefaultUpstreamSlots bounds exportable memory per node (32 MiB).
const DefaultUpstreamSlots = 8192

// NewBridge attaches a bridge to a node's kernel.  The locker pins
// exported memory; pass the strategy under study.
func NewBridge(node NodeID, k *mm.Kernel, locker core.Locker, upstreamSlots int) *Bridge {
	if upstreamSlots <= 0 {
		upstreamSlots = DefaultUpstreamSlots
	}
	return &Bridge{
		node:         node,
		kernel:       k,
		meter:        k.Meter(),
		locker:       locker,
		upstream:     make(map[uint32]phys.Addr),
		upstreamFree: upstreamSlots,
		nextSCIPage:  1,
		exports:      make(map[ExportID]*Export),
		nextExport:   1,
		imports:      make(map[*Import]struct{}),
	}
}

// Node returns the bridge's fabric id.
func (b *Bridge) Node() NodeID { return b.node }

// Stats returns a snapshot of bridge statistics.
func (b *Bridge) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.stats
	s.ExportsActive = len(b.exports)
	s.ImportsActive = len(b.imports)
	return s
}

// charge is nil-safe virtual accounting.
func (b *Bridge) charge(d simtime.Duration) {
	if b.meter != nil {
		b.meter.Charge(d)
	}
}

func (b *Bridge) costs() simtime.CostModel {
	if b.meter == nil {
		return simtime.CostModel{}
	}
	return b.meter.Costs
}

// Export pins [addr, addr+pages·PageSize) of the process with the
// bridge's locker and enters the page list into the upstream table.
// The returned SCI page range is what remote importers map.
func (b *Bridge) Export(as *mm.AddressSpace, addr pgtable.VAddr, pages int) (*Export, error) {
	if pages <= 0 {
		return nil, fmt.Errorf("sci: export of %d pages", pages)
	}
	b.mu.Lock()
	if b.upstreamFree < pages {
		b.mu.Unlock()
		return nil, fmt.Errorf("%w: need %d upstream slots, %d free", ErrTableFull, pages, b.upstreamFree)
	}
	b.upstreamFree -= pages
	b.mu.Unlock()

	lock, err := b.locker.Lock(b.kernel, as, addr, pages*phys.PageSize)
	if err != nil {
		b.mu.Lock()
		b.upstreamFree += pages
		b.mu.Unlock()
		return nil, fmt.Errorf("sci: export lock (%s): %w", b.locker.Name(), err)
	}

	b.mu.Lock()
	defer b.mu.Unlock()
	exp := &Export{
		ID:      b.nextExport,
		SCIPage: b.nextSCIPage,
		Pages:   pages,
		bridge:  b,
		lock:    lock,
		addr:    addr,
		as:      as,
	}
	b.nextExport++
	b.nextSCIPage += uint32(pages)
	for i, pfn := range lock.Frames {
		b.upstream[exp.SCIPage+uint32(i)] = pfn.Addr()
	}
	b.charge(b.costs().KernelCall)
	b.exports[exp.ID] = exp
	return exp, nil
}

// Unexport removes the region from the upstream table and releases the
// lock.
func (b *Bridge) Unexport(exp *Export) error {
	b.mu.Lock()
	if _, ok := b.exports[exp.ID]; !ok {
		b.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrBadExport, exp.ID)
	}
	delete(b.exports, exp.ID)
	for i := 0; i < exp.Pages; i++ {
		delete(b.upstream, exp.SCIPage+uint32(i))
	}
	b.upstreamFree += exp.Pages
	b.mu.Unlock()
	b.charge(b.costs().KernelCall)
	return exp.lock.Unlock()
}

// Consistent reports how many of the export's pages are still backed by
// the frames recorded in the upstream table.
func (exp *Export) Consistent() (ok, total int, err error) {
	start := pgtable.PageOf(exp.addr)
	total = exp.Pages
	for i := 0; i < total; i++ {
		pfn, err := exp.bridge.kernel.ResidentPFN(exp.as, (start + pgtable.VPN(i)).Addr())
		if err != nil {
			return ok, total, err
		}
		if pfn != phys.NoPFN && pfn == exp.lock.Frames[i] {
			ok++
		}
	}
	return ok, total, nil
}

// Import maps a remote export's SCI page range into a local window.
func (b *Bridge) Import(remote NodeID, sciPage uint32, pages int) (*Import, error) {
	if pages <= 0 {
		return nil, fmt.Errorf("sci: import of %d pages", pages)
	}
	if b.fabric == nil {
		return nil, fmt.Errorf("sci: bridge %d not attached to a fabric", b.node)
	}
	if _, ok := b.fabric.bridge(remote); !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, remote)
	}
	imp := &Import{bridge: b, remote: remote, sciPage: sciPage, pages: pages, valid: true}
	b.mu.Lock()
	b.imports[imp] = struct{}{}
	b.mu.Unlock()
	b.charge(b.costs().KernelCall)
	return imp, nil
}

// Unimport tears the window down.
func (b *Bridge) Unimport(imp *Import) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.imports[imp]; !ok {
		return fmt.Errorf("%w", ErrBadImport)
	}
	delete(b.imports, imp)
	imp.valid = false
	return nil
}

// Bytes reports the window length in bytes.
func (imp *Import) Bytes() int { return imp.pages * phys.PageSize }

// sciPacket is the SCI transaction payload granularity (DMOVE64).
const sciPacket = 64

// Write performs remote stores through the window: the importing CPU
// issues stores, the local bridge translates downstream and ships SCI
// request packets, the remote bridge translates upstream and writes
// physical memory.  Streams at PIO bandwidth after one wire crossing.
func (imp *Import) Write(off int, data []byte) error {
	if err := imp.check(off, len(data)); err != nil {
		return err
	}
	b := imp.bridge
	b.charge(b.costs().WireLatency)
	b.meter.ChargeN(b.costs().PIOPerByte, len(data))
	return imp.transfer(off, data, true)
}

// Read performs remote loads through the window.  SCI remote reads are
// round trips per packet — the reason the companion protocols avoid
// them ("only remote writes and local reads are used") — and are
// charged accordingly.
func (imp *Import) Read(off int, data []byte) error {
	if err := imp.check(off, len(data)); err != nil {
		return err
	}
	b := imp.bridge
	packets := (len(data) + sciPacket - 1) / sciPacket
	b.meter.ChargeN(2*b.costs().WireLatency, packets)
	b.meter.ChargeN(b.costs().PIOPerByte, len(data))
	return imp.transfer(off, data, false)
}

func (imp *Import) check(off, n int) error {
	if !imp.valid {
		return ErrStaleMapping
	}
	if off < 0 || n < 0 || off+n > imp.Bytes() {
		return fmt.Errorf("%w: [%d,+%d) of window %d", ErrBounds, off, n, imp.Bytes())
	}
	return nil
}

// transfer moves data page-chunk by page-chunk through the remote
// bridge's upstream table.
func (imp *Import) transfer(off int, data []byte, write bool) error {
	remote, ok := imp.bridge.fabric.bridge(imp.remote)
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, imp.remote)
	}
	done := 0
	for done < len(data) {
		cur := off + done
		page := uint32(cur / phys.PageSize)
		pageOff := cur % phys.PageSize
		chunk := phys.PageSize - pageOff
		if chunk > len(data)-done {
			chunk = len(data) - done
		}
		if err := remote.upstreamAccess(imp.sciPage+page, pageOff, data[done:done+chunk], write); err != nil {
			return err
		}
		done += chunk
	}
	return nil
}

// upstreamAccess is the remote bridge's side of a transaction: upstream
// translation plus the physical access.  No page tables are consulted —
// which is why a stale upstream table misdirects the access silently.
func (b *Bridge) upstreamAccess(sciPage uint32, off int, data []byte, write bool) error {
	b.mu.Lock()
	pa, ok := b.upstream[sciPage]
	b.mu.Unlock()
	if !ok {
		return fmt.Errorf("sci: node %d has no upstream mapping for SCI page %d", b.node, sciPage)
	}
	var err error
	if write {
		err = b.kernel.Phys().WritePhys(pa+phys.Addr(off), data)
	} else {
		err = b.kernel.Phys().ReadPhys(pa+phys.Addr(off), data)
	}
	if err != nil {
		return err
	}
	b.mu.Lock()
	if write {
		b.stats.RemoteWrites++
		b.stats.BytesIn += uint64(len(data))
	} else {
		b.stats.RemoteReads++
		b.stats.BytesOut += uint64(len(data))
	}
	b.mu.Unlock()
	return nil
}

// Fabric connects bridges into one SCI ring.
type Fabric struct {
	mu      sync.Mutex
	bridges map[NodeID]*Bridge
}

// NewFabric creates an empty ring.
func NewFabric() *Fabric {
	return &Fabric{bridges: make(map[NodeID]*Bridge)}
}

// Attach adds a bridge to the ring.
func (f *Fabric) Attach(b *Bridge) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.bridges[b.node]; ok {
		return fmt.Errorf("sci: node %d already attached", b.node)
	}
	f.bridges[b.node] = b
	b.fabric = f
	return nil
}

func (f *Fabric) bridge(id NodeID) (*Bridge, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	b, ok := f.bridges[id]
	return b, ok
}
