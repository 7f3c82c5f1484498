package via

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/phys"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// Fault-injection sites the NIC guards (see package faultinject).
const (
	// SiteDMA guards every TPT-mediated DMA: once per segment of either
	// end of a transfer, and per local DMA.
	SiteDMA = "nic.dma"
	// SiteTPT guards data-path TPT range translations.
	SiteTPT = "tpt.translate"
	// SiteLink guards the wire crossing of sends and RDMA operations.
	SiteLink = "nic.link"
	// SiteCompletion guards the final completion write-back: a fault
	// here models a dropped completion — the data moved but the
	// notification is lost, recovered by the VI error machine.
	SiteCompletion = "nic.completion"
	// SiteLane guards engine-lane dequeue (stalls, lane failures).
	SiteLane = "engine.lane"
)

// Stats counts NIC activity.
type Stats struct {
	Sends          uint64 // send descriptors completed successfully
	Recvs          uint64 // receive descriptors completed successfully
	RDMAWrites     uint64 // RDMA writes completed
	RDMAReads      uint64 // RDMA reads completed
	BytesTX        uint64 // payload bytes transmitted
	BytesRX        uint64 // payload bytes received
	TagViolations  uint64 // protection-tag or attribute failures
	RecvUnderflows uint64 // sends that found no receive descriptor posted
	ImmediateOnly  uint64 // descriptors served from immediate data alone

	// Small-message fast path accounting (E24's scoreboard).
	InlineSends    uint64 // sends whose payload rode inside the descriptor
	Doorbells      uint64 // doorbells actually rung (PIO writes)
	DoorbellsSaved uint64 // batch descriptors that shared another's doorbell
	BatchPosts     uint64 // PostSendBatch/PostRecvBatch calls that posted

	// Fault/recovery accounting (the chaos harness's scoreboard).
	Faults             uint64 // data-path faults that hit a VI (injected or organic)
	VIErrors           uint64 // VI transitions into the error state
	DescriptorsFlushed uint64 // descriptors flushed by error/disconnect paths
	Recoveries         uint64 // successful VI Resets out of the error state
	NICResets          uint64 // FaultReset invocations
	// Retries counts failed data-path steps a ReliableReception VI ran
	// again: each absorbed a fault that did not reach Faults.
	Retries uint64

	// Nopin (RegNoPin) accounting: the pin-free data path's scoreboard.
	IOPageFaults     uint64 // DMA touches on non-present nopin translations
	FaultRetries     uint64 // fault-and-retry resolutions (park → fault-in → resume)
	SpecRetransmits  uint64 // speculative-DMA chunks retransmitted after validation
	RetransmitBytes  uint64 // payload bytes carried by those retransmits
	TPTInvalidations uint64 // notifier downcalls that cleared a present bit
	TPTRepairs       uint64 // host repairs that restored a translation
}

// nicCounters are the live statistics, one lock-free atomic per field so
// the per-descriptor accounting (two or more bumps per send: sender and
// receiver) never serializes concurrent data paths.
type nicCounters struct {
	sends          atomic.Uint64
	recvs          atomic.Uint64
	rdmaWrites     atomic.Uint64
	rdmaReads      atomic.Uint64
	bytesTX        atomic.Uint64
	bytesRX        atomic.Uint64
	tagViolations  atomic.Uint64
	recvUnderflows atomic.Uint64
	immediateOnly  atomic.Uint64

	inlineSends    atomic.Uint64
	doorbells      atomic.Uint64
	doorbellsSaved atomic.Uint64
	batchPosts     atomic.Uint64

	faults      atomic.Uint64
	viErrors    atomic.Uint64
	descFlushed atomic.Uint64
	recoveries  atomic.Uint64
	nicResets   atomic.Uint64
	retries     atomic.Uint64

	ioPageFaults    atomic.Uint64
	faultRetries    atomic.Uint64
	specRetransmits atomic.Uint64
	retransmitBytes atomic.Uint64
	tptInvalidates  atomic.Uint64
	tptRepairs      atomic.Uint64
}

// NIC is one simulated VIA network interface controller.
type NIC struct {
	name  string
	mem   *phys.Memory
	meter *simtime.Meter
	tpt   *tpt
	ctr   nicCounters

	// inj is the attached fault injector (nil in production: the data
	// path pays one atomic load + branch per guarded operation).
	inj atomic.Pointer[faultinject.Injector]
	// obs is the attached observer (tracing + metrics); nil in
	// production, same hot-path discipline as inj.
	obs atomic.Pointer[nicObs]
	// nw is the fabric the NIC is attached to (set by Network.Attach),
	// consulted for link partitions.
	nw atomic.Pointer[Network]

	// ioFaultHandler is the host-side IO-page-fault upcall for nopin
	// regions (installed by the kernel agent); ioFaultPolicy selects
	// fault-and-retry vs speculative recovery.  Both are atomic so the
	// DMA engine reads them lock-free mid-transfer.
	ioFaultHandler atomic.Pointer[IOFaultHandler]
	ioFaultPolicy  atomic.Uint32

	mu         sync.Mutex
	vis        map[int]*VI
	nextVI     int
	eng        *engine
	resetHooks []func()
}

// IOFaultHandler is the host upcall the NIC raises on an IO page fault:
// fault page `page` of region `h` back in and repair the TPT entry
// (via RepairTPTPage).  It runs on the DMA engine's goroutine while the
// faulting descriptor is parked.
type IOFaultHandler func(h MemHandle, page int) error

// IOFaultPolicy selects how the DMA engine recovers from an IO page
// fault on a nopin translation.
type IOFaultPolicy uint32

const (
	// FaultRetry parks the descriptor, asks the host to fault the page
	// back in and repair the TPT entry, then re-translates and resumes —
	// the precise-fault model (Psistakis et al.).
	FaultRetry IOFaultPolicy = iota
	// FaultSpeculative streams the present pages immediately, validates
	// the translation epoch host-side afterwards, and retransmits only
	// the stale chunks — the NP-RDMA model.
	FaultSpeculative
)

// DefaultTPTSlots is the default TPT size (pages registrable at once) —
// 8 Mi of registered memory, a plausible mid-range card of the era.
const DefaultTPTSlots = 2048

// NewNIC creates a NIC attached to the node's physical memory.
func NewNIC(name string, mem *phys.Memory, meter *simtime.Meter, tptSlots int) *NIC {
	if tptSlots <= 0 {
		tptSlots = DefaultTPTSlots
	}
	if meter == nil {
		meter = &simtime.Meter{}
	}
	return &NIC{
		name:  name,
		mem:   mem,
		meter: meter,
		tpt:   newTPT(tptSlots),
		vis:   make(map[int]*VI),
	}
}

// ringDoorbell charges the one doorbell MMIO that posts descs
// descriptors and counts it, along with the rings the post's other
// descriptors did not need: every post path that wakes the card goes
// through here, so Stats.Doorbells is the measured doorbells/op
// denominator of E24.
func (n *NIC) ringDoorbell(descs int) {
	n.meter.Charge(n.meter.Costs.Doorbell)
	n.ctr.doorbells.Add(1)
	if descs > 1 {
		n.ctr.doorbellsSaved.Add(uint64(descs - 1))
	}
}

// Name returns the NIC's name.
func (n *NIC) Name() string { return n.name }

// Stats returns a snapshot of NIC statistics.  Every counter is read
// atomically and counters only grow, so the snapshot is bounded between
// the NIC's state when the call starts and when it returns; once the
// NIC is quiescent the snapshot is exact.
func (n *NIC) Stats() Stats {
	return Stats{
		Sends:          n.ctr.sends.Load(),
		Recvs:          n.ctr.recvs.Load(),
		RDMAWrites:     n.ctr.rdmaWrites.Load(),
		RDMAReads:      n.ctr.rdmaReads.Load(),
		BytesTX:        n.ctr.bytesTX.Load(),
		BytesRX:        n.ctr.bytesRX.Load(),
		TagViolations:  n.ctr.tagViolations.Load(),
		RecvUnderflows: n.ctr.recvUnderflows.Load(),
		ImmediateOnly:  n.ctr.immediateOnly.Load(),

		InlineSends:    n.ctr.inlineSends.Load(),
		Doorbells:      n.ctr.doorbells.Load(),
		DoorbellsSaved: n.ctr.doorbellsSaved.Load(),
		BatchPosts:     n.ctr.batchPosts.Load(),

		Faults:             n.ctr.faults.Load(),
		VIErrors:           n.ctr.viErrors.Load(),
		DescriptorsFlushed: n.ctr.descFlushed.Load(),
		Recoveries:         n.ctr.recoveries.Load(),
		NICResets:          n.ctr.nicResets.Load(),
		Retries:            n.ctr.retries.Load(),

		IOPageFaults:     n.ctr.ioPageFaults.Load(),
		FaultRetries:     n.ctr.faultRetries.Load(),
		SpecRetransmits:  n.ctr.specRetransmits.Load(),
		RetransmitBytes:  n.ctr.retransmitBytes.Load(),
		TPTInvalidations: n.ctr.tptInvalidates.Load(),
		TPTRepairs:       n.ctr.tptRepairs.Load(),
	}
}

// SetIOFaultHandler installs (or, with nil, removes) the host upcall
// invoked when DMA faults on a non-present nopin translation.  Without
// a handler, IO page faults surface as StatusIOPageFault completions.
func (n *NIC) SetIOFaultHandler(fn IOFaultHandler) {
	if fn == nil {
		n.ioFaultHandler.Store(nil)
		return
	}
	n.ioFaultHandler.Store(&fn)
}

// SetIOFaultPolicy selects the recovery policy for IO page faults.
func (n *NIC) SetIOFaultPolicy(p IOFaultPolicy) { n.ioFaultPolicy.Store(uint32(p)) }

// IOFaultPolicyInEffect reports the current recovery policy.
func (n *NIC) IOFaultPolicyInEffect() IOFaultPolicy {
	return IOFaultPolicy(n.ioFaultPolicy.Load())
}

// InvalidateTPTPage is the MMU-notifier downcall: the kernel is about to
// evict (swap/unmap/COW-break) a page inside a nopin region, so its TPT
// entry goes non-present.  Reports whether a present entry was cleared.
// Safe to call concurrently with the data path — the edit publishes a
// clone of the region, and the call returns only after every transfer
// that translated the old entry has finished copying (the invalidate
// MMIO completing once the DMA engine has drained), so the caller may
// take the page's image or free its frame straight away.
func (n *NIC) InvalidateTPTPage(h MemHandle, page int) bool {
	if !n.tpt.invalidatePage(h, page) {
		return false
	}
	n.meter.Charge(n.meter.Costs.TPTUpdate)
	n.ctr.tptInvalidates.Add(1)
	if obs := n.obs.Load(); obs != nil {
		obs.tptInvalidates.Inc()
		obs.trc.Instant(trace.KindNotifierInvalidate, uint64(h), uint64(page))
	}
	return true
}

// RepairTPTPage restores one page of a nopin region after the host
// faulted it back in: the fresh frame address is entered and the
// present bit set under a new epoch.
func (n *NIC) RepairTPTPage(h MemHandle, page int, pa phys.Addr) error {
	if err := n.tpt.repairPage(h, page, pa); err != nil {
		return err
	}
	n.meter.Charge(n.meter.Costs.TPTUpdate)
	n.ctr.tptRepairs.Add(1)
	if obs := n.obs.Load(); obs != nil {
		obs.tptRepairs.Inc()
		obs.trc.Instant(trace.KindTPTRepair, uint64(h), uint64(page))
	}
	return nil
}

// PresentPages reports how many of a region's TPT entries are currently
// present (all, for pinned regions) — the experiments' probe for how
// much of a nopin region the kernel has evicted.
func (n *NIC) PresentPages(h MemHandle) (present, total int, err error) {
	return n.tpt.presentPages(h)
}

// TPTPageState reports one page's current translation: the frame address
// recorded in the TPT and whether the entry is present (diagnostics and
// the consistency probes; pinned regions are always present).
func (n *NIC) TPTPageState(h MemHandle, page int) (pa phys.Addr, present bool, err error) {
	pa, present, _, err = n.tpt.pageState(h, page)
	return pa, present, err
}

// SetFaultInjector attaches (or, with nil, detaches) a fault injector.
// The NIC's guarded sites are SiteDMA, SiteTPT, SiteLink,
// SiteCompletion and SiteLane.
func (n *NIC) SetFaultInjector(inj *faultinject.Injector) {
	n.inj.Store(inj)
	n.tpt.inj.Store(inj)
}

// OnReset registers a hook invoked after FaultReset has errored every
// connected VI — the invalidation path registration caches subscribe to
// so a NIC reset revalidates cached registrations.
func (n *NIC) OnReset(fn func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.resetHooks = append(n.resetHooks, fn)
}

// FaultReset simulates a NIC-level fatal fault followed by a driver
// reset: every connected VI transitions to the error state (flushing
// its descriptors), then the reset hooks fire.  Registered memory stays
// in the TPT — it is the owners' job (e.g. a registration cache's
// OnReset hook) to drop and re-register what they cached.
func (n *NIC) FaultReset() {
	n.mu.Lock()
	vis := make([]*VI, 0, len(n.vis))
	for _, v := range n.vis {
		vis = append(vis, v)
	}
	hooks := append([]func(){}, n.resetHooks...)
	n.mu.Unlock()
	n.ctr.nicResets.Add(1)
	n.ctr.faults.Add(1)
	for _, v := range vis {
		if v.State() == VIConnected {
			v.enterError(ErrNICReset)
		}
	}
	for _, fn := range hooks {
		fn()
	}
}

// FreeTPTSlots reports the unused TPT capacity in pages.
func (n *NIC) FreeTPTSlots() int { return n.tpt.freeSlots() }

// Regions reports the number of registered regions.
func (n *NIC) Regions() int { return n.tpt.regionCount() }

// CreateVI creates a virtual interface carrying the given protection tag
// and at most one reliability level (ReliableDelivery when omitted).
func (n *NIC) CreateVI(tag ProtectionTag, rel ...Reliability) (*VI, error) {
	if tag == InvalidTag {
		return nil, fmt.Errorf("%w: cannot create a VI with it", ErrInvalidTag)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	v := &VI{nic: n, id: n.nextVI, uid: viUIDs.Add(1), tag: tag}
	if len(rel) > 0 {
		v.rel = rel[0]
	}
	v.maxTransfer.Store(DefaultMaxTransferSize)
	n.nextVI++
	n.vis[v.id] = v
	return v, nil
}

// RegisterMemory enters a buffer's physical page list into the TPT and
// returns the handle the DMA engine will use.  pfns are the frames
// backing the buffer in order (the TPT copies them); offset is the
// buffer start within the first page; length is the byte length.
//
// The NIC records the addresses as given — it has no way to notice if
// the kernel's locking scheme later lets the pages move.
func (n *NIC) RegisterMemory(pfns []phys.PFN, offset, length int, tag ProtectionTag, attrs MemAttrs) (MemHandle, error) {
	if tag == InvalidTag {
		return NoMemHandle, fmt.Errorf("%w: cannot register under it", ErrInvalidTag)
	}
	h, err := n.tpt.register(pfns, offset, length, tag, attrs)
	if err != nil {
		return NoMemHandle, err
	}
	n.meter.ChargeN(n.meter.Costs.TPTUpdate, len(pfns))
	return h, nil
}

// DeregisterMemory invalidates a handle's TPT slots.  Like registration,
// it costs one TPT update per page: every slot of the region must be
// invalidated individually.
func (n *NIC) DeregisterMemory(h MemHandle) error {
	slots, err := n.tpt.deregister(h)
	if err != nil {
		return err
	}
	n.meter.ChargeN(n.meter.Costs.TPTUpdate, slots)
	return nil
}

// RegionLength reports the registered length of a handle.
func (n *NIC) RegionLength(h MemHandle) (int, error) { return n.tpt.regionLength(h) }

// DMAWriteLocal writes data into local registered memory through the
// TPT, as the kernel agent does in step 5 of the locktest experiment
// ("simulating a DMA operation of the NIC").  The write lands at the
// physical addresses recorded at registration time.
func (n *NIC) DMAWriteLocal(h MemHandle, off int, data []byte, tag ProtectionTag) error {
	n.meter.Charge(n.meter.Costs.DMAStartup)
	n.meter.ChargeN(n.meter.Costs.DMAPerByte, len(data))
	return n.tptCopy(h, off, data, tag, true, nil)
}

// DMAReadLocal reads local registered memory through the TPT.
func (n *NIC) DMAReadLocal(h MemHandle, off int, data []byte, tag ProtectionTag) error {
	n.meter.Charge(n.meter.Costs.DMAStartup)
	n.meter.ChargeN(n.meter.Costs.DMAPerByte, len(data))
	return n.tptCopy(h, off, data, tag, false, nil)
}

// tptCopy moves len(buf) bytes between buf and registered memory: a
// transfer staged from the start, with the caller's buffer as its
// staging (see dmaStream.resolve for the IO page fault recovery).
func (n *NIC) tptCopy(h MemHandle, off int, buf []byte, tag ProtectionTag, write bool, needAttr func(MemAttrs) bool) error {
	if len(buf) == 0 {
		return nil
	}
	s := getStream(len(buf))
	defer s.release()
	s.buf, s.remote[0] = buf, Segment{h, off, len(buf)}
	return s.resolve(dmaEnd{n, tag, s.remote[:], needAttr}, write)
}

// guard consults the fault injector at one of the NIC's sites; what it
// injects is reported as the site's typed error.
func (n *NIC) guard(site string, key uint64, nbytes int, as error) error {
	if inj := n.inj.Load(); inj != nil {
		if err := inj.Check(faultinject.Op{Site: site, Key: key, N: nbytes}); err != nil {
			return fmt.Errorf("%w: %w", as, err)
		}
	}
	return nil
}

// tptCopyFaulting is the recovery slow path entered when a transfer hit
// a non-present nopin translation; scratch is the caller's idle extent
// list.  Recovery depends on the installed policy: fault-and-retry parks
// the transfer, raises the fault to the host handler, and re-translates
// once the entry is repaired; speculative hands the whole transfer to
// tptCopySpec.  Without a handler the fault propagates and completes the
// descriptor with StatusIOPageFault.
func (n *NIC) tptCopyFaulting(h MemHandle, off int, buf []byte, tag ProtectionTag, write bool, needAttr func(MemAttrs) bool, err error, scratch *[]extent) error {
	// Generous bound: every page of the transfer may fault once, plus
	// slack for pages re-evicted between repair and resume.  Hitting it
	// means the host is evicting faster than it repairs (livelock), and
	// the descriptor completes with StatusIOPageFault.
	maxRetries := 4*((len(buf)+phys.PageSize-1)/phys.PageSize) + 16
	for attempt := 0; ; attempt++ {
		var pf *IOPageFaultError
		if err == nil || !errors.As(err, &pf) {
			return err
		}
		handler := n.ioFaultHandler.Load()
		if handler == nil {
			n.ctr.ioPageFaults.Add(1)
			return err
		}
		if IOFaultPolicy(n.ioFaultPolicy.Load()) == FaultSpeculative {
			return n.tptCopySpec(h, off, buf, tag, write, needAttr, *handler)
		}
		// Fault-and-retry: the descriptor parks, the NIC raises the
		// fault interrupt (one doorbell-class MMIO), the host faults the
		// page back in and repairs the entry, and the transfer resumes
		// from a fresh translation.
		n.ctr.ioPageFaults.Add(1)
		if obs := n.obs.Load(); obs != nil {
			obs.ioFaults.Inc()
			obs.trc.Instant(trace.KindIOPageFault, uint64(pf.Handle), uint64(pf.Page))
		}
		if attempt >= maxRetries {
			return fmt.Errorf("via: IO fault not resolving after %d retries: %w", attempt, pf)
		}
		n.meter.Charge(n.meter.Costs.Doorbell)
		if herr := (*handler)(pf.Handle, pf.Page); herr != nil {
			return fmt.Errorf("via: IO fault handler: %w (fault: %w)", herr, pf)
		}
		n.ctr.faultRetries.Add(1)
		if obs := n.obs.Load(); obs != nil {
			obs.faultRetries.Inc()
		}
		err = n.tptCopyOnce(h, off, buf, tag, write, needAttr, scratch)
	}
}

// tptCopyOnce is a single translate-and-copy pass: the retry of a
// fault-and-retry recovery, after the host repaired the entry.
func (n *NIC) tptCopyOnce(h MemHandle, off int, buf []byte, tag ProtectionTag, write bool, needAttr func(MemAttrs) bool, scratch *[]extent) error {
	exts, fenced, err := n.tpt.translateRange(h, off, len(buf), tag, needAttr, (*scratch)[:0])
	if err != nil {
		return err
	}
	*scratch = exts[:0]
	err = copyExtents(n.mem, exts, buf, write)
	if fenced {
		n.tpt.fence.RUnlock()
	}
	return err
}

// copyExtents moves buf into (write) or out of the extents, in order.
func copyExtents(mem *phys.Memory, exts []extent, buf []byte, write bool) (err error) {
	for _, e := range exts {
		if write {
			err = mem.WritePhys(e.addr, buf[:e.n])
		} else {
			err = mem.ReadPhys(e.addr, buf[:e.n])
		}
		if err != nil {
			return err
		}
		buf = buf[e.n:]
	}
	return nil
}

// tptCopySpec is the NP-RDMA-style speculative path: DMA proceeds
// immediately over every page whose translation is present, then the
// host validates each piece's translation; pieces whose page was
// non-present (or whose translation changed mid-flight) are faulted in
// and retransmitted — per-round wire and startup costs are charged
// again, which is exactly the cost model NP-RDMA trades against never
// stalling the common case.
func (n *NIC) tptCopySpec(h MemHandle, off int, buf []byte, tag ProtectionTag, write bool, needAttr func(MemAttrs) bool, handler IOFaultHandler) error {
	type piece struct{ pos, page, inPage, n int } // buf position, region page, offset in it, bytes
	// Round 0 offers every page-bounded piece of the transfer; each later
	// round retransmits what the round before left stale.
	var todo []piece
	epoch, err := n.tpt.walkRange(h, off, len(buf), tag, needAttr, func(pos, page int, pa phys.Addr, cn int, _ bool) {
		todo = append(todo, piece{pos, page, int(pa & phys.Addr(phys.PageMask)), cn})
	})
	if err != nil {
		return err
	}
	maxRounds := 4 + 4*((len(buf)+phys.PageSize-1)/phys.PageSize)
	for round := 0; len(todo) > 0; round++ {
		if round > maxRounds {
			return fmt.Errorf("via: speculative DMA not converging after %d rounds: %w",
				round-1, &IOPageFaultError{Handle: h, Page: todo[0].page, Epoch: epoch})
		}
		if round > 0 {
			n.ctr.ioPageFaults.Add(uint64(len(todo)))
			if obs := n.obs.Load(); obs != nil {
				for _, p := range todo {
					obs.ioFaults.Inc()
					obs.trc.Instant(trace.KindIOPageFault, uint64(h), uint64(p.page))
				}
			}
			// Host faults every stale page back in and repairs its entry.
			for _, p := range todo {
				if herr := handler(h, p.page); herr != nil {
					return fmt.Errorf("via: IO fault handler: %w", herr)
				}
			}
			// Retransmit round: one startup + wire crossing for the round,
			// per-byte cost for the pieces carried.
			n.meter.Charge(n.meter.Costs.DMAStartup)
			n.meter.Charge(n.meter.Costs.WireLatency)
		}
		stale := todo[:0]
		for _, p := range todo {
			// Every copy runs inside the DMA fence (only nopin regions get
			// here), which is dropped before the host is called.
			n.tpt.fence.RLock()
			frame, present, _, err := n.tpt.pageState(h, p.page)
			if err == nil && present {
				err = copyExtents(n.mem, []extent{{frame + phys.Addr(p.inPage), p.n}}, buf[p.pos:], write)
			}
			n.tpt.fence.RUnlock()
			if err != nil {
				return err
			}
			if present && round > 0 {
				n.meter.ChargeN(n.meter.Costs.DMAPerByte, p.n)
				n.ctr.specRetransmits.Add(1)
				n.ctr.retransmitBytes.Add(uint64(p.n))
				if obs := n.obs.Load(); obs != nil {
					obs.specRetransmits.Inc()
					obs.trc.Instant(trace.KindSpecRetransmit, uint64(h), uint64(p.n))
				}
			}
			// Host-side validation: a page evicted or re-entered while it
			// was copied goes another round.
			if present {
				frame2, present2, _, err := n.tpt.pageState(h, p.page)
				if err != nil {
					return err
				}
				present = present2 && frame2 == frame
			}
			if !present {
				stale = append(stale, p)
			}
		}
		todo = stale
	}
	return nil
}

// process executes one send-queue descriptor synchronously (the DMA
// engine).  Data-path failures complete the descriptor with an error
// status rather than returning an error, matching hardware behaviour.
//
// The state gate here is what flushes lane-resident descriptors: a send
// posted before a disconnect or fault is dequeued later, finds its VI no
// longer connected, and completes with StatusCancelled (clean
// disconnect) or StatusConnectionError (error state) — never lost.
func (n *NIC) process(v *VI, d *Descriptor) {
	v.mu.Lock()
	st, peer := v.state, v.peer
	v.mu.Unlock()
	if st != VIConnected || peer == nil {
		n.ctr.descFlushed.Add(1)
		if st == VIIdle {
			v.completeSend(d, StatusCancelled, 0)
		} else {
			v.completeSend(d, StatusConnectionError, 0)
		}
		return
	}
	switch d.Op {
	case OpSend, OpRDMAWrite, OpRDMARead:
		if d.IsInline() { // sends only: checkSend
			n.processSendInline(v, peer, d)
			return
		}
		n.processData(v, peer, d)
	default:
		v.completeSend(d, StatusProtectionError, 0)
	}
}

// statusForFault maps a fault cause to the typed completion status the
// faulted descriptor reports.
func statusForFault(err error) Status {
	switch {
	case errors.Is(err, ErrTranslationFault):
		return StatusTranslationError
	case errors.Is(err, ErrLinkDown):
		return StatusLinkError
	case errors.Is(err, ErrCompletionDropped):
		return StatusCompletionLost
	case errors.Is(err, ErrIOPageFault):
		return StatusIOPageFault
	case errors.Is(err, ErrLengthMismatch):
		return StatusLengthError
	case errors.Is(err, ErrDMAFault), errors.Is(err, faultinject.ErrInjected):
		// Unclassified injected errors (e.g. raw phys frame faults)
		// surface as DMA engine faults: that is how the card sees them.
		return StatusDMAError
	default:
		return StatusConnectionError
	}
}

// isInjected reports whether an error came from the fault injector.
func isInjected(err error) bool { return errors.Is(err, faultinject.ErrInjected) }

// isDataFault reports errors that must fault the VI (typed status +
// error state) rather than complete the descriptor as a protection
// error: injected faults, link losses and unrecovered IO page faults.
func isDataFault(err error) bool {
	return isInjected(err) || errors.Is(err, ErrLinkDown) || errors.Is(err, ErrIOPageFault)
}

// transient reports the faults a ReliableReception VI retries: those
// that complete as a DMA, link or lost-completion status.  Translation
// faults, IO page faults the host could not resolve, receive underflows
// and length mismatches are never retried.
func transient(err error) bool {
	switch statusForFault(err) {
	case StatusDMAError, StatusLinkError, StatusCompletionLost:
		return true
	}
	return false
}

// retry is Reliable Reception: on a ReliableReception VI the NIC runs a
// step that failed with a transient fault again, at most NICRetries
// times; step charges the failed step's cost again before re-running
// it.  It returns the error the step ends with (nil once a re-run
// succeeds) — on any other VI, or for any other fault, err itself.
func (n *NIC) retry(v *VI, err error, step func() error) error {
	for i := 1; i <= NICRetries && v.rel == ReliableReception && transient(err); i++ {
		n.ctr.retries.Add(1)
		if obs := n.obs.Load(); obs != nil {
			obs.retries.Inc()
			obs.trc.Instant(trace.KindRetry, v.uid, uint64(i))
		}
		err = step()
	}
	return err
}

// faultSend is the descriptor half of a data-path fault: the VI (plus
// peer) enters the error state and the faulted send completes with its
// typed status — in that order, so whoever the completion wakes already
// finds State() == VIError and ErrorCause() set.  The descriptor was
// dequeued before, so the error-state flush does not touch it.
func (n *NIC) faultSend(v *VI, d *Descriptor, cause error) {
	n.faultSendRecv(v, d, nil, nil, cause)
}

// faultSendRecv is faultSend for a send already matched to the peer's
// receive rd: both complete with the fault's status, after both VIs are
// in the error state.
func (n *NIC) faultSendRecv(v *VI, d *Descriptor, peer *VI, rd *Descriptor, cause error) {
	n.ctr.faults.Add(1)
	v.enterError(cause)
	if rd != nil {
		peer.completeRecv(rd, statusForFault(cause), 0)
	}
	v.completeSend(d, statusForFault(cause), 0)
}

// linkCheck validates the wire between two NICs: fabric partitions
// first, then injected link faults.
func (n *NIC) linkCheck(peer *VI) error {
	if nw := n.nw.Load(); nw != nil && !nw.linkUp(n, peer.nic) {
		return fmt.Errorf("%w: %s <-> %s partitioned", ErrLinkDown, n.name, peer.nic.name)
	}
	return n.guard(SiteLink, peer.uid, 0, ErrLinkDown)
}

// recross is a retried wire crossing: charged again, checked again.
func (n *NIC) recross(peer *VI) error {
	n.meter.Charge(n.meter.Costs.WireLatency)
	return n.linkCheck(peer)
}

// failed ends a send whose step failed with err, unless retry absorbs
// the fault by running step again; it reports whether the send is over.
// The arguments are failSend's.
func (n *NIC) failed(at *NIC, v *VI, d *Descriptor, peer *VI, rd *Descriptor, err error, step func() error) bool {
	if err = n.retry(v, err, step); err == nil {
		return false
	}
	n.failSend(at, v, d, peer, rd, err)
	return true
}

// failSend ends a send whose data movement failed at the NIC at: a data
// fault faults the VI; anything else is a protection error counted where
// the check failed.  rd, when non-nil, is the peer's matched receive.
func (n *NIC) failSend(at *NIC, v *VI, d *Descriptor, peer *VI, rd *Descriptor, err error) {
	if isDataFault(err) {
		n.faultSendRecv(v, d, peer, rd, err)
		return
	}
	at.ctr.tagViolations.Add(1)
	if rd != nil {
		peer.completeRecv(rd, StatusProtectionError, 0)
	}
	v.completeSend(d, StatusProtectionError, 0)
}

// matchRecv takes the peer's next receive descriptor for a send of total
// bytes, or faults the send and returns nil: a send with no posted
// receive breaks a reliable connection, and so does one the receive
// cannot hold — its buffer length for a scatter-backed receive, the
// inline image for a bare one matched by an inline send.
func (n *NIC) matchRecv(v, peer *VI, d *Descriptor, total int) *Descriptor {
	rd := peer.popRecv()
	if rd == nil {
		peer.nic.ctr.recvUnderflows.Add(1)
		n.faultSend(v, d, ErrRecvUnderflow)
		return nil
	}
	limit := rd.TotalLength()
	if d.IsInline() && len(rd.Segs) == 0 {
		limit = MaxInlineData
	}
	if total > limit {
		n.faultSendRecv(v, d, peer, rd, ErrLengthMismatch)
		return nil
	}
	return rd
}

// finish completes a descriptor whose payload has landed: the matched
// receive rd first (sends only), then the completion write-back, which
// SiteCompletion guards.  If that is dropped the receiver has completed
// all the same; a retry writes the completion back again (one DMA
// startup), and a drop that stands faults the VI, whose error machine
// still terminates d.  It reports whether d succeeded.
func (n *NIC) finish(v, peer *VI, d, rd *Descriptor, total int) bool {
	if rd != nil {
		rd.Immediate, rd.HasImmediate = d.Immediate, d.HasImmediate
		peer.completeRecv(rd, StatusSuccess, total)
	}
	if err := n.guard(SiteCompletion, v.uid, 0, ErrCompletionDropped); err != nil && n.failed(n, v, d, nil, nil, err, func() error {
		n.meter.Charge(n.meter.Costs.DMAStartup)
		return n.guard(SiteCompletion, v.uid, 0, ErrCompletionDropped)
	}) {
		return false
	}
	v.completeSend(d, StatusSuccess, total)
	if rd != nil {
		n.ctr.sends.Add(1)
		peer.nic.ctr.recvs.Add(1)
	}
	return true
}

// processData executes a send, an RDMA write or an RDMA read.  All three
// resolve the source end, cross the wire, resolve the destination end
// and stream the payload into it; they differ only in where the ends
// are.  A send lands in the peer's matched receive descriptor.  The RDMA
// operations name remote registered memory instead, checked against the
// peer's tag and the region's RDMA attribute at the remote NIC, and
// consume no remote descriptor; a read streams towards the poster, once
// its request has crossed the wire.
func (n *NIC) processData(v, peer *VI, d *Descriptor) {
	sc := n.stageStart()
	s := getStream(d.TotalLength())
	defer s.release()
	// d belongs to its poster again once it completes: op outlives it.
	op, pn := d.Op, peer.nic
	read := op == OpRDMARead
	s.remote[0] = Segment{d.Remote.Handle, d.Remote.Offset, s.total}
	src, dst := dmaEnd{n, v.tag, d.Segs, nil}, dmaEnd{pn, peer.tag, s.remote[:], rdmaWritable}
	if read {
		src, dst = dmaEnd{pn, peer.tag, s.remote[:], rdmaReadable}, src
		if err := n.linkCheck(peer); err != nil && n.failed(n, v, d, nil, nil, err, func() error { return n.recross(peer) }) {
			return
		}
		n.meter.Charge(n.meter.Costs.WireLatency) // request
	}
	if err := s.resolve(src, false); err != nil && n.failed(src.nic, v, d, nil, nil, err, func() error { return s.restart(src, nil) }) {
		return
	}
	if !read {
		if err := n.linkCheck(peer); err != nil && n.failed(n, v, d, nil, nil, err, func() error { return n.recross(peer) }) {
			return
		}
	}
	if op == OpSend && s.total == 0 && d.HasImmediate {
		// Immediate-only fast path: the four data bytes ride inside the
		// descriptor, so the second DMA action (the data fetch) is saved
		// entirely — the optimization the VIA spec provides for tiny
		// payloads.
		n.ctr.immediateOnly.Add(1)
	} else {
		m := src.nic.meter
		m.Charge(m.Costs.DMAStartup)
		m.ChargeN(m.Costs.DMAPerByte, s.total)
	}
	sc.mark(trace.KindDMA, s.total)
	n.meter.Charge(n.meter.Costs.WireLatency)
	sc.mark(trace.KindWire, s.total)

	var rd *Descriptor
	if op == OpSend {
		if rd = n.matchRecv(v, peer, d, s.total); rd == nil {
			return
		}
		dst.segs, dst.need = rd.Segs, nil
		// Cut-through delivery: the receiver's DMA engine streams the
		// payload as it arrives, overlapping the sender's transfer, so only
		// the startup cost adds latency (per-byte time was charged at the
		// sender).  Immediate-only messages skip the data DMA here too.
		if s.total > 0 {
			pn.meter.Charge(pn.meter.Costs.DMAStartup)
		}
	}
	if err := s.resolve(dst, true); err != nil && n.failed(dst.nic, v, d, peer, rd, err, func() error { return s.restart(src, &dst) }) {
		return
	}
	sc.mark(trace.KindScatter, s.total)
	if !n.finish(v, peer, d, rd, s.total) {
		return
	}
	switch op {
	case OpRDMAWrite:
		n.ctr.rdmaWrites.Add(1)
	case OpRDMARead:
		n.ctr.rdmaReads.Add(1)
	}
	src.nic.ctr.bytesTX.Add(uint64(s.total))
	dst.nic.ctr.bytesRX.Add(uint64(s.total))
}

// processSendInline is the small-message fast path: the payload already
// sits in the descriptor image (PIO-written at post time), so there is
// no TPT translation, no DMA at either end and nothing to stream — the
// engine puts the image on the wire and the receiving NIC writes it back
// into the matched receive descriptor's image, where the consumer reads
// it without touching registered memory.
func (n *NIC) processSendInline(v, peer *VI, d *Descriptor) {
	sc := n.stageStart()
	payload := d.Inline()
	if err := n.linkCheck(peer); err != nil && n.failed(n, v, d, nil, nil, err, func() error { return n.recross(peer) }) {
		return
	}
	// No DMA startup and no per-byte DMA: the payload was charged as PIO
	// when the descriptor was built.  Only the wire crossing remains.
	n.meter.Charge(n.meter.Costs.WireLatency)
	sc.mark(trace.KindWire, len(payload))

	rd := n.matchRecv(v, peer, d, len(payload))
	if rd == nil {
		return
	}
	rd.setInlineRecv(payload)
	if !n.finish(v, peer, d, rd, len(payload)) {
		return
	}
	n.ctr.inlineSends.Add(1)
	n.ctr.bytesTX.Add(uint64(len(payload)))
	peer.nic.ctr.bytesRX.Add(uint64(len(payload)))
}
