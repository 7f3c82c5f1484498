// Package mm simulates the Linux 2.2/2.4 memory-management subsystem the
// paper analyses in §2: per-process address spaces with VMAs and page
// tables, demand paging, copy-on-write, the page cache, and — centrally —
// the reclaim path get_free_page → try_to_free_pages → shrink_mmap →
// swap_out → swap_out_process → swap_out_vma, with exactly the skip rules
// the paper describes (PG_locked / PG_reserved / VM_LOCKED / pin counts).
//
// All kernel state is protected by one mutex, mirroring the global kernel
// lock of the era.  kswapd runs as an optional goroutine; direct reclaim
// happens synchronously inside GetFreePage just as in the real kernel.
package mm

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/phys"
	"repro/internal/simtime"
	"repro/internal/swapdev"
)

// Errors surfaced to simulated user space.
var (
	// ErrSegv is the simulated SIGSEGV: access outside any VMA or against
	// its protection.
	ErrSegv = errors.New("mm: segmentation fault")
	// ErrOOM means reclaim could not produce a free frame.
	ErrOOM = errors.New("mm: out of memory")
	// ErrPerm is EPERM: the caller lacks a required capability.
	ErrPerm = errors.New("mm: operation not permitted")
	// ErrNoProcess means the address space is unknown or already gone.
	ErrNoProcess = errors.New("mm: no such process")
	// ErrSwapFull means no swap slot could be allocated during swap-out.
	ErrSwapFull = errors.New("mm: swap space exhausted")
)

// Stats counts kernel MM activity for the experiments.
type Stats struct {
	MinorFaults   uint64 // demand-zero and COW faults
	MajorFaults   uint64 // faults serviced from swap
	SwapOuts      uint64 // pages written to swap
	SwapIns       uint64 // pages read back from swap
	SwapCacheHit  uint64 // re-evictions that skipped the device write
	COWCopies     uint64 // copy-on-write page copies
	ClockScans    uint64 // page-map entries inspected by shrink_mmap
	CacheReclaim  uint64 // page-cache frames reclaimed by shrink_mmap
	DirectScans   uint64 // try_to_free_pages invocations
	KswapdRuns    uint64 // background reclaim passes
	IOClobbers    uint64 // PG_locked cleared under an in-flight kernel I/O
	NotifierFires uint64 // range-notifier callbacks fired (nopin invalidation)

	// Ownership-transfer (write-guard and frame-exchange) activity.
	ScribbleFaults uint64 // stores caught against write-guarded pages
	GuardCopies    uint64 // copy-on-touch copies taken for guarded stores
	FrameDonations uint64 // frames donated as remap staging
	FrameAdopts    uint64 // donated frames exchanged into a page table
}

// Config tunes the kernel.
type Config struct {
	// RAMPages is the number of physical frames.
	RAMPages int
	// SwapPages is the swap device capacity.
	SwapPages int
	// FreeLow is the watermark below which reclaim starts.
	FreeLow int
	// FreeHigh is the watermark reclaim tries to reach.
	FreeHigh int
	// ClockBatch is how many page-map entries one shrink_mmap pass scans.
	ClockBatch int
	// SwapBatch is how many pages one swap_out pass tries to evict.
	SwapBatch int

	// NoSecondChance disables the accessed-bit second chance in the
	// swap path (ablation: recently used pages become eviction victims
	// immediately, inflating major faults on hot working sets).
	NoSecondChance bool
	// IgnorePageLocks makes reclaim disregard PG_locked/PG_reserved
	// (ablation: a hypothetical kernel without the skip rule — the
	// flag-based locking strategy then silently loses its pages, while
	// pin counts still hold, demonstrating that pins are a contract and
	// flags an implementation accident).
	IgnorePageLocks bool
}

// DefaultConfig returns a small-node configuration (16 MiB RAM, 32 MiB
// swap) suitable for the experiments: small enough that the allocator
// workload can exhaust it quickly, large enough for realistic layouts.
func DefaultConfig() Config {
	return Config{
		RAMPages:   4096, // 16 MiB
		SwapPages:  8192, // 32 MiB
		FreeLow:    64,
		FreeHigh:   128,
		ClockBatch: 128,
		SwapBatch:  32,
	}
}

// Kernel is one simulated node's MM subsystem.
type Kernel struct {
	mu    sync.Mutex
	cfg   Config
	phys  *phys.Memory
	swap  *swapdev.Device
	meter *simtime.Meter

	procs  []*AddressSpace // live address spaces, ascending id
	nextID int

	// swap-out rotor state: which process and where inside it the last
	// scan stopped, so pressure is spread round-robin as in the kernel.
	swapRotor int

	// clock hand of shrink_mmap over the page map.
	clockHand phys.PFN

	// page-cache frames (kernel-owned, reclaimable by shrink_mmap).
	pageCache map[phys.PFN]*cachePage

	// swapCache associates a resident frame with the swap slot its image
	// still occupies (PG_SwapCache): a clean re-eviction can then skip
	// the device write.  The slot keeps one use count while cached.
	swapCache map[phys.PFN]swapdev.Slot

	// in-flight kernel I/O per frame (owners of PG_locked).
	pageIO map[phys.PFN]int

	// range notifiers (the MMU-notifier registry): callbacks fired when
	// a page inside a watched range is swapped out, unmapped or
	// COW-replaced.  See notifier.go for the contract.
	notifiers    map[int]*rangeNotifier
	nextNotifier int

	// active write guards (the ownership-transfer revocation windows);
	// see sendguard.go for the contract.
	guards    map[int]*WriteGuard
	nextGuard int

	// kernelPin marks a pin batch in progress: registrations of guarded
	// pages then resolve to the frozen frame instead of tripping the
	// scribble policy (the pin is a kernel snapshot, not an application
	// store).
	kernelPin bool

	// pinLists holds the frame lists UnpinUserPagesNested took back,
	// for the next PinUserPagesNested batch (LIFO).
	pinLists [][]phys.PFN

	stats Stats

	// kswapd control.
	kswapdStop chan struct{}
	kswapdDone chan struct{}
	kswapdKick chan struct{}
}

type cachePage struct {
	referenced bool
}

// NewKernel boots a node.
func NewKernel(cfg Config, meter *simtime.Meter) *Kernel {
	if cfg.RAMPages <= 0 {
		cfg = DefaultConfig()
	}
	if cfg.ClockBatch <= 0 {
		cfg.ClockBatch = 128
	}
	if cfg.SwapBatch <= 0 {
		cfg.SwapBatch = 32
	}
	return &Kernel{
		cfg:       cfg,
		phys:      phys.New(cfg.RAMPages),
		swap:      swapdev.New(cfg.SwapPages),
		meter:     meter,
		nextID:    1,
		pageCache: make(map[phys.PFN]*cachePage),
		swapCache: make(map[phys.PFN]swapdev.Slot),
		pageIO:    make(map[phys.PFN]int),
		notifiers: make(map[int]*rangeNotifier),
		guards:    make(map[int]*WriteGuard),
	}
}

// Phys exposes the node's physical memory (the NIC and swap paths use it).
func (k *Kernel) Phys() *phys.Memory { return k.phys }

// Swap exposes the node's swap device.
func (k *Kernel) Swap() *swapdev.Device { return k.swap }

// Meter exposes the virtual-time meter.
func (k *Kernel) Meter() *simtime.Meter { return k.meter }

// Config returns the boot configuration.
func (k *Kernel) Config() Config { return k.cfg }

// Stats returns a snapshot of kernel statistics.
func (k *Kernel) Stats() Stats {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.stats
}

// FreePages reports the current number of free frames.
func (k *Kernel) FreePages() int { return k.phys.FreeFrames() }

// charge advances the virtual clock (nil-safe).
func (k *Kernel) charge(d simtime.Duration) { k.meter.Charge(d) }

// chargeN advances the virtual clock by n×d.
func (k *Kernel) chargeN(d simtime.Duration, n int) { k.meter.ChargeN(d, n) }

// costs returns the cost model (zero model when no meter is attached).
func (k *Kernel) costs() simtime.CostModel {
	if k.meter == nil {
		return simtime.CostModel{}
	}
	return k.meter.Costs
}

// ---------------------------------------------------------------------------
// Page-cache simulation.
//
// shrink_mmap only reclaims page-cache and buffer-cache frames — the paper
// notes it "does not touch user pages of a process".  To make the clock
// algorithm observable we let tests and workloads populate cache frames,
// which reclaim then cycles through before falling back to swap_out.

// PopulateCache fills n frames as page-cache contents (simulated file
// reads).  It stops early when memory runs short and reports how many
// frames it added.
func (k *Kernel) PopulateCache(n int) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	added := 0
	for i := 0; i < n; i++ {
		pfn, err := k.phys.AllocFrame()
		if err != nil {
			break
		}
		k.pageCache[pfn] = &cachePage{referenced: true}
		added++
	}
	k.charge(simtime.Duration(added) * k.costs().PageAlloc)
	return added
}

// CachePages reports the current page-cache size in frames.
func (k *Kernel) CachePages() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.pageCache)
}

// TouchCache marks up to n cache frames referenced, giving them a second
// chance against the clock hand.
func (k *Kernel) TouchCache(n int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, cp := range k.pageCache {
		if n <= 0 {
			break
		}
		cp.referenced = true
		n--
	}
}

// ---------------------------------------------------------------------------
// Kernel page I/O: the legitimate owner of PG_locked.

// LockPageIO marks the frame as under kernel I/O, setting PG_locked.
// Nested kernel I/O on one frame is reference counted internally (the
// real kernel sleeps on the bit instead; counting keeps the simulation
// deadlock-free while preserving observable behaviour).
func (k *Kernel) LockPageIO(pfn phys.PFN) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if err := k.phys.SetFlags(pfn, phys.PGLocked); err != nil {
		return err
	}
	k.pageIO[pfn]++
	return nil
}

// UnlockPageIO ends a kernel I/O on the frame.  If some third party (a
// misbehaving driver) already cleared PG_locked, the event is counted as
// an I/O clobber — the hazard the paper attributes to the Giganet
// approach — and the flag state is left as found.
func (k *Kernel) UnlockPageIO(pfn phys.PFN) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	n := k.pageIO[pfn]
	if n == 0 {
		return fmt.Errorf("mm: UnlockPageIO on pfn %d without LockPageIO", pfn)
	}
	if !k.phys.TestFlags(pfn, phys.PGLocked) {
		// Someone cleared the bit out from under the I/O.
		k.stats.IOClobbers++
		k.pageIO[pfn] = n - 1
		if k.pageIO[pfn] == 0 {
			delete(k.pageIO, pfn)
		}
		return nil
	}
	k.pageIO[pfn] = n - 1
	if k.pageIO[pfn] == 0 {
		delete(k.pageIO, pfn)
		return k.phys.ClearFlags(pfn, phys.PGLocked)
	}
	return nil
}

// IOClobberCount reports how many kernel I/O completions found their
// PG_locked bit already cleared by a third party.
func (k *Kernel) IOClobberCount() uint64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.stats.IOClobbers
}
