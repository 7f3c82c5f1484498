// Package locktest reproduces the paper's §3.1 experiment as a reusable
// harness.  The eight steps, quoted from the paper:
//
//  1. locktest allocates some memory and fills it with data, so each
//     virtual page maps a distinct physical page;
//  2. registration is simulated: reference counters are incremented (or
//     whatever the strategy under test does) and the physical addresses
//     are stored — here: a full registration through the kernel agent
//     into the NIC's TPT;
//  3. an allocator process allocates as much memory as possible, forcing
//     a large number of pages to be swapped out;
//  4. locktest writes again to each page of the memory block;
//  5. the kernel agent writes a value to the first page using the
//     physical address obtained during registration (simulated NIC DMA);
//  6. the physical addresses are derived from the page tables again and
//     compared to those acquired during registration;
//  7. the block is deregistered;
//  8. the contents of the first page are examined: does the process see
//     the DMA write?
//
// The paper's observed outcome for refcount-only locking: "all physical
// addresses had changed and the first page still contained its original
// value" — the TPT went stale and the DMA landed in an orphaned frame.
package locktest

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/kagent"
	"repro/internal/mm"
	"repro/internal/phys"
	"repro/internal/pressure"
	"repro/internal/proc"
	"repro/internal/simtime"
	"repro/internal/via"
)

// Config parameterizes a run.
type Config struct {
	// RegionPages is the size of the registered block.
	RegionPages int
	// PressureFraction scales the allocator workload relative to RAM
	// (the paper's "as much as possible" corresponds to >1).
	PressureFraction float64
	// Kernel configures the simulated node; zero value = mm defaults.
	Kernel mm.Config
	// TPTSlots sizes the NIC table (0 = default).
	TPTSlots int
}

// DefaultConfig mirrors the paper's setting scaled to the simulated
// node: a 64-page (256 KiB) region on a 16 MiB machine, pressure well
// past physical memory.
func DefaultConfig() Config {
	return Config{
		RegionPages:      64,
		PressureFraction: 1.5,
		Kernel:           mm.DefaultConfig(),
	}
}

// Result is the outcome of one locktest run.
type Result struct {
	Strategy core.Strategy
	Pages    int

	// RegisterTime / DeregisterTime are the virtual costs of steps 2/7.
	RegisterTime   simtime.Duration
	DeregisterTime simtime.Duration

	// PagesRelocated counts pages whose physical address after step 4
	// differs from registration time (step 6's comparison).
	PagesRelocated int
	// TPTConsistentPages counts pages still TPT-consistent before
	// deregistration.
	TPTConsistentPages int
	// DMAVisible reports whether the process saw the kernel agent's DMA
	// write (step 8).
	DMAVisible bool
	// DataIntact reports whether the rest of the block survived
	// unchanged through pressure (CPU view).
	DataIntact bool
	// OrphanedFrames counts frames stranded while registered (leak).
	OrphanedFrames int
	// SwapOuts is the eviction traffic the allocator generated.
	SwapOuts uint64
	// InvariantsHeld reports whether the kernel survived with consistent
	// accounting (system stability; the paper notes stability was never
	// affected).
	InvariantsHeld bool
	// InvariantErr carries the first violation, if any.
	InvariantErr error
}

// Verdict summarizes the run in the paper's terms.
func (r Result) Verdict() string {
	switch {
	case r.PagesRelocated == 0 && r.DMAVisible:
		return "RELIABLE"
	case r.DMAVisible:
		return "PARTIAL"
	default:
		return "BROKEN"
	}
}

// dmaMark is the value the kernel agent writes in step 5.
var dmaMark = []byte("DMA-WRITE-MARK")

// markOffset is where in the first page the mark is written (clear of
// the pattern check, which we exclude around the mark).
const markOffset = 64

// Run executes the experiment for one strategy.
func Run(strategy core.Strategy, cfg Config) (Result, error) {
	res := Result{Strategy: strategy, Pages: cfg.RegionPages}
	if cfg.RegionPages <= 0 {
		return res, fmt.Errorf("locktest: RegionPages must be positive")
	}
	meter := simtime.NewMeter()
	kernel := mm.NewKernel(cfg.Kernel, meter)
	nic := via.NewNIC("locktest-nic", kernel.Phys(), meter, cfg.TPTSlots)
	agent := kagent.New(kernel, nic, core.MustNew(strategy))
	p := proc.New(kernel, "locktest", false)
	tag := via.ProtectionTag(p.ID())

	// Step 1: allocate and fill, so every page maps a distinct frame.
	buf, err := p.Malloc(cfg.RegionPages * phys.PageSize)
	if err != nil {
		return res, err
	}
	const seed = 42
	if err := buf.FillPattern(seed); err != nil {
		return res, err
	}

	// Step 2: register; the physical addresses are recorded in the TPT.
	swReg := meter.Start()
	reg, err := agent.RegisterMem(p.AS(), buf.Addr, buf.Bytes, tag, via.MemAttrs{})
	if err != nil {
		return res, fmt.Errorf("locktest: register: %w", err)
	}
	res.RegisterTime = swReg.Elapsed()
	regPages := reg.Pages()

	// Step 3: the allocator forces swap-outs.
	pres, err := pressure.Level(kernel, cfg.PressureFraction)
	if err != nil {
		return res, fmt.Errorf("locktest: allocator: %w", err)
	}
	res.SwapOuts = pres.SwapOuts

	// Step 4: write to each page again (swapped pages fault back in).
	if err := buf.Touch(); err != nil {
		return res, fmt.Errorf("locktest: re-touch: %w", err)
	}

	// Step 5: the kernel agent writes through the registered handle —
	// the addresses recorded at registration time.
	if err := nic.DMAWriteLocal(reg.Handle, markOffset, dmaMark, tag); err != nil {
		return res, fmt.Errorf("locktest: DMA write: %w", err)
	}

	// Step 6: compare current physical layout with registration time.
	nowPFNs, err := buf.ResidentPFNs()
	if err != nil {
		return res, err
	}
	for i, pfn := range nowPFNs {
		if pfn == phys.NoPFN || pfn != regPages[i] {
			res.PagesRelocated++
		}
	}
	c, _, err := agent.ConsistentPages(reg)
	if err != nil {
		return res, err
	}
	res.TPTConsistentPages = c
	res.OrphanedFrames = kernel.OrphanFrames()

	// Step 7: deregister.
	swDereg := meter.Start()
	if err := agent.DeregisterMem(reg); err != nil {
		return res, fmt.Errorf("locktest: deregister: %w", err)
	}
	res.DeregisterTime = swDereg.Elapsed()

	// Step 8: does the process see the DMA write?
	got := make([]byte, len(dmaMark))
	if err := buf.Read(markOffset, got); err != nil {
		return res, err
	}
	res.DMAVisible = bytes.Equal(got, dmaMark)

	// Extra check: the rest of the block must hold the original pattern
	// (pages beyond the first; the first page is polluted by the mark).
	bad, err := buf.VerifyPattern(seed)
	if err != nil {
		return res, err
	}
	res.DataIntact = true
	for _, pg := range bad {
		if pg != 0 {
			res.DataIntact = false
		}
	}

	if err := kernel.CheckInvariants(); err != nil {
		res.InvariantsHeld = false
		res.InvariantErr = err
	} else {
		res.InvariantsHeld = true
	}
	return res, nil
}

// RunAll executes the experiment for every strategy with one config.
func RunAll(cfg Config) ([]Result, error) {
	out := make([]Result, 0, len(core.Strategies()))
	for _, s := range core.Strategies() {
		r, err := Run(s, cfg)
		if err != nil {
			return out, fmt.Errorf("%s: %w", s, err)
		}
		out = append(out, r)
	}
	return out, nil
}
