package bench

import (
	"fmt"
	"io"

	"repro/internal/mm"
	"repro/internal/pgtable"
	"repro/internal/phys"
	"repro/internal/pressure"
	"repro/internal/report"
	"repro/internal/simtime"
	"repro/internal/vma"
)

// SwapSim regenerates E9, the §2 swap mechanics the paper analyses: it
// boots a small node, populates page cache and process memory, applies
// pressure, and prints how the clock scan and the swap_out chain treat
// each page category — locked pages skipped, cache pages cycled, plain
// process pages evicted.
func SwapSim(w io.Writer) error {
	const (
		ram         = 1024 // physical frames
		cachePages  = 128  // page-cache frames to populate
		lockedPages = 32   // process pages locked with mlock
		pinnedPages = 32   // process pages pinned via kiobuf-style pins
		plainPages  = 64   // ordinary process pages
		hog         = 1.25 // allocator pressure as a fraction of RAM
	)
	cfg := mm.DefaultConfig()
	cfg.RAMPages = ram
	k := mm.NewKernel(cfg, simtime.NewMeter())

	// A root process with three kinds of memory.
	as := k.CreateProcess("victim", true)
	mk := func(pages int) (pgtable.VAddr, error) {
		addr, err := k.MMap(as, pages, vma.Read|vma.Write)
		if err != nil {
			return 0, err
		}
		return addr, k.Touch(as, addr, pages)
	}
	lockedAddr, err := mk(lockedPages)
	if err != nil {
		return err
	}
	if err := k.DoMlock(as, lockedAddr, lockedPages); err != nil {
		return err
	}
	pinnedAddr, err := mk(pinnedPages)
	if err != nil {
		return err
	}
	pfns, err := k.PinUserPages(as, pinnedAddr, pinnedPages, true)
	if err != nil {
		return err
	}
	defer func() { _ = k.UnpinUserPages(pfns) }()
	plainAddr, err := mk(plainPages)
	if err != nil {
		return err
	}
	k.PopulateCache(cachePages)

	before := k.Stats()
	fmt.Fprintf(w, "before pressure: %d/%d frames free, cache %d pages\n\n",
		k.FreePages(), ram, k.CachePages())

	pres, err := pressure.Level(k, hog)
	if err != nil {
		return err
	}

	resident := func(addr pgtable.VAddr, pages int) int {
		n := 0
		for i := 0; i < pages; i++ {
			pfn, _ := k.ResidentPFN(as, addr+pgtable.VAddr(i*phys.PageSize))
			if pfn != phys.NoPFN {
				n++
			}
		}
		return n
	}

	t := report.Table{
		Title:   fmt.Sprintf("E9: swap mechanics under %.2fx RAM pressure (%d-frame node)", hog, ram),
		Note:    "VM_LOCKED and pinned pages are skipped by swap_out; the clock scan reclaims only page-cache frames; plain pages take the eviction",
		Headers: []string{"category", "pages", "still-resident", "evicted"},
	}
	addRow := func(name string, pages, res int) {
		t.AddRow(name, pages, res, pages-res)
	}
	addRow("mlock (VM_LOCKED)", lockedPages, resident(lockedAddr, lockedPages))
	addRow("pinned (kiobuf)", pinnedPages, resident(pinnedAddr, pinnedPages))
	addRow("plain process", plainPages, resident(plainAddr, plainPages))
	addRow("page cache", cachePages, k.CachePages())
	t.Fprint(w)

	after := k.Stats()
	s := report.Table{
		Title:   "reclaim activity",
		Headers: []string{"counter", "value"},
	}
	s.AddRow("allocator pages touched", pres.PagesTouched)
	s.AddRow("direct reclaim passes", after.DirectScans-before.DirectScans)
	s.AddRow("clock-scan steps", after.ClockScans-before.ClockScans)
	s.AddRow("cache frames reclaimed", after.CacheReclaim-before.CacheReclaim)
	s.AddRow("pages swapped out", after.SwapOuts-before.SwapOuts)
	s.AddRow("pages swapped back in", after.SwapIns-before.SwapIns)
	s.AddRow("swap-cache hits (writes skipped)", after.SwapCacheHit-before.SwapCacheHit)
	s.AddRow("major faults", after.MajorFaults-before.MajorFaults)
	s.Fprint(w)
	return nil
}
