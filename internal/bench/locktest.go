package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/locktest"
	"repro/internal/report"
)

// Locktest regenerates the paper's §3.1 experiment for every locking
// strategy (E1) and the conformance/safety matrix that follows from it
// (E8).
func Locktest(w io.Writer) error {
	cfg := locktest.DefaultConfig()
	results, err := locktest.RunAll(cfg)
	if err != nil {
		return err
	}
	t := report.Table{
		Title: fmt.Sprintf("E1: locktest experiment — %d-page region, pressure %.2fx RAM", cfg.RegionPages, cfg.PressureFraction),
		Note:  "paper §3.1: refcount-only locking leaves the TPT stale; DMA writes land in orphaned frames",
		Headers: []string{
			"strategy", "relocated", "tpt-consistent", "dma-visible",
			"orphans", "swapouts", "reg-time", "dereg-time", "stable", "verdict",
		},
	}
	for _, r := range results {
		t.AddRow(
			string(r.Strategy),
			fmt.Sprintf("%d/%d", r.PagesRelocated, r.Pages),
			fmt.Sprintf("%d/%d", r.TPTConsistentPages, r.Pages),
			report.Bool(r.DMAVisible),
			r.OrphanedFrames,
			r.SwapOuts,
			r.RegisterTime.String(),
			r.DeregisterTime.String(),
			report.Bool(r.InvariantsHeld),
			r.Verdict(),
		)
	}
	t.Fprint(w)

	m := report.Table{
		Title: "E8: conformance and safety matrix",
		Note:  "the kiobuf mechanism is the only one that is reliable, nests, and needs neither page-table walks, privilege, nor page-flag abuse (paper §4)",
		Headers: []string{
			"strategy", "reliable", "nests", "walks-page-tables",
			"needs-privilege", "touches-page-flags",
		},
	}
	for _, s := range core.Strategies() {
		p := s.Properties()
		m.AddRow(string(s), report.Bool(p.Reliable), report.Bool(p.Nests),
			report.Bool(p.WalksPageTables), report.Bool(p.NeedsPrivilege),
			report.Bool(p.TouchesPageFlags))
	}
	m.Fprint(w)
	return nil
}
