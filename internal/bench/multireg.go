package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/phys"
	"repro/internal/pressure"
	"repro/internal/report"
	"repro/internal/via"
)

// MultiReg regenerates E2: the multiple-registration semantics table.
// For each strategy the same region is registered twice; after one
// deregistration the surviving registration must still pin the pages
// (the VIA rule), and after both deregistrations the pages must be
// evictable again (no permanent lock leak).
func MultiReg(w io.Writer) error {
	t := report.Table{
		Title: "E2: multiple-registration semantics (register 2x, deregister stepwise)",
		Note:  "pageflag unconditionally clears the lock bits on the FIRST deregistration (paper §3.1); mlock needs the driver-side counts of §3.2; kiobuf nests by construction",
		Headers: []string{
			"strategy", "survives-1-dereg", "evictable-after-all", "verdict",
		},
	}
	for _, s := range core.Strategies() {
		row, err := multiRegRow(s)
		if err != nil {
			return fmt.Errorf("%s: %w", s, err)
		}
		t.AddRow(row...)
	}
	t.Fprint(w)
	return nil
}

const multiRegPages = 8

func multiRegRow(s core.Strategy) ([]any, error) {
	_, node, err := oneNode(s)
	if err != nil {
		return nil, err
	}
	p := node.NewProcess("app", false)
	buf, err := p.Malloc(multiRegPages * phys.PageSize)
	if err != nil {
		return nil, err
	}
	if err := buf.FillPattern(1); err != nil {
		return nil, err
	}
	tag := via.ProtectionTag(p.ID())
	reg1, err := node.Agent.RegisterMem(p.AS(), buf.Addr, buf.Bytes, tag, via.MemAttrs{})
	if err != nil {
		return nil, err
	}
	reg2, err := node.Agent.RegisterMem(p.AS(), buf.Addr, buf.Bytes, tag, via.MemAttrs{})
	if err != nil {
		return nil, err
	}
	if err := node.Agent.DeregisterMem(reg1); err != nil {
		return nil, err
	}
	if _, err := pressure.Level(node.Kernel, 1.5); err != nil {
		return nil, err
	}
	consistent, total, err := node.Agent.ConsistentPages(reg2)
	if err != nil {
		return nil, err
	}
	survives := consistent == total

	if err := node.Agent.DeregisterMem(reg2); err != nil {
		return nil, err
	}
	if _, err := pressure.Level(node.Kernel, 1.5); err != nil {
		return nil, err
	}
	resident := 0
	pfns, err := buf.ResidentPFNs()
	if err != nil {
		return nil, err
	}
	for _, pfn := range pfns {
		if pfn != phys.NoPFN {
			resident++
		}
	}
	evictable := resident < multiRegPages

	verdict := "BROKEN"
	if survives && evictable {
		verdict = "CORRECT"
	} else if survives {
		verdict = "LEAKS-LOCKS"
	}
	return []any{string(s), report.Bool(survives), report.Bool(evictable), verdict}, nil
}
