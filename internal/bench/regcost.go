// Package bench implements the experiment tables behind cmd/viabench:
// each function in Tables regenerates one or more of the evaluation's
// tables or figures (see DESIGN.md's experiment index) and writes them
// as aligned text.
package bench

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mm"
	"repro/internal/phys"
	"repro/internal/report"
	"repro/internal/via"
)

// regSizes is the page-count sweep used by the cost figures.
var regSizes = []int{1, 4, 16, 64, 256, 1024}

// benchKernelConfig is the node used for the cost sweeps: 16 MiB RAM so
// even the 4 MiB region fits without reclaim noise.
func benchKernelConfig() mm.Config {
	cfg := mm.DefaultConfig()
	cfg.RAMPages = 4096
	return cfg
}

// oneNode builds a single-node rig for a strategy.
func oneNode(s core.Strategy) (*cluster.Cluster, *cluster.Node, error) {
	c, err := cluster.New(cluster.Config{
		Nodes:    1,
		Strategy: s,
		Kernel:   benchKernelConfig(),
		TPTSlots: 4096,
	})
	if err != nil {
		return nil, nil, err
	}
	return c, c.Nodes[0], nil
}

// measureRegDereg measures one register+deregister pair in virtual time.
func measureRegDereg(s core.Strategy, pages int) (reg, dereg float64, err error) {
	c, node, err := oneNode(s)
	if err != nil {
		return 0, 0, err
	}
	p := node.NewProcess("bench", false)
	buf, err := p.Malloc(pages * phys.PageSize)
	if err != nil {
		return 0, 0, err
	}
	tag := via.ProtectionTag(p.ID())

	sw := c.Meter.Start()
	r, err := node.Agent.RegisterMem(p.AS(), buf.Addr, buf.Bytes, tag, via.MemAttrs{})
	if err != nil {
		return 0, 0, err
	}
	regT := sw.Elapsed()

	sw = c.Meter.Start()
	if err := node.Agent.DeregisterMem(r); err != nil {
		return 0, 0, err
	}
	deregT := sw.Elapsed()
	return regT.Micros(), deregT.Micros(), nil
}

// RegCost regenerates E3: registration cost vs region size per strategy.
func RegCost(w io.Writer) error {
	return costSeries(w, "E3: registration cost vs region size (simulated µs)",
		"constant kernel-call offset + linear per-page term; kiobuf pays the pin per page, mlock pays VMA ops, refcount pays page-table walks",
		func(reg, _ float64) float64 { return reg })
}

// DeregCost regenerates E4: deregistration cost vs region size.
func DeregCost(w io.Writer) error {
	return costSeries(w, "E4: deregistration cost vs region size (simulated µs)",
		"one TPT invalidation per page plus the unlock path; mlock pays the munlock kernel call, kiobuf the unmap call",
		func(_, dereg float64) float64 { return dereg })
}

// costSeries sweeps regSizes × strategies and plots pick(reg, dereg).
func costSeries(w io.Writer, title, note string, pick func(reg, dereg float64) float64) error {
	s := report.Series{Title: title, Note: note, XLabel: "region", Lines: strategyNames()}
	for _, pages := range regSizes {
		ys := make([]any, 0, len(core.Strategies()))
		for _, strat := range core.Strategies() {
			reg, dereg, err := measureRegDereg(strat, pages)
			if err != nil {
				return fmt.Errorf("%s/%d pages: %w", strat, pages, err)
			}
			ys = append(ys, pick(reg, dereg))
		}
		s.AddPoint(report.Bytes(pages*phys.PageSize), ys...)
	}
	s.Fprint(w)
	return nil
}

func strategyNames() []string {
	out := make([]string, 0, len(core.Strategies()))
	for _, s := range core.Strategies() {
		out = append(out, string(s))
	}
	return out
}
