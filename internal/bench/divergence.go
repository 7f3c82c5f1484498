package bench

import (
	"repro/internal/core"
	"repro/internal/phys"
	"repro/internal/pressure"
	"repro/internal/via"
)

// divergenceRegionPages is the probed registration's size.
const divergenceRegionPages = 64

// divergenceRun registers one region, then alternates pressure bursts
// (0.25×RAM each) with buffer re-touches and consistency probes,
// returning the consistent-page count after each step.
func divergenceRun(s core.Strategy, steps int) ([]int, error) {
	_, node, err := oneNode(s)
	if err != nil {
		return nil, err
	}
	p := node.NewProcess("probe", false)
	buf, err := p.Malloc(divergenceRegionPages * phys.PageSize)
	if err != nil {
		return nil, err
	}
	if err := buf.FillPattern(9); err != nil {
		return nil, err
	}
	reg, err := node.Agent.RegisterMem(p.AS(), buf.Addr, buf.Bytes, via.ProtectionTag(p.ID()), via.MemAttrs{})
	if err != nil {
		return nil, err
	}
	defer func() { _ = node.Agent.DeregisterMem(reg) }()

	hog := pressure.NewHog(node.Kernel)
	defer func() { _ = hog.Release() }()
	step := node.Kernel.Config().RAMPages / 4

	out := make([]int, 0, steps)
	for i := 0; i < steps; i++ {
		if _, err := hog.Grow(step); err != nil {
			return nil, err
		}
		// The application keeps using its buffer, faulting evicted pages
		// back into fresh frames.
		if err := buf.Touch(); err != nil {
			return nil, err
		}
		consistent, _, err := node.Agent.ConsistentPages(reg)
		if err != nil {
			return nil, err
		}
		out = append(out, consistent)
	}
	return out, nil
}
