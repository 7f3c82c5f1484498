package bench

import (
	"fmt"
	"io"

	"repro/internal/bigphys"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mm"
	"repro/internal/phys"
	"repro/internal/report"
	"repro/internal/simtime"
	"repro/internal/via"
)

// Bigphys regenerates E13: the pre-kiobuf baseline.  With the
// Bigphysarea scheme, application data in ordinary memory must be
// staged into the boot-reserved region before the NIC can touch it
// (one bounce copy each way); with flexible translation plus reliable
// locking, the user buffer itself is registered and the copy
// disappears.  The sweep reports per-transfer simulated time for both
// schemes across message sizes, warm (steady-state) in both cases.
func Bigphys(w io.Writer) error {
	s := report.Series{
		Title:  "E13: Bigphysarea staging vs registered user memory (simulated µs per transfer)",
		Note:   "bigphysarea needs no locking calls but pays a bounce copy per transfer and reserves RAM at boot; the kiobuf path registers the user buffer once and streams from it",
		XLabel: "message",
		Lines:  []string{"bigphys+copy", "kiobuf-registered", "speedup"},
	}
	for _, size := range []int{4 << 10, 64 << 10, 256 << 10, 1 << 20} {
		tb, err := bigphysTransfer(size)
		if err != nil {
			return fmt.Errorf("bigphys %d: %w", size, err)
		}
		tk, err := kiobufTransfer(size)
		if err != nil {
			return fmt.Errorf("kiobuf %d: %w", size, err)
		}
		s.AddPoint(report.Bytes(size), tb.Micros(), tk.Micros(), tb.Micros()/tk.Micros())
	}
	s.Fprint(w)
	return nil
}

// bigphysTransfer stages the payload into a reserved block, then DMAs
// it out through the NIC (the old scheme's send path).
func bigphysTransfer(size int) (simtime.Duration, error) {
	kcfg := mm.DefaultConfig()
	kcfg.RAMPages = 4096
	k := mm.NewKernel(kcfg, simtime.NewMeter())
	pages := (size + phys.PageSize - 1) / phys.PageSize
	area, err := bigphys.Reserve(k, pages)
	if err != nil {
		return 0, err
	}
	nic := via.NewNIC("old", k.Phys(), k.Meter(), 4096)
	block, err := area.Alloc(pages)
	if err != nil {
		return 0, err
	}
	h, err := nic.RegisterMemory(block.PFNs(), 0, size, 3, via.MemAttrs{})
	if err != nil {
		return 0, err
	}
	payload := make([]byte, size)
	out := make([]byte, size)
	// Warm-up, then the measured transfer.
	var elapsed simtime.Duration
	for i := 0; i < 2; i++ {
		sw := k.Meter().Start()
		if err := block.Write(0, payload); err != nil { // the bounce copy
			return 0, err
		}
		if err := nic.DMAReadLocal(h, 0, out, 3); err != nil { // NIC pulls it
			return 0, err
		}
		elapsed = sw.Elapsed()
	}
	return elapsed, nil
}

// kiobufTransfer registers the user buffer itself (cache-warm) and DMAs
// straight from it.
func kiobufTransfer(size int) (simtime.Duration, error) {
	c, err := cluster.New(cluster.Config{Nodes: 1, Strategy: core.StrategyKiobuf, TPTSlots: 4096,
		Kernel: benchKernelConfig()})
	if err != nil {
		return 0, err
	}
	node := c.Nodes[0]
	p := node.NewProcess("app", false)
	buf, err := p.Malloc(size)
	if err != nil {
		return 0, err
	}
	if err := buf.Touch(); err != nil {
		return 0, err
	}
	tag := via.ProtectionTag(p.ID())
	reg, err := node.Agent.RegisterMem(p.AS(), buf.Addr, buf.Bytes, tag, via.MemAttrs{})
	if err != nil {
		return 0, err
	}
	out := make([]byte, size)
	var elapsed simtime.Duration
	for i := 0; i < 2; i++ {
		sw := c.Meter.Start()
		if err := node.NIC.DMAReadLocal(reg.Handle, 0, out, tag); err != nil {
			return 0, err
		}
		elapsed = sw.Elapsed()
	}
	return elapsed, nil
}
