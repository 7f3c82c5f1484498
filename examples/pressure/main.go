// Pressure: a live rendition of the paper's §3.1 failure.  Two identical
// nodes register the same kind of buffer — one kernel agent locks with
// the Berkeley-VIA/M-VIA reference-count trick, the other with the
// proposed kiobuf mechanism.  A hungry allocator then forces swapping,
// the NIC DMA-writes through each registration, and only one process
// sees the data.
package main

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/phys"
	"repro/internal/pressure"
	"repro/internal/via"
)

const regionPages = 32

func main() {
	for _, strategy := range []core.Strategy{core.StrategyRefcount, core.StrategyKiobuf} {
		if err := demo(strategy); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
}

func demo(strategy core.Strategy) error {
	fmt.Printf("=== locking strategy: %s ===\n", strategy)
	c := cluster.MustNew(cluster.Config{Nodes: 1, Strategy: strategy})
	node := c.Nodes[0]
	p := node.NewProcess("app", false)
	tag := via.ProtectionTag(p.ID())

	buf, err := p.Malloc(regionPages * phys.PageSize)
	if err != nil {
		return err
	}
	if err := buf.FillPattern(7); err != nil {
		return err
	}
	reg, err := node.Agent.RegisterMem(p.AS(), buf.Addr, buf.Bytes, tag, via.MemAttrs{})
	if err != nil {
		return err
	}
	fmt.Printf("registered %d pages; first page in frame %d\n", regionPages, reg.Pages()[0])

	res, err := pressure.Level(node.Kernel, 1.5)
	if err != nil {
		return err
	}
	fmt.Printf("allocator touched %d pages, kernel swapped out %d\n", res.PagesTouched, res.SwapOuts)

	// The application keeps working with its buffer...
	if err := buf.Touch(); err != nil {
		return err
	}
	// ...and the NIC delivers data through the registered handle.
	payload := []byte("payload delivered by DMA")
	if err := node.NIC.DMAWriteLocal(reg.Handle, 0, payload, tag); err != nil {
		return err
	}

	got := make([]byte, len(payload))
	if err := buf.Read(0, got); err != nil {
		return err
	}
	consistent, total, err := node.Agent.ConsistentPages(reg)
	if err != nil {
		return err
	}
	fmt.Printf("TPT consistency after pressure: %d/%d pages\n", consistent, total)
	if string(got) == string(payload) {
		fmt.Printf("process reads %q — DMA visible, locking held\n", got)
	} else {
		fmt.Printf("process reads garbage — the DMA write landed in an orphaned frame\n")
		fmt.Printf("(%d frames are now orphaned: allocated, mapped by nobody)\n", node.Kernel.OrphanFrames())
	}
	return node.Agent.DeregisterMem(reg)
}
