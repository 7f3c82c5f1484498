package bench

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kagent"
	"repro/internal/mm"
	"repro/internal/phys"
	"repro/internal/pressure"
	"repro/internal/proc"
	"repro/internal/regcache"
	"repro/internal/report"
	"repro/internal/simtime"
	"repro/internal/via"
	"repro/internal/vipl"
)

// Ablations regenerates the DESIGN.md §5 design-choice studies:
//
//	A1  registration-cache eviction: class-priority vs plain global LRU
//	A2  immediate-data fast path: 4-byte send with vs without it
//	A3  swap second chance: hot-working-set major faults with/without
//	A4  reclaim skip rules: PG_* flags vs kernel pins when a kernel
//	    stops honouring the flags
func Ablations(w io.Writer) error {
	if err := ablationEviction(w); err != nil {
		return fmt.Errorf("eviction: %w", err)
	}
	if err := ablationImmediate(w); err != nil {
		return fmt.Errorf("immediate: %w", err)
	}
	if err := ablationSecondChance(w); err != nil {
		return fmt.Errorf("second-chance: %w", err)
	}
	if err := ablationIgnoreLocks(w); err != nil {
		return fmt.Errorf("ignore-locks: %w", err)
	}
	return nil
}

// ablationEviction compares the CHEMPI class rule with a plain LRU on a
// workload where a library region is reused every few rounds while user
// buffers churn constantly.  Plain LRU evicts the idle library region;
// the class rule sacrifices user regions instead.
func ablationEviction(w io.Writer) error {
	t := report.Table{
		Title:   "A1: regcache eviction policy — library-region misses over 64 rounds",
		Note:    "library buffer reused every 4th round, user buffers churn every round, TPT is 4 regions tight; CHEMPI's class rule protects the hot library region",
		Headers: []string{"policy", "lib-misses", "total-evictions"},
	}
	for _, pol := range []struct {
		name string
		p    regcache.Policy
	}{
		{"class-lru (CHEMPI)", regcache.PolicyClassLRU},
		{"global-lru", regcache.PolicyGlobalLRU},
	} {
		libMisses, evictions, err := evictionWorkload(pol.p)
		if err != nil {
			return err
		}
		t.AddRow(pol.name, libMisses, evictions)
	}
	t.Fprint(w)
	return nil
}

func evictionWorkload(p regcache.Policy) (libMisses int, evictions uint64, err error) {
	_, node, err := oneNode(core.StrategyKiobuf)
	if err != nil {
		return 0, 0, err
	}
	// TPT of 8 slots, regions of 2 pages → at most 4 cached regions.
	nic := via.NewNIC("ablate", node.Kernel.Phys(), node.Kernel.Meter(), 8)
	pr := node.NewProcess("app", false)
	h := vipl.OpenNic(kagent.New(node.Kernel, nic, core.MustNew(core.StrategyKiobuf)), pr)
	cache := regcache.NewWithPolicy(h, 0, p)

	lib, err := pr.Malloc(2 * phys.PageSize)
	if err != nil {
		return 0, 0, err
	}
	const rounds = 64
	for i := 0; i < rounds; i++ {
		if i%4 == 0 {
			before := cache.Stats().Misses
			reg, err := cache.Acquire(lib, 0, lib.Bytes, via.MemAttrs{}, regcache.ClassLibrary)
			if err != nil {
				return 0, 0, err
			}
			if cache.Stats().Misses > before {
				libMisses++
			}
			if err := cache.Release(reg); err != nil {
				return 0, 0, err
			}
		}
		user, err := pr.Malloc(2 * phys.PageSize)
		if err != nil {
			return 0, 0, err
		}
		reg, err := cache.Acquire(user, 0, user.Bytes, via.MemAttrs{}, regcache.ClassUser)
		if err != nil {
			return 0, 0, err
		}
		if err := cache.Release(reg); err != nil {
			return 0, 0, err
		}
	}
	return libMisses, cache.Stats().Evictions, nil
}

// ablationImmediate quantifies the immediate-data fast path: a 4-byte
// payload inside the descriptor saves both DMA data transactions.
func ablationImmediate(w io.Writer) error {
	c, err := cluster.New(cluster.Config{Nodes: 2, Strategy: core.StrategyKiobuf})
	if err != nil {
		return err
	}
	a, b := c.Nodes[0], c.Nodes[1]
	pa, pb := a.NewProcess("s", false), b.NewProcess("r", false)
	tagA, tagB := via.ProtectionTag(pa.ID()), via.ProtectionTag(pb.ID())
	srcBuf, err := pa.Malloc(phys.PageSize)
	if err != nil {
		return err
	}
	dstBuf, err := pb.Malloc(phys.PageSize)
	if err != nil {
		return err
	}
	regA, err := a.Agent.RegisterMem(pa.AS(), srcBuf.Addr, srcBuf.Bytes, tagA, via.MemAttrs{})
	if err != nil {
		return err
	}
	regB, err := b.Agent.RegisterMem(pb.AS(), dstBuf.Addr, dstBuf.Bytes, tagB, via.MemAttrs{})
	if err != nil {
		return err
	}
	viA, err := a.NIC.CreateVI(tagA)
	if err != nil {
		return err
	}
	viB, err := b.NIC.CreateVI(tagB)
	if err != nil {
		return err
	}
	if err := c.Network.Connect(viA, viB); err != nil {
		return err
	}

	measure := func(immediate bool) (simtime.Duration, error) {
		rd := via.NewDescriptor(via.OpRecv, via.Segment{Handle: regB.Handle, Offset: 0, Length: 64})
		if err := viB.PostRecv(rd); err != nil {
			return 0, err
		}
		var sd *via.Descriptor
		if immediate {
			sd = via.NewDescriptor(via.OpSend)
			sd.Immediate = [4]byte{1, 2, 3, 4}
			sd.HasImmediate = true
		} else {
			sd = via.NewDescriptor(via.OpSend, via.Segment{Handle: regA.Handle, Offset: 0, Length: 4})
		}
		sw := c.Meter.Start()
		if err := viA.PostSend(sd); err != nil {
			return 0, err
		}
		if st := sd.Wait(); st != via.StatusSuccess {
			return 0, fmt.Errorf("send: %v", st)
		}
		return sw.Elapsed(), nil
	}
	viaSeg, err := measure(false)
	if err != nil {
		return err
	}
	viaImm, err := measure(true)
	if err != nil {
		return err
	}
	t := report.Table{
		Title:   "A2: immediate-data fast path — 4-byte send latency",
		Note:    "immediate data rides in the descriptor, saving the data-fetch and data-store DMA transactions",
		Headers: []string{"variant", "latency (sim µs)"},
	}
	t.AddRow("gather segment", viaSeg.Micros())
	t.AddRow("immediate data", viaImm.Micros())
	t.Fprint(w)
	return nil
}

// ablationSecondChance shows what the accessed-bit second chance buys: a
// process with a hot working set suffers far more major faults when the
// swap path may evict recently-touched pages.
func ablationSecondChance(w io.Writer) error {
	t := report.Table{
		Title:   "A3: swap-path second chance — hot working set under cold pressure",
		Note:    "64 hot pages touched every step while a hog grows; without the accessed-bit check the hot set keeps getting evicted",
		Headers: []string{"second-chance", "major-faults", "swap-outs"},
	}
	for _, disable := range []bool{false, true} {
		mf, so, err := secondChanceWorkload(disable)
		if err != nil {
			return err
		}
		t.AddRow(report.Bool(!disable), mf, so)
	}
	t.Fprint(w)
	return nil
}

func secondChanceWorkload(noSecondChance bool) (majorFaults, swapOuts uint64, err error) {
	cfg := mm.Config{
		RAMPages: 512, SwapPages: 4096, ClockBatch: 64, SwapBatch: 16,
		NoSecondChance: noSecondChance,
	}
	k := mm.NewKernel(cfg, simtime.NewMeter())
	hot := proc.New(k, "hot", false)
	hotBuf, err := hot.Malloc(64 * phys.PageSize)
	if err != nil {
		return 0, 0, err
	}
	hog := pressure.NewHog(k)
	defer func() { _ = hog.Release() }()
	for step := 0; step < 16; step++ {
		if err := hotBuf.Touch(); err != nil {
			return 0, 0, err
		}
		if _, err := hog.Grow(48); err != nil {
			return 0, 0, err
		}
	}
	st := k.Stats()
	return st.MajorFaults, st.SwapOuts, nil
}

// ablationIgnoreLocks runs the survival experiment on a hypothetical
// kernel whose reclaim no longer honours PG_locked/PG_reserved: the
// flag-based strategy silently loses its pages while kernel pins (the
// kiobuf contract) still hold.
func ablationIgnoreLocks(w io.Writer) error {
	t := report.Table{
		Title:   "A4: reclaim skip rules — kernel that ignores PG_* flags",
		Note:    "the Giganet approach depends on a reclaim implementation detail; the kiobuf pin is an interface contract and survives the kernel change",
		Headers: []string{"strategy", "tpt-consistent", "verdict"},
	}
	for _, s := range []core.Strategy{core.StrategyPageFlag, core.StrategyKiobuf} {
		consistent, total, err := ignoreLocksRun(s)
		if err != nil {
			return err
		}
		verdict := "BROKEN"
		if consistent == total {
			verdict = "RELIABLE"
		}
		t.AddRow(string(s), fmt.Sprintf("%d/%d", consistent, total), verdict)
	}
	t.Fprint(w)
	return nil
}

func ignoreLocksRun(s core.Strategy) (consistent, total int, err error) {
	cfg := mm.Config{
		RAMPages: 512, SwapPages: 4096, ClockBatch: 64, SwapBatch: 16,
		IgnorePageLocks: true,
	}
	k := mm.NewKernel(cfg, simtime.NewMeter())
	nic := via.NewNIC("ablate", k.Phys(), k.Meter(), 256)
	agent := kagent.New(k, nic, core.MustNew(s))
	pr := proc.New(k, "app", false)
	buf, err := pr.Malloc(16 * phys.PageSize)
	if err != nil {
		return 0, 0, err
	}
	reg, err := agent.RegisterMem(pr.AS(), buf.Addr, buf.Bytes, via.ProtectionTag(pr.ID()), via.MemAttrs{})
	if err != nil {
		return 0, 0, err
	}
	if _, err := pressure.Level(k, 1.5); err != nil {
		return 0, 0, err
	}
	if err := buf.Touch(); err != nil {
		return 0, 0, err
	}
	return agent.ConsistentPages(reg)
}
