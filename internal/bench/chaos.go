package bench

// E17: the chaos/soak harness.  Each fault class gets a fresh two-node
// fabric with reliability-enabled msg endpoints and a deterministic
// injector, then runs the ping-pong and burst (msgrate-shaped) workloads
// under sustained faults.  The harness asserts the fabric either
// delivers verified payloads or fails *loudly* with typed errors:
//
//   - zero silent corruptions — every delivered payload's pattern is
//     verified end to end;
//   - zero lost descriptors — every workload returns within a deadline
//     (a descriptor that never reaches a terminal status strands its
//     waiter), and a post-fault drain of more than one full ring of
//     clean messages proves the slot/credit accounting survived;
//   - zero goroutine leaks — leakcheck brackets every class.
//
// The run is seeded: the same binary replays the same fault schedule.

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/kagent"
	"repro/internal/leakcheck"
	"repro/internal/mm"
	"repro/internal/mpi"
	"repro/internal/msg"
	"repro/internal/phys"
	"repro/internal/proc"
	"repro/internal/report"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/via"
	"repro/internal/vipl"
)

const (
	chaosSeed      = 17
	chaosRounds    = 24                // ping-pong rounds per class
	chaosBurstMsgs = 32                // burst messages per class
	chaosBurstEnd  = 1                 // size of the burst's end marker
	chaosDrainMsgs = msg.RingSlots + 2 // post-fault clean messages, each way
	chaosDeadline  = 30 * time.Second  // per-class stall watchdog
)

// chaosClass is one fault regime.
type chaosClass struct {
	name       string
	degradable bool         // registration faults degrade to eager, not fail
	proto      msg.Protocol // forced A→B protocol ("" = mixed eager/one-copy)
	sizes      []int        // ping-pong A→B sizes (nil = harness default)
	burstSize  int          // burst message size (0 = harness default)
	relTimeout time.Duration
	epOpts     msg.Options // endpoint options (e.g. pin-free payloads)
	// mmTweak adjusts both kernels' memory config before construction
	// (e.g. shrink RAM so reclaim runs organically mid-transfer).
	mmTweak func(cfg *mm.Config)
	setup   func(f *chaosFabric)
	// beforeRound optionally perturbs the fabric before a round (and
	// once before the burst); it may return a cleanup func.
	beforeRound func(f *chaosFabric, r int) func()
	teardown    func(f *chaosFabric)
	// verify optionally checks post-drain invariants (e.g. trace-paired
	// registration accounting).
	verify func(f *chaosFabric) error
}

func chaosClasses() []chaosClass {
	return []chaosClass{
		{name: "dma", setup: func(f *chaosFabric) {
			f.inj.FailProb(via.SiteDMA, 0.08, nil)
		}},
		{name: "tpt", setup: func(f *chaosFabric) {
			f.inj.FailProb(via.SiteTPT, 0.08, nil)
		}},
		{name: "completion", setup: func(f *chaosFabric) {
			f.inj.FailProb(via.SiteCompletion, 0.08, nil)
		}},
		{name: "link", setup: func(f *chaosFabric) {
			f.inj.FailProb(via.SiteLink, 0.08, nil)
		}},
		{name: "partition", beforeRound: chaosPartition},
		{name: "lane", relTimeout: 150 * time.Microsecond,
			setup: func(f *chaosFabric) {
				f.nicA.StartEngineLanes(2)
				f.inj.StallProb(via.SiteLane, 0.25, 300*time.Microsecond)
				f.inj.FailProb(via.SiteLane, 0.05, nil)
			},
			teardown: func(f *chaosFabric) { f.nicA.StopEngine() }},
		{name: "nic-reset", beforeRound: func(f *chaosFabric, r int) func() {
			if r%4 == 0 {
				f.nicA.FaultReset()
			}
			return nil
		}},
		{name: "registration", degradable: true, proto: msg.OneCopy,
			setup: func(f *chaosFabric) {
				f.agentA.SetFaultInjector(f.inj)
				f.inj.FailProb(kagent.SiteRegister, 0.5, nil)
			}},
		// Multi-chunk zero-copy sends so registration faults land in the
		// middle of a pipelined rendezvous: the sender must degrade to
		// the one-copy path (an internal fallback — the Send still
		// succeeds), payloads must stay intact, and the post-drain
		// verify proves no chunk registration leaked by pairing the
		// agents' register/deregister trace spans.
		{name: "pipeline", degradable: true, proto: msg.ZeroCopy,
			sizes:     []int{160 * 1024, 256 * 1024, 320*1024 + 37},
			burstSize: 192 * 1024,
			setup: func(f *chaosFabric) {
				f.trc = trace.New(f.meter, 1<<15)
				f.agentA.AttachObs(f.trc, nil)
				f.agentB.AttachObs(f.trc, nil)
				f.agentA.SetFaultInjector(f.inj)
				f.inj.FailProb(kagent.SiteRegister, 0.3, nil)
			},
			verify: chaosPipelineVerify},
		{name: "phys", beforeRound: chaosPhysFault},
		// Pin-free payload registrations under a swap storm: every
		// zero-copy payload is registered RegNoPin, RAM is sized so a
		// 40-page payload can never be wholly resident (direct reclaim
		// runs mid-transfer), and a concurrent storm evicts more pages
		// while DMA is in flight.  Every transfer therefore hits
		// non-present translations mid-stream and must recover through IO
		// page faults (fault-and-retry).  Payloads still verify 100%; the
		// post-drain hook proves the storm actually reached the TPT.
		// Second chance is off so a single direct-reclaim pass always
		// makes progress instead of just aging accessed bits (a
		// zero-progress pass reads as OOM on this fault path).
		{name: "nopin", proto: msg.ZeroCopy,
			sizes:     []int{160 * 1024, 100 * 1024},
			burstSize: 96 * 1024,
			epOpts:    msg.Options{NoPin: true},
			mmTweak: func(cfg *mm.Config) {
				cfg.RAMPages = 64
				cfg.NoSecondChance = true
			},
			beforeRound: chaosNopinStorm,
			verify:      chaosNopinVerify},
	}
}

// chaosPartition severs the link every other round and heals it as soon
// as the partition has been observed (a NIC fault), so the sender's
// bounded retries always get a healthy fabric to retransmit over.
func chaosPartition(f *chaosFabric, r int) func() {
	if r%2 != 0 {
		return nil
	}
	before := f.nicA.Stats().Faults + f.nicB.Stats().Faults
	f.nw.SetLinkDown("nodeA", "nodeB")
	done := make(chan struct{})
	go func() {
		defer close(done)
		deadline := time.Now().Add(2 * time.Second)
		for f.nicA.Stats().Faults+f.nicB.Stats().Faults == before &&
			time.Now().Before(deadline) {
			time.Sleep(50 * time.Microsecond)
		}
		f.nw.SetLinkUp("nodeA", "nodeB")
	}()
	return func() { <-done }
}

// chaosPhysFault arms a one-shot frame-write failure on the receiver's
// physical memory every third round: the next NIC scatter into nodeB
// faults mid-DMA and the stack must recover.  A fresh side injector
// keeps the one-shot deterministic (site op counters are cumulative per
// injector).
func chaosPhysFault(f *chaosFabric, r int) func() {
	if r%3 != 0 {
		return nil
	}
	side := faultinject.New(chaosSeed + int64(r))
	side.FailNth(phys.SiteWrite, 1, nil)
	f.kernelB.Phys().SetFaultInjector(side)
	return func() {
		f.kernelB.Phys().SetFaultInjector(nil)
		f.sideInjected += side.Stats().Total()
	}
}

// chaosNopinStorm runs a reclaim storm concurrent with the round: both
// kernels evict continuously for a bounded real-time window, so pages
// of pin-free payload registrations go non-present while the transfer
// is in flight and the DMA must fault and repair mid-stream.  The
// cleanup joins the storm and books its evictions as injected faults.
func chaosNopinStorm(f *chaosFabric, r int) func() {
	done := make(chan int, 1)
	go func() {
		n := 0
		deadline := time.Now().Add(5 * time.Millisecond)
		for time.Now().Before(deadline) {
			n += f.kernelA.SwapOut(64)
			n += f.kernelB.SwapOut(64)
			time.Sleep(10 * time.Microsecond)
		}
		done <- n
	}()
	return func() { f.sideInjected += uint64(<-done) }
}

// chaosNopinVerify proves the nopin schedule was alive: the storm must
// have invalidated live TPT entries, and the DMA path must have hit —
// and repaired — non-present translations.  A flat counter means the
// pages were silently pinned (or the storm missed) and the class tested
// nothing.
func chaosNopinVerify(f *chaosFabric) error {
	st := sumStats(f.nicA.Stats(), f.nicB.Stats())
	if st.TPTInvalidations == 0 {
		return fmt.Errorf("chaos nopin: storm never invalidated a TPT entry — payloads pinned?")
	}
	if st.IOPageFaults == 0 || st.FaultRetries == 0 || st.TPTRepairs == 0 {
		return fmt.Errorf("chaos nopin: no IO-page-fault recovery (faults=%d retries=%d repairs=%d)",
			st.IOPageFaults, st.FaultRetries, st.TPTRepairs)
	}
	return nil
}

// chaosPipelineVerify closes the pipeline class: after both endpoints'
// registration caches drop their retained regions, every successful
// registration the agents' trace saw must pair with a successful
// deregistration of the same handle — a mid-pipeline abort that leaked
// a chunk registration would leave an unpaired handle.
func chaosPipelineVerify(f *chaosFabric) error {
	if _, err := f.epA.Cache().Flush(); err != nil {
		return fmt.Errorf("chaos pipeline: cache flush A: %w", err)
	}
	if _, err := f.epB.Cache().Flush(); err != nil {
		return fmt.Errorf("chaos pipeline: cache flush B: %w", err)
	}
	if n := f.trc.Dropped(); n != 0 {
		return fmt.Errorf("chaos pipeline: trace dropped %d events — registration pairing proof incomplete", n)
	}
	balance := map[uint64]int{}
	regs := 0
	for _, ev := range f.trc.Snapshot() {
		// Register/deregister span ends carry Arg1=1 on success and
		// Arg2=the NIC memory handle.
		if ev.Phase != trace.PhaseEnd || ev.Arg1 != 1 {
			continue
		}
		switch ev.Kind {
		case trace.KindRegister:
			balance[ev.Arg2]++
			regs++
		case trace.KindDeregister:
			balance[ev.Arg2]--
		}
	}
	if regs == 0 {
		return fmt.Errorf("chaos pipeline: trace saw no successful registrations — the workload missed the rendezvous path")
	}
	for h, n := range balance {
		if n != 0 {
			return fmt.Errorf("chaos pipeline: handle %d register/deregister imbalance %+d — leaked registration", h, n)
		}
	}
	return nil
}

// chaosFabric is a self-contained two-node fabric for one class run.
type chaosFabric struct {
	meter            *simtime.Meter
	kernelA, kernelB *mm.Kernel
	procA, procB     *proc.Process
	agentA, agentB   *kagent.Agent
	epA, epB         *msg.Endpoint
	nw               *via.Network
	nicA, nicB       *via.NIC
	inj              *faultinject.Injector
	trc              *trace.Tracer // set by classes with a verify hook
	sideInjected     uint64        // injections from per-round side injectors
}

func newChaosFabric(seed int64, rel msg.ReliabilityConfig, cl *chaosClass) (*chaosFabric, error) {
	meter := simtime.NewMeter()
	cfg := mm.Config{RAMPages: 4096, SwapPages: 8192, ClockBatch: 128, SwapBatch: 32}
	if cl.mmTweak != nil {
		cl.mmTweak(&cfg)
	}
	f := &chaosFabric{
		meter:   meter,
		kernelA: mm.NewKernel(cfg, meter),
		kernelB: mm.NewKernel(cfg, meter),
	}
	f.nw = via.NewNetwork()
	f.nicA = via.NewNIC("nodeA", f.kernelA.Phys(), meter, 1024)
	f.nicB = via.NewNIC("nodeB", f.kernelB.Phys(), meter, 1024)
	if err := f.nw.Attach(f.nicA); err != nil {
		return nil, err
	}
	if err := f.nw.Attach(f.nicB); err != nil {
		return nil, err
	}
	f.agentA = kagent.New(f.kernelA, f.nicA, core.MustNew(core.StrategyKiobuf))
	f.agentB = kagent.New(f.kernelB, f.nicB, core.MustNew(core.StrategyKiobuf))
	f.procA = proc.New(f.kernelA, "chaos-a", false)
	f.procB = proc.New(f.kernelB, "chaos-b", false)
	var err error
	if f.epA, err = msg.NewEndpoint("A", vipl.OpenNic(f.agentA, f.procA), meter, 0, cl.epOpts); err != nil {
		return nil, err
	}
	if f.epB, err = msg.NewEndpoint("B", vipl.OpenNic(f.agentB, f.procB), meter, 0, cl.epOpts); err != nil {
		return nil, err
	}
	if err := msg.Pair(f.nw, f.epA, f.epB); err != nil {
		return nil, err
	}
	f.epA.EnableReliability(rel)
	f.epB.EnableReliability(rel)
	f.epA.Cache().EnableNICResetInvalidation()
	f.inj = faultinject.New(seed)
	f.nicA.SetFaultInjector(f.inj)
	return f, nil
}

// oneWay runs a single verified transfer.  loudErr is a typed transport
// failure (acceptable under chaos); fatalErr is a harness invariant
// violation — above all, a silent corruption.
func (f *chaosFabric) oneWay(from, to *msg.Endpoint, fromProc, toProc *proc.Process,
	size int, proto msg.Protocol, seed byte, degradable bool) (degraded bool, loudErr, fatalErr error) {
	src, err := fromProc.Malloc(size)
	if err != nil {
		return false, nil, err
	}
	dst, err := toProc.Malloc(size)
	if err != nil {
		return false, nil, err
	}
	defer func() {
		_ = fromProc.Free(src)
		_ = toProc.Free(dst)
	}()
	if err := src.FillPattern(seed); err != nil {
		return false, nil, err
	}
	type sres struct {
		deg bool
		err error
	}
	sc := make(chan sres, 1)
	go func() {
		n, err := from.Send(src, proto)
		deg := false
		if err != nil && degradable && errors.Is(err, kagent.ErrRegistrationFault) {
			// Graceful degradation: a registration failure leaves no
			// receiver-visible state, so fall back to the eager
			// (bounce-buffer) path that needs no new registration.
			deg = true
			n, err = from.Send(src, msg.Eager)
		}
		if err == nil && n != size {
			err = fmt.Errorf("chaos: short send %d of %d", n, size)
		}
		sc <- sres{deg, err}
	}()
	n, rerr := to.Recv(dst)
	s := <-sc
	if s.err != nil || rerr != nil {
		return s.deg, errors.Join(s.err, rerr), nil
	}
	if n != size {
		return s.deg, nil, fmt.Errorf("chaos: claimed success but delivered %d of %d bytes", n, size)
	}
	bad, err := dst.VerifyPattern(seed)
	if err != nil {
		return s.deg, nil, err
	}
	if len(bad) != 0 {
		return s.deg, nil, fmt.Errorf("chaos: silent corruption — %d bad pages %v", len(bad), bad)
	}
	return s.deg, nil, nil
}

// pingPong alternates A→B (mixed sizes/protocols, faulted side) with a
// B→A eager pong every round.
func (f *chaosFabric) pingPong(cl *chaosClass) (ok, loud, degraded int, err error) {
	sizes := []int{512, 3000, 2*msg.SlotSize + 37}
	if cl.sizes != nil {
		sizes = cl.sizes
	}
	for r := 0; r < chaosRounds; r++ {
		var cleanup func()
		if cl.beforeRound != nil {
			cleanup = cl.beforeRound(f, r)
		}
		proto := msg.Eager
		if r%3 == 1 {
			proto = msg.OneCopy
		}
		if cl.proto != "" {
			proto = cl.proto
		}
		deg, lerr, ferr := f.oneWay(f.epA, f.epB, f.procA, f.procB,
			sizes[r%len(sizes)], proto, byte(2*r+1), cl.degradable)
		if deg {
			degraded++
		}
		if lerr != nil {
			loud++
		} else if ferr == nil {
			ok++
		}
		if ferr == nil {
			_, lerr2, ferr2 := f.oneWay(f.epB, f.epA, f.procB, f.procA,
				512, msg.Eager, byte(2*r+2), false)
			if lerr2 != nil {
				loud++
			} else if ferr2 == nil {
				ok++
			}
			ferr = ferr2
		}
		if cleanup != nil {
			cleanup()
		}
		if ferr != nil {
			return ok, loud, degraded, fmt.Errorf("round %d: %w", r, ferr)
		}
	}
	return ok, loud, degraded, nil
}

// burst is the msgrate-shaped soak: back-to-back small messages with a
// concurrent receiver verifying every payload in order.  The receiver
// keeps receiving — and with that, answering the recovery handshake —
// until a one-byte end marker arrives, which the sender sends once the
// faults are off: a sender whose last message was delivered but whose
// connection was left in the error state then still finds its peer.
func (f *chaosFabric) burst(cl *chaosClass) (ok, loud, degraded int, err error) {
	faultsOff := func() {}
	if cl.beforeRound != nil {
		if cleanup := cl.beforeRound(f, 0); cleanup != nil {
			faultsOff = sync.OnceFunc(cleanup)
		}
	}
	defer faultsOff()
	size := 512
	if cl.burstSize > 0 {
		size = cl.burstSize
	}
	type rres struct {
		ok, loud int
		err      error
	}
	rc := make(chan rres, 1)
	go func() {
		var res rres
		dst, err := f.procB.Malloc(size)
		if err != nil {
			res.err = err
			rc <- res
			return
		}
		defer func() { _ = f.procB.Free(dst) }()
		for i := 0; ; i++ {
			n, err := f.epB.Recv(dst)
			if err != nil {
				res.loud++
				continue
			}
			if n == chaosBurstEnd {
				break
			}
			if n != size {
				res.err = fmt.Errorf("chaos burst: message %d delivered %d of %d", i, n, size)
				break
			}
			bad, verr := dst.VerifyPattern(byte(100 + i))
			if verr != nil {
				res.err = verr
				break
			}
			if len(bad) != 0 {
				res.err = fmt.Errorf("chaos burst: silent corruption in message %d, pages %v", i, bad)
				break
			}
			res.ok++
		}
		rc <- res
	}()

	proto := msg.Eager
	if cl.proto != "" {
		proto = cl.proto
	}
	src, err := f.procA.Malloc(size)
	if err != nil {
		return 0, 0, 0, err
	}
	defer func() { _ = f.procA.Free(src) }()
	for i := 0; i < chaosBurstMsgs; i++ {
		select {
		case res := <-rc:
			// The receiver only leaves early on a violation; say so now
			// rather than send the rest to nobody and hit the watchdog.
			return res.ok, loud + res.loud, degraded, res.err
		default:
		}
		if err := src.FillPattern(byte(100 + i)); err != nil {
			return 0, 0, 0, err
		}
		_, serr := f.epA.Send(src, proto)
		if serr != nil && cl.degradable && errors.Is(serr, kagent.ErrRegistrationFault) {
			degraded++
			_, serr = f.epA.Send(src, msg.Eager)
		}
		if serr != nil {
			loud++
		}
	}
	// Faults off (the caller detaches the injectors for good right after
	// the burst), then the end marker: it may need a recovery handshake,
	// never more than that.
	faultsOff()
	f.nicA.SetFaultInjector(nil)
	f.agentA.SetFaultInjector(nil)
	end, err := f.procA.Malloc(chaosBurstEnd)
	if err != nil {
		return 0, 0, 0, err
	}
	defer func() { _ = f.procA.Free(end) }()
	if _, err := f.epA.Send(end, msg.Eager); err != nil {
		return 0, loud, degraded, fmt.Errorf("chaos burst: end marker with the faults off: %w", err)
	}
	res := <-rc
	if res.err != nil {
		return res.ok, loud + res.loud, degraded, res.err
	}
	return res.ok, loud + res.loud, degraded, nil
}

// drain proves the fabric is whole after the faults stop: more than one
// full ring of clean messages must flow each way with zero failures —
// a lost descriptor, slot or credit would stall it.
func (f *chaosFabric) drain() error {
	for i := 0; i < chaosDrainMsgs; i++ {
		_, lerr, ferr := f.oneWay(f.epA, f.epB, f.procA, f.procB,
			1024, msg.Eager, byte(i+1), false)
		if lerr != nil || ferr != nil {
			return fmt.Errorf("drain A→B message %d: %w", i, errors.Join(lerr, ferr))
		}
		_, lerr, ferr = f.oneWay(f.epB, f.epA, f.procB, f.procA,
			1024, msg.Eager, byte(i+101), false)
		if lerr != nil || ferr != nil {
			return fmt.Errorf("drain B→A message %d: %w", i, errors.Join(lerr, ferr))
		}
	}
	return nil
}

// chaosResult is one class's scoreboard row.
type chaosResult struct {
	class              string
	ok, loud, degraded int
	injected           uint64
	nic                via.Stats // nicA + nicB, summed
	rel                msg.ReliabilityStats
}

func runChaosClass(cl chaosClass, idx int) (chaosResult, error) {
	res := chaosResult{class: cl.name}
	base := leakcheck.Snapshot()
	rel := msg.ReliabilityConfig{
		MaxRetries:  10,
		Timeout:     cl.relTimeout,
		BackoffBase: 50 * time.Microsecond,
		BackoffMax:  2 * time.Millisecond,
		Seed:        chaosSeed + int64(idx),
	}
	f, err := newChaosFabric(chaosSeed+int64(idx), rel, &cl)
	if err != nil {
		return res, err
	}
	if cl.setup != nil {
		cl.setup(f)
	}

	err = chaosWatchdog(cl.name+" ping-pong", func() error {
		ok, loud, deg, err := f.pingPong(&cl)
		res.ok += ok
		res.loud += loud
		res.degraded += deg
		return err
	})
	if err == nil {
		err = chaosWatchdog(cl.name+" burst", func() error {
			ok, loud, deg, berr := f.burst(&cl)
			res.ok += ok
			res.loud += loud
			res.degraded += deg
			return berr
		})
	}

	// Stop injecting, then prove the fabric recovers completely.
	f.nicA.SetFaultInjector(nil)
	f.agentA.SetFaultInjector(nil)
	if cl.teardown != nil {
		cl.teardown(f)
	}
	if err == nil {
		err = chaosWatchdog(cl.name+" drain", f.drain)
	}
	if err == nil && cl.verify != nil {
		err = cl.verify(f)
	}
	if err != nil {
		return res, err
	}

	// Internal degradations: pipelined rendezvous that fell back to the
	// one-copy path without surfacing an error.
	res.degraded += int(f.epA.Stats().PipelineFallbacks + f.epB.Stats().PipelineFallbacks)

	res.injected = f.inj.Stats().Total() + f.sideInjected
	res.nic = sumStats(f.nicA.Stats(), f.nicB.Stats())
	res.rel = sumRel(f.epA.ReliabilityStats(), f.epB.ReliabilityStats())
	if res.injected == 0 && res.nic.Faults == 0 && res.nic.IOPageFaults == 0 && res.degraded == 0 {
		return res, fmt.Errorf("class %q injected nothing — the fault schedule is dead", cl.name)
	}
	if err := leakcheck.Verify(base, 5*time.Second); err != nil {
		return res, fmt.Errorf("class %q: %w", cl.name, err)
	}
	return res, nil
}

// chaosWatchdog fails a workload that stops making progress: a blocked
// Send/Recv means a descriptor never reached a terminal status.
func chaosWatchdog(name string, fn func() error) error {
	errc := make(chan error, 1)
	go func() { errc <- fn() }()
	select {
	case err := <-errc:
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	case <-time.After(chaosDeadline):
		return fmt.Errorf("%s: stalled > %v — lost descriptor or stranded waiter", name, chaosDeadline)
	}
}

func sumStats(a, b via.Stats) via.Stats {
	a.Faults += b.Faults
	a.VIErrors += b.VIErrors
	a.DescriptorsFlushed += b.DescriptorsFlushed
	a.Recoveries += b.Recoveries
	a.NICResets += b.NICResets
	a.IOPageFaults += b.IOPageFaults
	a.FaultRetries += b.FaultRetries
	a.SpecRetransmits += b.SpecRetransmits
	a.RetransmitBytes += b.RetransmitBytes
	a.TPTInvalidations += b.TPTInvalidations
	a.TPTRepairs += b.TPTRepairs
	return a
}

func sumRel(a, b msg.ReliabilityStats) msg.ReliabilityStats {
	a.Retries += b.Retries
	a.Recoveries += b.Recoveries
	a.AckRescues += b.AckRescues
	a.Timeouts += b.Timeouts
	a.Duplicates += b.Duplicates
	a.Aborts += b.Aborts
	return a
}

const (
	chaosMPIRounds = 6 // fresh world per round; even rounds are partitioned
	chaosMPIRanks  = 8 // over two nodes — every recursive-doubling round crosses the link
)

// chaosMPI is the collective-layer fault class: an Allreduce over a
// fresh 8-rank two-node world each round, with the inter-node link
// severed mid-collective on even rounds.  The contract is per rank —
// every rank either returns the correct global sum or a typed error
// wrapping mpi.ErrCollectiveAborted; no rank may hang (the abort
// doorbell plus bounded RecvTimeout/retries guarantee liveness, the
// watchdog enforces it) and no goroutine may leak.  Worlds are not
// reused after an abort: MPI_Abort semantics end the job, so recovery
// means a clean next job, not a resumed one.
func chaosMPI() (chaosResult, error) {
	res := chaosResult{class: "mpi"}
	base := leakcheck.Snapshot()
	want := int64(chaosMPIRanks * (chaosMPIRanks - 1) / 2) // sum of rank IDs
	for round := 0; round < chaosMPIRounds; round++ {
		c := cluster.MustNew(cluster.Config{
			Nodes:    2,
			Strategy: core.StrategyKiobuf,
			Kernel:   mm.Config{RAMPages: 4096, SwapPages: 8192, ClockBatch: 128, SwapBatch: 32},
			TPTSlots: 2048,
		})
		w, err := mpi.NewWorldOpts(c, chaosMPIRanks, mpi.WorldOptions{
			SharedCQ: true,
			Endpoint: msg.Options{RecvTimeout: 250 * time.Millisecond},
			Reliability: &msg.ReliabilityConfig{
				MaxRetries:       2,
				BackoffBase:      50 * time.Microsecond,
				BackoffMax:       time.Millisecond,
				HandshakeTimeout: 100 * time.Millisecond,
				Seed:             chaosSeed + int64(round),
			},
		})
		if err != nil {
			return res, err
		}
		faulted := round%2 == 0
		sums := make([]int64, chaosMPIRanks)
		errs := make([]error, chaosMPIRanks)
		attempt := func(partition bool) error {
			return chaosWatchdog(fmt.Sprintf("mpi round %d", round), func() error {
				var cut sync.WaitGroup
				if partition {
					cut.Add(1)
					go func() {
						defer cut.Done()
						time.Sleep(100 * time.Microsecond) // land mid-collective
						c.Network.SetLinkDown("node0", "node1")
					}()
				}
				var wg sync.WaitGroup
				for i := 0; i < chaosMPIRanks; i++ {
					r, err := w.Rank(i)
					if err != nil {
						return err
					}
					wg.Add(1)
					go func(i int, r *mpi.Rank) {
						defer wg.Done()
						sums[i], errs[i] = r.Allreduce(int64(r.ID()), mpi.OpSum)
					}(i, r)
				}
				wg.Wait()
				cut.Wait()
				return nil
			})
		}
		err = attempt(faulted)
		if faulted {
			res.injected++
			if err == nil && errorCount(errs) == 0 {
				// The partition landed after the collective finished; the
				// world is still clean and the link is now down, so a
				// second attempt deterministically runs into the fault.
				for i := range sums {
					if sums[i] == want {
						res.ok++
					}
				}
				err = attempt(false)
			}
			c.Network.SetLinkUp("node0", "node1")
		}
		if err == nil {
			for i, e := range errs {
				switch {
				case e == nil && sums[i] != want:
					err = fmt.Errorf("mpi round %d rank %d: silent wrong sum %d, want %d", round, i, sums[i], want)
				case e != nil && !errors.Is(e, mpi.ErrCollectiveAborted):
					err = fmt.Errorf("mpi round %d rank %d: untyped failure: %w", round, i, e)
				case e != nil && !faulted:
					err = fmt.Errorf("mpi round %d rank %d: abort on a healthy fabric: %w", round, i, e)
				case e != nil:
					res.loud++
				default:
					res.ok++
				}
				if err != nil {
					break
				}
			}
		}
		for _, n := range c.Nodes {
			res.nic = sumStats(res.nic, n.NIC.Stats())
		}
		w.Close()
		if err != nil {
			return res, err
		}
	}
	if res.loud == 0 {
		return res, fmt.Errorf("chaos mpi: no partition ever aborted a collective — the fault schedule is dead")
	}
	if err := leakcheck.Verify(base, 5*time.Second); err != nil {
		return res, fmt.Errorf("class %q: %w", res.class, err)
	}
	return res, nil
}

func errorCount(errs []error) int {
	n := 0
	for _, e := range errs {
		if e != nil {
			n++
		}
	}
	return n
}

// Chaos regenerates E17: the per-fault-class chaos/soak scoreboard.
func Chaos(w io.Writer) error {
	t := report.Table{
		Title: "E17: chaos/soak — per-fault-class recovery scoreboard",
		Note: "every delivered payload verified, every failure typed; drain of " +
			fmt.Sprint(2*chaosDrainMsgs) + " clean messages and a goroutine leak check close each class",
		Headers: []string{"class", "ok", "loud", "degraded", "injected",
			"faults", "vi-err", "flushed", "resets", "io-faults", "repairs", "retries", "recov", "acks", "dups", "timeouts"},
	}
	for i, cl := range chaosClasses() {
		r, err := runChaosClass(cl, i)
		if err != nil {
			return fmt.Errorf("chaos class %q: %w", cl.name, err)
		}
		addChaosRow(&t, r)
	}
	// The collective-layer class runs its own harness: whole MPI worlds
	// instead of an endpoint pair, with the per-rank outcome contract.
	r, err := chaosMPI()
	if err != nil {
		return fmt.Errorf("chaos class %q: %w", r.class, err)
	}
	addChaosRow(&t, r)
	// The multi-rail class too: striped channels over two-rail clusters,
	// with rails severed mid-send (transparent failover / typed
	// all-rails-down) and explicit-Reset recovery.
	r, err = chaosStripe()
	if err != nil {
		return fmt.Errorf("chaos class %q: %w", r.class, err)
	}
	addChaosRow(&t, r)
	// The ownership-transfer class: Remap sends under a concurrent
	// writer and a DMA fault schedule — snapshot delivery or typed
	// failure, typed writer errors, no stranded staging frames.
	r, err = chaosScribble()
	if err != nil {
		return fmt.Errorf("chaos class %q: %w", r.class, err)
	}
	addChaosRow(&t, r)
	// The small-message class: inline batches and singles with
	// lane/link faults landing mid-burst — exactly-once completion per
	// descriptor is the contract.
	r, err = chaosBatch()
	if err != nil {
		return fmt.Errorf("chaos class %q: %w", r.class, err)
	}
	addChaosRow(&t, r)
	t.Fprint(w)
	return nil
}

func addChaosRow(t *report.Table, r chaosResult) {
	t.AddRow(r.class, r.ok, r.loud, r.degraded, r.injected,
		r.nic.Faults, r.nic.VIErrors, r.nic.DescriptorsFlushed, r.nic.NICResets,
		r.nic.IOPageFaults, r.nic.TPTRepairs,
		r.rel.Retries, r.rel.Recoveries, r.rel.AckRescues, r.rel.Duplicates, r.rel.Timeouts)
}
