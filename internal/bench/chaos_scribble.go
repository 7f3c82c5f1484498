package bench

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/mm"
	"repro/internal/msg"
	"repro/internal/phys"
	"repro/internal/via"
)

// chaosScribble is the ownership-transfer fault class: every round sends
// a multi-page payload with the Remap protocol while a concurrent writer
// hammers one byte of the in-flight buffer, and a low-probability DMA
// fault injector runs underneath.  The contract per round:
//
//   - the transfer either delivers the revocation-window snapshot intact
//     (verified byte-for-byte, modulo the writer's one byte landing
//     before the guard went up) or fails typed on both sides — never a
//     silent partial delivery;
//   - every writer error is the typed ErrWriteDuringFlight (fail-fast
//     policy) and copy-on-touch writers never fail at all;
//   - no staged frame leaks, and the class is leakcheck-clean.
//
// Both scribble policies run, each on a fresh fabric.
func chaosScribble() (chaosResult, error) {
	res := chaosResult{class: "scribble"}
	base := leakcheck.Snapshot()
	for i, pol := range []msg.ScribblePolicy{msg.ScribbleFail, msg.ScribbleCopy} {
		cl := &chaosClass{name: "scribble", proto: msg.Remap,
			epOpts: msg.Options{ScribblePolicy: pol}}
		f, err := newChaosFabric(chaosSeed+70+int64(i), cl)
		if err != nil {
			return res, err
		}
		// The remap data phase is one DMA per transfer (the whole point),
		// so the per-op probability must be high enough that the schedule
		// provably fires across the run.
		f.inj.FailProb(via.SiteDMA, 0.15, nil)

		err = chaosWatchdog(fmt.Sprintf("scribble policy %d rounds", pol), func() error {
			for r := 0; r < chaosRounds; r++ {
				ok, loud, err := scribbleRound(f, pol, r)
				res.ok += ok
				res.loud += loud
				if err != nil {
					return fmt.Errorf("round %d: %w", r, err)
				}
			}
			return nil
		})
		if err != nil {
			return res, err
		}

		// Stop injecting; the fabric must drain clean and the schedule
		// must have been alive on both axes — scribbles and DMA faults.
		f.nicA.SetFaultInjector(nil)
		if err := chaosWatchdog("scribble drain", f.drain); err != nil {
			return res, err
		}
		if err := scribbleVerify(f, pol); err != nil {
			return res, err
		}
		res.degraded += int(f.epA.Stats().RemapFallbacks)
		res.injected += f.inj.Stats().Total()
		res.nic = sumStats(res.nic, sumStats(f.nicA.Stats(), f.nicB.Stats()))
		res.repairs += f.repairs
	}
	if res.injected == 0 {
		return res, fmt.Errorf("class %q injected nothing — the fault schedule is dead", res.class)
	}
	if err := leakcheck.Verify(base, 5*time.Second); err != nil {
		return res, fmt.Errorf("class %q: %w", res.class, err)
	}
	return res, nil
}

// scribbleRound runs one transfer under the concurrent writer.  A loud
// round (typed transport failure on both sides) repairs the pair so the
// next round starts whole.
func scribbleRound(f *chaosFabric, pol msg.ScribblePolicy, r int) (ok, loud int, fatal error) {
	sizes := []int{16 * phys.PageSize, 8*phys.PageSize + 37, 24 * phys.PageSize}
	size := sizes[r%len(sizes)]
	src, err := f.procA.Malloc(size)
	if err != nil {
		return 0, 0, err
	}
	dst, err := f.procB.Malloc(size)
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		_ = f.procA.Free(src)
		_ = f.procB.Free(dst)
	}()
	seed := byte(3*r + 7)
	if err := src.FillPattern(seed); err != nil {
		return 0, 0, err
	}
	want := make([]byte, size)
	if err := src.Read(0, want); err != nil {
		return 0, 0, err
	}

	// The writer races the flight in three deterministic beats: one
	// store before the guard goes up (that one may legitimately land in
	// the delivered snapshot), one store provably *inside* the
	// revocation window, and one after the window closes.  The
	// in-window store is aimed, not raced: the sender installs the
	// guard before its RTS and cannot leave the window until Recv
	// grants the transfer, so polling the guard up before calling Recv
	// pins the store inside the window on any scheduler — a blindly
	// hammering goroutine never wins the race on a GOMAXPROCS=1 box,
	// where the sender/receiver channel handoffs starve it out.
	const scribbleOff = phys.PageSize + 9
	var errs []error
	if err := src.Write(scribbleOff, []byte{0xFF}); err != nil {
		errs = append(errs, err)
	}

	sc := make(chan error, 1)
	go func() {
		n, serr := f.epA.Send(src, msg.Remap)
		if serr == nil && n != size {
			serr = fmt.Errorf("chaos scribble: short send %d of %d", n, size)
		}
		sc <- serr
	}()
	for f.kernelA.ActiveGuards() == 0 {
		select {
		case serr := <-sc:
			// A send that finishes before Recv grants it never opened
			// the window — only a pre-guard registration failure can do
			// that, and this schedule doesn't inject one.
			return 0, 0, fmt.Errorf("chaos scribble: send finished before the revocation window opened: %v", serr)
		default:
			runtime.Gosched()
		}
	}
	if err := src.Write(scribbleOff, []byte{0xFF}); err != nil {
		errs = append(errs, err)
	}
	n, rerr := f.epB.Recv(dst)
	serr := <-sc
	if err := src.Write(scribbleOff, []byte{0xFF}); err != nil {
		errs = append(errs, err)
	}

	// Writer taxonomy first: it must hold on loud rounds too.
	for _, we := range errs {
		if !errors.Is(we, mm.ErrWriteDuringFlight) {
			return 0, 0, fmt.Errorf("chaos scribble: untyped writer error: %w", we)
		}
	}
	if pol == msg.ScribbleCopy && len(errs) != 0 {
		return 0, 0, fmt.Errorf("chaos scribble: copy-on-touch writer failed: %v", errs[0])
	}

	if serr != nil || rerr != nil {
		if serr != nil && !errors.Is(serr, msg.ErrTransport) {
			return 0, 0, fmt.Errorf("chaos scribble: untyped send failure: %w", serr)
		}
		if rerr != nil && !errors.Is(rerr, msg.ErrTransport) {
			return 0, 0, fmt.Errorf("chaos scribble: untyped recv failure: %w", rerr)
		}
		return 0, 1, f.repair()
	}
	if n != size {
		return 0, 0, fmt.Errorf("chaos scribble: claimed success but delivered %d of %d", n, size)
	}
	got := make([]byte, size)
	if err := dst.Read(0, got); err != nil {
		return 0, 0, err
	}
	for i := range got {
		if i == scribbleOff && got[i] == 0xFF {
			continue // landed before the revocation window — part of the snapshot
		}
		if got[i] != want[i] {
			return 0, 0, fmt.Errorf("chaos scribble: silent corruption at byte %d (got %#x want %#x)",
				i, got[i], want[i])
		}
	}
	return 1, 0, nil
}

// scribbleVerify proves the schedule was alive and nothing leaked: the
// Remap path actually ran, a DMA fault fired (absorbed by a NIC retry
// or not), the writer actually collided with revocation windows
// (fail-fast counts scribble faults, copy-on-touch counts guard copies),
// and no donated frame was stranded on either kernel.
func scribbleVerify(f *chaosFabric, pol msg.ScribblePolicy) error {
	if f.epA.Stats().RemapSends == 0 {
		return fmt.Errorf("chaos scribble: no remap send completed — class tested nothing")
	}
	if st := sumStats(f.nicA.Stats(), f.nicB.Stats()); st.Faults+st.Retries == 0 {
		return fmt.Errorf("chaos scribble: no DMA fault fired — the fault schedule is dead")
	}
	ks := f.kernelA.Stats()
	switch pol {
	case msg.ScribbleFail:
		if ks.ScribbleFaults == 0 {
			return fmt.Errorf("chaos scribble: writer never hit a revocation window")
		}
	case msg.ScribbleCopy:
		if ks.GuardCopies == 0 {
			return fmt.Errorf("chaos scribble: no copy-on-touch copy happened")
		}
	}
	for name, k := range map[string]*mm.Kernel{"A": f.kernelA, "B": f.kernelB} {
		if n := k.OrphanFrames(); n != 0 {
			return fmt.Errorf("chaos scribble: kernel %s stranded %d frames", name, n)
		}
		if err := k.CheckInvariants(); err != nil {
			return fmt.Errorf("chaos scribble: kernel %s: %w", name, err)
		}
	}
	return nil
}
