package bench

// The E17 "batch" class: small-message batching chaos at the raw VIA
// layer.  Each round builds a fresh VI pair over two engine-backed
// NICs, posts a burst of inline sends through both entry points of the
// one dispatch route — PostSendBatch groups on even rounds, the same
// descriptors as plain PostSend singles on odd rounds — and lets lane
// faults, lane stalls and link cuts land in the middle of the burst.
// The contract is per descriptor:
//
//   - exactly-once completion — every posted descriptor (send and
//     receive) surfaces on its CQ exactly once with a terminal status;
//     a batch whose first descriptor faults must still flush the rest
//     loudly, never drop or double-complete one;
//   - no stranded waiters — every posted send reaches Wait within the
//     watchdog deadline even when the fault hits mid-batch;
//   - zero silent corruption — every successfully delivered inline
//     payload verifies byte for byte.
//
// The scoreboard: ok = verified deliveries, loud = typed send faults
// plus refused posts on an errored VI, injected = injector hits + link
// cuts.  A soak in which the batch counters never move, or no fault
// ever lands, is a dead schedule.

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/faultinject"
	"repro/internal/leakcheck"
	"repro/internal/phys"
	"repro/internal/simtime"
	"repro/internal/via"
)

const (
	chaosBatchRounds = 24
	chaosBatchMsgs   = 32 // descriptors per round
	chaosBatchGroup  = 8  // PostSendBatch size
	chaosBatchBytes  = 64 // inline payload per descriptor
)

// chaosBatchRound runs one burst over a fresh VI pair and checks the
// exactly-once contract on both CQs.
func chaosBatchRound(nw *via.Network, nicA, nicB *via.NIC, round int, res *chaosResult) error {
	singles := round%2 == 1
	sendCQ := via.NewCQ(2 * chaosBatchMsgs)
	recvCQ := via.NewCQ(2 * chaosBatchMsgs)
	viA, err := nicA.CreateVIWithCQ(7, sendCQ, nil)
	if err != nil {
		return err
	}
	viB, err := nicB.CreateVIWithCQ(7, nil, recvCQ)
	if err != nil {
		return err
	}
	if err := nw.Connect(viA, viB); err != nil {
		return err
	}

	recvs := make([]*via.Descriptor, chaosBatchMsgs)
	for i := range recvs {
		recvs[i] = via.NewDescriptor(via.OpRecv)
	}
	if err := viB.PostRecvBatch(recvs); err != nil {
		return err
	}

	payload := make([]byte, chaosBatchBytes)
	for i := range payload {
		payload[i] = byte(i*13 + round)
	}
	// Every fourth round cuts the link halfway through the burst, so
	// the fault lands mid-batch while earlier descriptors of the same
	// batch are already on the wire.
	cutAt := -1
	if round%4 == 2 {
		cutAt = chaosBatchMsgs / 2
		res.injected++
	}

	posted := make([]*via.Descriptor, 0, chaosBatchMsgs)
	newSend := func() (*via.Descriptor, error) {
		d := via.NewDescriptor(via.OpSend)
		if err := d.SetInline(payload); err != nil {
			return nil, err
		}
		return d, nil
	}
	for i := 0; i < chaosBatchMsgs; {
		if i == cutAt {
			nw.SetLinkDown(nicA.Name(), nicB.Name())
		}
		if singles {
			d, err := newSend()
			if err != nil {
				return err
			}
			if perr := viA.PostSend(d); perr != nil {
				res.loud++ // refused post on an errored VI: typed, not lost
			} else {
				posted = append(posted, d)
			}
			i++
			continue
		}
		batch := make([]*via.Descriptor, 0, chaosBatchGroup)
		for k := 0; k < chaosBatchGroup && i+k < chaosBatchMsgs; k++ {
			d, err := newSend()
			if err != nil {
				return err
			}
			batch = append(batch, d)
		}
		if perr := viA.PostSendBatch(batch); perr != nil {
			res.loud++ // all-or-nothing: the whole batch was refused
		} else {
			posted = append(posted, batch...)
		}
		i += len(batch)
	}
	if cutAt >= 0 {
		defer nw.SetLinkUp(nicA.Name(), nicB.Name())
	}

	// No stranded waiters: every posted send must reach a terminal
	// status (the class watchdog bounds this loop).
	for _, d := range posted {
		if st := d.Wait(); st == via.StatusSuccess {
			// counted below off the receive side, where the payload is
			// actually verified
		} else {
			res.loud++
		}
	}

	// Exactly-once on both CQs.  The completions trail the descriptor
	// status by at most the completing goroutine's CQ push, so drain
	// with a short grace loop before declaring one lost.
	if err := chaosBatchDrainCQ(sendCQ, posted, false, payload, res); err != nil {
		return fmt.Errorf("send CQ: %w", err)
	}
	if err := chaosBatchDrainCQ(recvCQ, recvs, true, payload, res); err != nil {
		return fmt.Errorf("recv CQ: %w", err)
	}
	if d := sendCQ.Dropped() + recvCQ.Dropped(); d != 0 {
		return fmt.Errorf("CQ dropped %d completions with depth > burst", d)
	}
	return nil
}

// chaosBatchDrainCQ drains one CQ and proves every expected descriptor
// completed exactly once — none lost, none double-completed, nothing
// unexpected.  Successful receives also verify the inline payload.
func chaosBatchDrainCQ(cq *via.CQ, expect []*via.Descriptor, recv bool,
	payload []byte, res *chaosResult) error {
	seen := make(map[*via.Descriptor]int, len(expect))
	for _, d := range expect {
		seen[d] = 0
	}
	got := 0
	deadline := time.Now().Add(5 * time.Second)
	for got < len(expect) {
		c, err := cq.Poll()
		if err != nil {
			if time.Now().After(deadline) {
				return fmt.Errorf("lost completions: %d of %d after %v",
					len(expect)-got, len(expect), 5*time.Second)
			}
			time.Sleep(100 * time.Microsecond)
			continue
		}
		n, ok := seen[c.Desc]
		if !ok {
			return fmt.Errorf("completion for a descriptor that was never posted: %+v", c)
		}
		if n != 0 {
			return fmt.Errorf("descriptor double-completed (%d times)", n+1)
		}
		seen[c.Desc] = 1
		got++
		if recv && c.Desc.Status == via.StatusSuccess {
			if c.Desc.Transferred != len(payload) || !bytes.Equal(c.Desc.Inline(), payload) {
				return fmt.Errorf("silent corruption: inline recv delivered %d bytes, pattern mismatch",
					c.Desc.Transferred)
			}
			res.ok++
		}
	}
	if _, err := cq.Poll(); err == nil {
		return fmt.Errorf("CQ holds extra completions beyond the posted burst")
	}
	return nil
}

// chaosBatch is the batched small-message fault class harness.
func chaosBatch() (chaosResult, error) {
	res := chaosResult{class: "batch"}
	base := leakcheck.Snapshot()
	meter := simtime.NewMeter()
	nw := via.NewNetwork()
	nicA := via.NewNIC("batchA", phys.New(64), meter, 256)
	nicB := via.NewNIC("batchB", phys.New(64), meter, 256)
	if err := nw.Attach(nicA); err != nil {
		return res, err
	}
	if err := nw.Attach(nicB); err != nil {
		return res, err
	}
	inj := faultinject.New(chaosSeed)
	inj.FailProb(via.SiteLane, 0.08, nil)
	inj.StallProb(via.SiteLane, 0.15, 200*time.Microsecond)
	inj.FailProb(via.SiteLink, 0.04, nil)
	nicA.SetFaultInjector(inj)
	nicA.StartEngineLanes(2)
	defer nicA.StopEngine()

	for round := 0; round < chaosBatchRounds; round++ {
		err := chaosWatchdog(fmt.Sprintf("batch round %d", round), func() error {
			return chaosBatchRound(nw, nicA, nicB, round, &res)
		})
		if err != nil {
			return res, err
		}
	}

	nicA.SetFaultInjector(nil)
	nicA.StopEngine()
	res.injected += inj.Stats().Total()
	res.nic = sumStats(nicA.Stats(), nicB.Stats())
	st := nicA.Stats()
	if st.BatchPosts == 0 || st.DoorbellsSaved == 0 || st.InlineSends == 0 {
		return res, fmt.Errorf("chaos batch: batching never engaged (batch posts %d, saved doorbells %d, inline sends %d)",
			st.BatchPosts, st.DoorbellsSaved, st.InlineSends)
	}
	if res.injected == 0 || res.nic.Faults == 0 {
		return res, fmt.Errorf("chaos batch: no fault ever landed — the schedule is dead")
	}
	if res.ok == 0 || res.loud == 0 {
		return res, fmt.Errorf("chaos batch: degenerate scoreboard (ok %d, loud %d) — need both deliveries and typed failures",
			res.ok, res.loud)
	}
	if err := leakcheck.Verify(base, 5*time.Second); err != nil {
		return res, fmt.Errorf("class %q: %w", res.class, err)
	}
	return res, nil
}
