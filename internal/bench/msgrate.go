package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/phys"
	"repro/internal/report"
	"repro/internal/simtime"
	"repro/internal/via"
)

// MsgRate measures small-message throughput of the multi-lane NIC
// engine: sustained one-page send/recv rate versus the number of
// concurrently active VIs.  Like E15 this sweep reports *real*
// wall-clock throughput — the scaling of the data path (extent-batched
// translation, atomic stats, pooled payloads, per-lane queues) is a
// property of the implementation, invisible to the virtual clock — and
// the virtual cost per message alongside it as the regression guard
// that the simulated hardware model did not change.
func MsgRate(w io.Writer) error {
	const totalMsgs = 120_000
	s := report.Series{
		Title:  "E16: data-path message rate — engine throughput vs active VIs",
		Note:   fmt.Sprintf("%d one-page messages total, multi-lane engine; wall-clock rate (higher is better) and virtual cost per message", totalMsgs),
		XLabel: "VIs",
		Lines:  []string{"kmsg/s", "sim-µs/msg"},
		Wall:   []string{"kmsg/s"},
	}
	for _, nVIs := range []int{1, 2, 4, 8, 16} {
		kmsg, simUS, err := msgRatePoint(nVIs, totalMsgs/nVIs)
		if err != nil {
			return fmt.Errorf("msgrate %d: %w", nVIs, err)
		}
		s.AddPoint(fmt.Sprintf("%d", nVIs), kmsg, simUS)
	}
	s.Fprint(w)
	return nil
}

// msgRatePoint drives msgsPerVI one-page messages over each of nVIs VI
// pairs with one posting goroutine per VI and the multi-lane engine on
// the sending NIC.  It returns (thousand messages per second
// wall-clock, virtual microseconds per message).
func msgRatePoint(nVIs, msgsPerVI int) (float64, float64, error) {
	// window bounds descriptors in flight per VI, far enough below the
	// engine's per-lane queue depth that posts never overflow even when
	// several VIs hash to one lane.
	const window = 16
	frames := 2*nVIs + 8
	meter := simtime.NewMeter()
	memA, memB := phys.New(frames), phys.New(frames)
	net := via.NewNetwork()
	nicA := via.NewNIC("msgrateA", memA, meter, frames)
	nicB := via.NewNIC("msgrateB", memB, meter, frames)
	if err := net.Attach(nicA); err != nil {
		return 0, 0, err
	}
	if err := net.Attach(nicB); err != nil {
		return 0, 0, err
	}

	visA := make([]*via.VI, nVIs)
	visB := make([]*via.VI, nVIs)
	hA := make([]via.MemHandle, nVIs)
	hB := make([]via.MemHandle, nVIs)
	for i := 0; i < nVIs; i++ {
		tag := via.ProtectionTag(i + 1)
		var err error
		if visA[i], err = nicA.CreateVI(tag); err != nil {
			return 0, 0, err
		}
		if visB[i], err = nicB.CreateVI(tag); err != nil {
			return 0, 0, err
		}
		if err := net.Connect(visA[i], visB[i]); err != nil {
			return 0, 0, err
		}
		if hA[i], err = regPage(nicA, memA, tag); err != nil {
			return 0, 0, err
		}
		if hB[i], err = regPage(nicB, memB, tag); err != nil {
			return 0, 0, err
		}
	}

	nicA.StartEngine()
	defer nicA.StopEngine()

	errs := make([]error, nVIs)
	var wg sync.WaitGroup
	simStart := meter.Now()
	start := time.Now()
	for w := 0; w < nVIs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = msgRateVI(visA[w], visB[w], hA[w], hB[w], msgsPerVI, window)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	simElapsed := meter.Now() - simStart
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}
	msgs := float64(nVIs * msgsPerVI)
	return msgs / elapsed.Seconds() / 1000, simElapsed.Micros() / msgs, nil
}

// msgRateVI pumps msgs one-page messages through a single VI pair,
// recycling a window of descriptors: the recv for message i is posted
// before its send, and waiting on send i-window (sends and their
// matched recvs complete in posting order) frees both slots for reuse.
func msgRateVI(va, vb *via.VI, ha, hb via.MemHandle, msgs, window int) error {
	sd := make([]*via.Descriptor, window)
	rd := make([]*via.Descriptor, window)
	for i := 0; i < msgs; i++ {
		k := i % window
		if sd[k] == nil {
			sd[k] = via.NewDescriptor(via.OpSend, via.Segment{Handle: ha, Offset: 0, Length: 64})
			rd[k] = via.NewDescriptor(via.OpRecv, via.Segment{Handle: hb, Offset: 0, Length: phys.PageSize})
		} else {
			if st := sd[k].Wait(); st != via.StatusSuccess {
				return fmt.Errorf("msg %d: send status %v", i-window, st)
			}
			if st := rd[k].Status; st != via.StatusSuccess {
				return fmt.Errorf("msg %d: recv status %v", i-window, st)
			}
			sd[k].Reset()
			rd[k].Reset()
		}
		if err := vb.PostRecv(rd[k]); err != nil {
			return err
		}
		if err := va.PostSend(sd[k]); err != nil {
			return err
		}
	}
	for k := 0; k < window && k < msgs; k++ {
		if st := sd[k].Wait(); st != via.StatusSuccess {
			return fmt.Errorf("drain: send status %v", st)
		}
	}
	return nil
}

// regPage allocates one frame and registers it on the NIC.
func regPage(n *via.NIC, mem *phys.Memory, tag via.ProtectionTag) (via.MemHandle, error) {
	pfn, err := mem.AllocFrame()
	if err != nil {
		return 0, err
	}
	return n.RegisterMemory([]phys.PFN{pfn}, 0, phys.PageSize, tag, via.MemAttrs{})
}
