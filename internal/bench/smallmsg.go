package bench

// E24: the small-message fast path.  Two tables:
//
//   - E24a pits the inline descriptor path against the classic staged
//     path at sizes under the inline ceiling.  Inline sends skip the
//     TPT lookup, the gather DMA and the bounce through staging — the
//     payload rides the descriptor image and is charged as PIO — so
//     the virtual cost per message, and with it messages/sec, must
//     separate by well over 2× at 64 B.
//
//   - E24b sweeps the posting batch size over the engine and reports
//     the two per-op overheads batching amortises: doorbells/op (one
//     MMIO per batch instead of per post) and CQ wakeups/op (one
//     notify per completion burst instead of per completion).  Both
//     curves must fall as the batch grows.

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/phys"
	"repro/internal/report"
	"repro/internal/simtime"
	"repro/internal/via"
)

const (
	smallMsgMsgs      = 4096 // messages per E24a point
	smallMsgBatchMsgs = 4096 // messages per E24b point
	smallMsgRound     = 128  // in-flight window per E24b round (< lane depth)
	smallMsgBytes     = 64   // E24b payload
)

// SmallMsg regenerates the E24 tables.
func SmallMsg(w io.Writer) error {
	a := report.Series{
		Title:  "E24a: inline fast path — virtual cost per message, inline vs staged",
		Note:   fmt.Sprintf("%d messages per point, synchronous data path; staged sends gather from registered memory, inline rides the descriptor image", smallMsgMsgs),
		XLabel: "bytes",
		Lines:  []string{"inline sim-µs/msg", "staged sim-µs/msg", "inline kmsg/sim-s", "staged kmsg/sim-s", "speedup ×"},
	}
	for _, size := range []int{16, 64, 256} {
		in, err := smallMsgPathPoint(size, true, smallMsgMsgs)
		if err != nil {
			return fmt.Errorf("smallmsg inline %d: %w", size, err)
		}
		st, err := smallMsgPathPoint(size, false, smallMsgMsgs)
		if err != nil {
			return fmt.Errorf("smallmsg staged %d: %w", size, err)
		}
		a.AddPoint(fmt.Sprintf("%d", size), in, st, 1e3/in, 1e3/st, st/in)
	}
	a.Fprint(w)

	b := report.Series{
		Title:  "E24b: batched posts and batched completion draining — per-op overheads vs batch size",
		Note:   fmt.Sprintf("%d %d B inline sends per point over the 2-lane engine, posted in batches; one parked waiter drains the send CQ", smallMsgBatchMsgs, smallMsgBytes),
		XLabel: "batch",
		Lines:  []string{"doorbells/op", "CQ wakeups/op", "sim-µs/msg"},
	}
	for _, win := range []int{1, 2, 4, 8, 16, 32} {
		db, wk, us, err := smallMsgBatchPoint(win, smallMsgBatchMsgs)
		if err != nil {
			return fmt.Errorf("smallmsg batch %d: %w", win, err)
		}
		b.AddPoint(fmt.Sprintf("%d", win), db, wk, us)
	}
	b.Fprint(w)
	return nil
}

// smallMsgRig is a two-NIC fabric with one connected VI pair.
type smallMsgRig struct {
	meter      *simtime.Meter
	memA, memB *phys.Memory
	nicA, nicB *via.NIC
	viA, viB   *via.VI
}

// smallMsgFabric builds the rig; a non-nil sendCQ attaches to viA.
func smallMsgFabric(name string, sendCQ *via.CQ) (*smallMsgRig, error) {
	r := &smallMsgRig{meter: simtime.NewMeter(), memA: phys.New(64), memB: phys.New(64)}
	r.nicA = via.NewNIC(name+"A", r.memA, r.meter, 64)
	r.nicB = via.NewNIC(name+"B", r.memB, r.meter, 64)
	net := via.NewNetwork()
	if err := net.Attach(r.nicA); err != nil {
		return nil, err
	}
	if err := net.Attach(r.nicB); err != nil {
		return nil, err
	}
	var err error
	if sendCQ != nil {
		r.viA, err = r.nicA.CreateVIWithCQ(3, sendCQ, nil)
	} else {
		r.viA, err = r.nicA.CreateVI(3)
	}
	if err != nil {
		return nil, err
	}
	if r.viB, err = r.nicB.CreateVI(3); err != nil {
		return nil, err
	}
	if err := net.Connect(r.viA, r.viB); err != nil {
		return nil, err
	}
	return r, nil
}

// smallMsgPathPoint drives msgs sequential size-byte messages through
// the synchronous data path — inline or staged — and returns the
// virtual microseconds per message.
func smallMsgPathPoint(size int, inline bool, msgs int) (float64, error) {
	r, err := smallMsgFabric("smallmsg", nil)
	if err != nil {
		return 0, err
	}
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	var sd, rd *via.Descriptor
	if inline {
		sd = via.NewDescriptor(via.OpSend)
		rd = via.NewDescriptor(via.OpRecv)
	} else {
		hA, err := regPage(r.nicA, r.memA, 3)
		if err != nil {
			return 0, err
		}
		hB, err := regPage(r.nicB, r.memB, 3)
		if err != nil {
			return 0, err
		}
		sd = via.NewDescriptor(via.OpSend, via.Segment{Handle: hA, Offset: 0, Length: size})
		rd = via.NewDescriptor(via.OpRecv, via.Segment{Handle: hB, Offset: 0, Length: phys.PageSize})
	}
	start := r.meter.Now()
	for i := 0; i < msgs; i++ {
		if i > 0 {
			sd.Reset()
			rd.Reset()
		}
		if inline {
			if err := sd.SetInline(payload); err != nil {
				return 0, err
			}
		}
		if err := r.viB.PostRecv(rd); err != nil {
			return 0, err
		}
		if err := r.viA.PostSend(sd); err != nil {
			return 0, err
		}
		if sd.Status != via.StatusSuccess || rd.Status != via.StatusSuccess {
			return 0, fmt.Errorf("msg %d: statuses %v/%v", i, sd.Status, rd.Status)
		}
	}
	if inline {
		if st := r.nicA.Stats(); st.InlineSends != uint64(msgs) {
			return 0, fmt.Errorf("inline sends %d, want %d — fast path not taken", st.InlineSends, msgs)
		}
	}
	return (r.meter.Now() - start).Micros() / float64(msgs), nil
}

// smallMsgBatchPoint posts msgs inline sends through the engine in
// batches of win descriptors while one blocked waiter drains the send
// CQ, and returns (doorbells/op, CQ wakeups/op, sim-µs/msg).
func smallMsgBatchPoint(win, msgs int) (float64, float64, float64, error) {
	// Depth covers the whole run: completion pushes must never race the
	// drain into an overflow drop, or the waiter starves.
	sendCQ := via.NewCQ(msgs)
	r, err := smallMsgFabric("smallbatch", sendCQ)
	if err != nil {
		return 0, 0, 0, err
	}
	r.nicA.StartEngineLanes(2)
	defer r.nicA.StopEngine()

	payload := make([]byte, smallMsgBytes)
	for i := range payload {
		payload[i] = byte(i * 17)
	}

	// The waiter parks on the CQ between bursts and acks every drained
	// completion, so the producer can hold the next batch until the
	// queue is empty again — each burst then lands on a parked waiter
	// and wakeups/op measures notifies per burst, deterministically.
	acks := make(chan struct{}, smallMsgRound)
	var wg sync.WaitGroup
	var drainErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for got := 0; got < msgs; got++ {
			if _, err := sendCQ.Wait(); err != nil {
				drainErr = err
				return
			}
			acks <- struct{}{}
		}
	}()

	recvs := make([]*via.Descriptor, smallMsgRound)
	for i := range recvs {
		recvs[i] = via.NewDescriptor(via.OpRecv)
	}
	sends := make([]*via.Descriptor, smallMsgRound)
	for i := range sends {
		sends[i] = via.NewDescriptor(via.OpSend)
	}
	start := r.meter.Now()
	dbStart := r.nicA.Stats().Doorbells
	for done := 0; done < msgs; done += smallMsgRound {
		if done > 0 {
			for _, rd := range recvs {
				rd.Reset()
			}
		}
		if err := r.viB.PostRecvBatch(recvs); err != nil {
			return 0, 0, 0, err
		}
		// Interlock per batch: wait the batch's sends and the waiter's
		// drain acks before posting the next.
		for i := 0; i < smallMsgRound; i += win {
			batch := sends[i : i+win]
			for _, sd := range batch {
				if done > 0 {
					sd.Reset()
				}
				if err := sd.SetInline(payload); err != nil {
					return 0, 0, 0, err
				}
			}
			if win == 1 {
				err = r.viA.PostSend(batch[0])
			} else {
				err = r.viA.PostSendBatch(batch)
			}
			if err != nil {
				return 0, 0, 0, err
			}
			for k, sd := range batch {
				if st := sd.Wait(); st != via.StatusSuccess {
					return 0, 0, 0, fmt.Errorf("send %d+%d: status %v", done+i, k, st)
				}
			}
			for range batch {
				<-acks
			}
		}
		// The matched receives complete a beat behind their sends, so
		// settle them too before the next round resets the descriptors.
		for i, rd := range recvs {
			if st := rd.Wait(); st != via.StatusSuccess {
				return 0, 0, 0, fmt.Errorf("round %d recv %d: status %v", done/smallMsgRound, i, st)
			}
		}
	}
	wg.Wait()
	if drainErr != nil {
		return 0, 0, 0, drainErr
	}
	n := float64(msgs)
	db := float64(r.nicA.Stats().Doorbells-dbStart) / n
	wk := float64(sendCQ.Wakeups()) / n
	us := (r.meter.Now() - start).Micros() / n
	return db, wk, us, nil
}
