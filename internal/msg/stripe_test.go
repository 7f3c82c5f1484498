package msg

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kagent"
	"repro/internal/leakcheck"
	"repro/internal/mm"
	"repro/internal/proc"
	"repro/internal/simtime"
	"repro/internal/via"
	"repro/internal/vipl"
)

// stripeRig is a two-node multi-rail fabric with a unidirectional
// stripe from node A to node B.  Rail r runs over NICs "txN"/"rxN".
type stripeRig struct {
	meter  *simtime.Meter
	nw     *via.Network
	procA  *proc.Process
	procB  *proc.Process
	tx     *StripeSender
	rx     *StripeReceiver
	txEps  []*Endpoint
	rxEps  []*Endpoint
	nRails int
}

func newStripeRig(t testing.TB, rails int, sopts StripeOptions, opts ...Options) *stripeRig {
	t.Helper()
	meter := simtime.NewMeter()
	cfg := mm.Config{RAMPages: 4096, SwapPages: 8192, ClockBatch: 128, SwapBatch: 32}
	kernelA := mm.NewKernel(cfg, meter)
	kernelB := mm.NewKernel(cfg, meter)
	nw := via.NewNetwork()
	r := &stripeRig{
		meter:  meter,
		nw:     nw,
		procA:  proc.New(kernelA, "stripe-tx", false),
		procB:  proc.New(kernelB, "stripe-rx", false),
		nRails: rails,
	}
	for i := 0; i < rails; i++ {
		nicA := via.NewNIC(fmt.Sprintf("tx%d", i), kernelA.Phys(), meter, 1024)
		nicB := via.NewNIC(fmt.Sprintf("rx%d", i), kernelB.Phys(), meter, 1024)
		if err := nw.Attach(nicA); err != nil {
			t.Fatal(err)
		}
		if err := nw.Attach(nicB); err != nil {
			t.Fatal(err)
		}
		agentA := kagent.New(kernelA, nicA, core.MustNew(core.StrategyKiobuf))
		agentB := kagent.New(kernelB, nicB, core.MustNew(core.StrategyKiobuf))
		ea, err := NewEndpoint(fmt.Sprintf("stx%d", i), vipl.OpenNic(agentA, r.procA), meter, 0, opts...)
		if err != nil {
			t.Fatal(err)
		}
		eb, err := NewEndpoint(fmt.Sprintf("srx%d", i), vipl.OpenNic(agentB, r.procB), meter, 0, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := Pair(nw, ea, eb); err != nil {
			t.Fatal(err)
		}
		r.txEps = append(r.txEps, ea)
		r.rxEps = append(r.rxEps, eb)
	}
	var err error
	if r.tx, err = NewStripeSender("tx", r.txEps, sopts); err != nil {
		t.Fatal(err)
	}
	if r.rx, err = NewStripeReceiver("rx", r.rxEps, sopts); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *stripeRig) sever(rail int) {
	r.nw.SetLinkDown(fmt.Sprintf("tx%d", rail), fmt.Sprintf("rx%d", rail))
}

func (r *stripeRig) heal(rail int) {
	r.nw.SetLinkUp(fmt.Sprintf("tx%d", rail), fmt.Sprintf("rx%d", rail))
}

// stripePayload builds a deterministic, offset-sensitive pattern so a
// chunk landed at the wrong offset (or doubled) cannot verify.
func stripePayload(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i)*31 ^ seed ^ byte(i>>8)
	}
	return p
}

// sendAndVerify pushes one payload through the stripe and checks the
// received bytes are exact.
func sendAndVerify(t *testing.T, r *stripeRig, n int, seed byte) {
	t.Helper()
	want := stripePayload(n, seed)
	src, err := r.procA.Malloc(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Write(0, want); err != nil {
		t.Fatal(err)
	}
	// The rail pollers drain concurrently, so Send never needs a
	// matching Recv in flight.
	if _, err := r.tx.Send(src); err != nil {
		t.Fatalf("send(%d bytes): %v", n, err)
	}
	dst, err := r.procB.Malloc(n)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, n)
	m, err := r.rx.Recv(dst)
	if err != nil {
		t.Fatalf("recv(%d bytes): %v (rx stats %+v)", n, err, r.rx.Stats())
	}
	if m != n {
		t.Fatalf("recv = %d bytes, want %d", m, n)
	}
	if err := dst.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("payload mismatch over %d bytes", n)
	}
}

func TestStripeDelivers(t *testing.T) {
	leakcheck.Check(t)
	r := newStripeRig(t, 2, StripeOptions{Chunk: 4096, RecvTimeout: 10 * time.Second})
	defer r.rx.Close()
	// One byte, partial chunk, exact chunk, chunk+1, many chunks.
	for i, n := range []int{1, 1000, 4096, 4097, 4096*5 + 123} {
		sendAndVerify(t, r, n, byte(i+1))
	}
	st := r.tx.Stats()
	if st.Sends != 5 {
		t.Fatalf("sends = %d, want 5", st.Sends)
	}
	// Round-robin placement really uses both rails.
	if st.RailBytes[0] == 0 || st.RailBytes[1] == 0 {
		t.Fatalf("rail bytes = %v, want both rails used", st.RailBytes)
	}
	if rst := r.rx.Stats(); rst.Delivered != 5 || rst.Pending != 0 {
		t.Fatalf("recv stats = %+v", rst)
	}
}

func TestStripeFailoverMidSend(t *testing.T) {
	leakcheck.Check(t)
	r := newStripeRig(t, 2, StripeOptions{Chunk: 4096, RecvTimeout: 30 * time.Second})
	defer r.rx.Close()
	// Sever rail 1 the moment chunk 3 is about to ride it: chunks
	// already in flight on that rail are lost to StatusLinkError and the
	// stripe re-issues on rail 0.
	killed := false
	r.tx.testHook = func(_ uint64, chunk, rail int) {
		if chunk == 3 && rail == 1 && !killed {
			killed = true
			r.sever(1)
		}
	}
	sendAndVerify(t, r, 8*4096+55, 7)
	if !killed {
		t.Fatal("test hook never fired")
	}
	if live := r.tx.LiveRails(); live != 1 {
		t.Fatalf("live rails = %d, want 1", live)
	}
	st := r.tx.Stats()
	if st.Failovers == 0 {
		t.Fatal("no failover recorded")
	}
	// Degraded but alive: the next send runs entirely on rail 0.
	r.tx.testHook = nil
	before := r.tx.Stats().RailBytes[0]
	sendAndVerify(t, r, 3*4096, 9)
	if r.tx.Stats().RailBytes[0] <= before {
		t.Fatal("surviving rail carried no traffic after failover")
	}
}

func TestStripeAllRailsDown(t *testing.T) {
	leakcheck.Check(t)
	r := newStripeRig(t, 2, StripeOptions{
		Chunk:       4096,
		RecvTimeout: 200 * time.Millisecond,
	})
	defer r.rx.Close()
	r.sever(0)
	r.sever(1)
	src, err := r.procA.Malloc(3 * 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.FillPattern(1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.tx.Send(src); !errors.Is(err, ErrAllRailsDown) {
		t.Fatalf("send on dead fabric: err = %v, want ErrAllRailsDown", err)
	}
	// The receiver surfaces a bounded timeout, not a hang.
	dst, _ := r.procB.Malloc(3 * 4096)
	if _, err := r.rx.Recv(dst); !errors.Is(err, ErrRecvTimeout) {
		t.Fatalf("recv: err = %v, want ErrRecvTimeout", err)
	}
}

func TestStripeResetRejoinsHealedRail(t *testing.T) {
	leakcheck.Check(t)
	r := newStripeRig(t, 2, StripeOptions{Chunk: 4096, RecvTimeout: 30 * time.Second})
	defer r.rx.Close()
	killed := false
	r.tx.testHook = func(_ uint64, chunk, rail int) {
		if rail == 1 && !killed {
			killed = true
			r.sever(1)
		}
	}
	sendAndVerify(t, r, 6*4096, 3)
	r.tx.testHook = nil
	if r.tx.LiveRails() != 1 {
		t.Fatalf("live rails = %d, want 1 after kill", r.tx.LiveRails())
	}
	// Heal the link, rejoin via the explicit Reset path.
	r.heal(1)
	if err := ResetRailPair(r.tx, r.rx, 1); err != nil {
		t.Fatalf("reset rail 1: %v", err)
	}
	if r.tx.LiveRails() != 2 {
		t.Fatalf("live rails = %d, want 2 after reset", r.tx.LiveRails())
	}
	before := r.tx.Stats().RailBytes[1]
	sendAndVerify(t, r, 6*4096, 4)
	sendAndVerify(t, r, 6*4096, 5)
	if r.tx.Stats().RailBytes[1] <= before {
		t.Fatal("rejoined rail carried no traffic")
	}
}

// TestStripeAbortThenRecover drives the full failure protocol: every
// rail dies mid-send (typed ErrAllRailsDown), then the links heal, both
// rails Reset, the aborted transfer is abandoned — and the stripe
// resumes delivering in order, with the corpse stepped over rather than
// wedging delivery.
func TestStripeAbortThenRecover(t *testing.T) {
	leakcheck.Check(t)
	r := newStripeRig(t, 2, StripeOptions{Chunk: 4096, RecvTimeout: 30 * time.Second})
	defer r.rx.Close()
	// A clean transfer first, so the aborted one sits between delivered
	// traffic and future traffic.
	sendAndVerify(t, r, 3*4096, 1)
	// Kill both rails at chunk 2 of the next send.
	killed := false
	r.tx.testHook = func(_ uint64, chunk, _ int) {
		if chunk == 2 && !killed {
			killed = true
			r.sever(0)
			r.sever(1)
		}
	}
	src, err := r.procA.Malloc(6 * 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.FillPattern(2); err != nil {
		t.Fatal(err)
	}
	if _, err := r.tx.Send(src); !errors.Is(err, ErrAllRailsDown) {
		t.Fatalf("send: err = %v, want ErrAllRailsDown", err)
	}
	r.tx.testHook = nil
	if st := r.tx.Stats(); st.Aborts != 1 {
		t.Fatalf("aborts = %d, want 1", st.Aborts)
	}
	// Recover: heal, reset each rail, abandon the corpse.
	for rail := 0; rail < 2; rail++ {
		r.heal(rail)
		if err := ResetRailPair(r.tx, r.rx, rail); err != nil {
			t.Fatalf("reset rail %d: %v", rail, err)
		}
	}
	AbandonAborted(r.tx, r.rx)
	if live := r.tx.LiveRails(); live != 2 {
		t.Fatalf("live rails = %d, want 2 after reset", live)
	}
	// In-order delivery must step over the aborted transfer.
	sendAndVerify(t, r, 5*4096+77, 3)
	sendAndVerify(t, r, 2*4096, 4)
	st := r.rx.Stats()
	if st.Pending != 0 {
		t.Fatalf("pending = %d, want 0 (abandoned reassembly leaked)", st.Pending)
	}
}

func TestStripeSingleRail(t *testing.T) {
	leakcheck.Check(t)
	r := newStripeRig(t, 1, StripeOptions{Chunk: 4096, RecvTimeout: 10 * time.Second})
	defer r.rx.Close()
	sendAndVerify(t, r, 10000, 2)
}

func TestStripeClosedRecv(t *testing.T) {
	r := newStripeRig(t, 2, StripeOptions{Chunk: 4096})
	r.rx.Close()
	dst, _ := r.procB.Malloc(64)
	if _, err := r.rx.Recv(dst); !errors.Is(err, ErrStripeClosed) {
		t.Fatalf("recv on closed stripe: %v", err)
	}
	if _, err := r.tx.Send(dst); err == nil {
		r.tx.Close()
		if _, err := r.tx.Send(dst); !errors.Is(err, ErrStripeClosed) {
			t.Fatalf("send on closed sender: %v", err)
		}
	}
}

// FuzzStripeReassembly proves payload integrity over fuzz-chosen rail
// counts, chunk sizes, message lengths and mid-stream rail deaths:
// whatever the geometry and wherever the fault lands, a send either
// delivers the exact payload or fails with the typed ErrAllRailsDown —
// never a corruption, never a hang.
func FuzzStripeReassembly(f *testing.F) {
	f.Add(uint8(2), uint8(2), uint16(20000), uint8(3), uint8(1), uint8(5))
	f.Add(uint8(1), uint8(0), uint16(1), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(4), uint8(3), uint16(60000), uint8(7), uint8(2), uint8(9))
	f.Add(uint8(3), uint8(1), uint16(12289), uint8(255), uint8(1), uint8(77))
	f.Add(uint8(2), uint8(0), uint16(8192), uint8(0), uint8(1), uint8(42))
	f.Fuzz(func(t *testing.T, railsSel, chunkSel uint8, msgLen uint16, killChunk, killRail, seed uint8) {
		rails := 1 + int(railsSel)%4 // 1..4 rails
		chunkSizes := []int{1024, 2048, 4096, 8192}
		chunk := chunkSizes[int(chunkSel)%len(chunkSizes)]
		n := 1 + int(msgLen)%(6*chunk) // 1 byte .. ~6 chunks
		r := newStripeRig(t, rails, StripeOptions{
			Chunk:       chunk,
			RecvTimeout: 30 * time.Second,
		})
		defer r.rx.Close()
		kr := int(killRail) % rails
		killed := false
		r.tx.testHook = func(_ uint64, c, rail int) {
			if !killed && c == int(killChunk) && rail == kr {
				killed = true
				r.sever(kr)
			}
		}
		want := stripePayload(n, seed)
		src, err := r.procA.Malloc(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := src.Write(0, want); err != nil {
			t.Fatal(err)
		}
		_, serr := r.tx.Send(src)
		if serr != nil {
			// The only acceptable failure is the typed every-rail-dead
			// error (reachable when the fuzz kills the last live rail).
			if !errors.Is(serr, ErrAllRailsDown) {
				t.Fatalf("send: %v", serr)
			}
			return
		}
		dst, err := r.procB.Malloc(n)
		if err != nil {
			t.Fatal(err)
		}
		m, rerr := r.rx.Recv(dst)
		if rerr != nil {
			t.Fatalf("recv after successful send: %v", rerr)
		}
		if m != n {
			t.Fatalf("recv = %d bytes, want %d", m, n)
		}
		got := make([]byte, n)
		if err := dst.Read(0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("payload corrupted: rails=%d chunk=%d len=%d kill=(%d,%d)",
				rails, chunk, n, killChunk, kr)
		}
	})
}

// TestStripeWindowBoundsState is the soak guard for the receiver's
// sequence-dedup state: across 10k transfers at a fixed pipeline depth
// the transfer-keyed maps (asm/done/skipped) must stay O(depth) — they
// track outstanding transfers, never the total ever sent.
func TestStripeWindowBoundsState(t *testing.T) {
	leakcheck.Check(t)
	const (
		total  = 10000
		depth  = 8
		window = 64
	)
	r := newStripeRig(t, 2, StripeOptions{Chunk: 1024, Window: window,
		RecvTimeout: 30 * time.Second})
	defer r.rx.Close()

	stateSize := func() int {
		r.rx.mu.Lock()
		defer r.rx.mu.Unlock()
		return len(r.rx.asm) + len(r.rx.done) + len(r.rx.skipped)
	}

	src, err := r.procA.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := r.procB.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	recvd := 0
	for i := 0; i < total; i++ {
		if _, err := r.tx.Send(src); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if i >= depth {
			if _, err := r.rx.Recv(dst); err != nil {
				t.Fatalf("recv %d: %v", recvd, err)
			}
			recvd++
		}
		if i%512 == 0 {
			if n := stateSize(); n > depth {
				t.Fatalf("after %d sends: dedup state holds %d transfers, want O(depth) <= %d",
					i+1, n, depth)
			}
		}
	}
	for ; recvd < total; recvd++ {
		if _, err := r.rx.Recv(dst); err != nil {
			t.Fatalf("drain recv %d: %v", recvd, err)
		}
	}
	st := r.rx.Stats()
	if st.Delivered != total {
		t.Fatalf("delivered = %d, want %d", st.Delivered, total)
	}
	if st.WindowDrops != 0 {
		t.Fatalf("window drops = %d, want 0 (depth %d fits window %d)",
			st.WindowDrops, depth, window)
	}
	if n := stateSize(); n != 0 {
		t.Fatalf("dedup state holds %d transfers after full drain, want 0", n)
	}
}

// TestStripeWindowDropsOverrun overruns the window on purpose — more
// sent-not-received transfers than Window — and checks the excess
// frames are dropped and counted instead of retained, the state stays
// bounded, and delivery of the dropped transfers surfaces as a recv
// timeout rather than unbounded memory.
func TestStripeWindowDropsOverrun(t *testing.T) {
	leakcheck.Check(t)
	const (
		window  = 8
		overrun = 12
	)
	r := newStripeRig(t, 1, StripeOptions{Chunk: 1024, Window: window,
		RecvTimeout: 300 * time.Millisecond})
	defer r.rx.Close()

	src, err := r.procA.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < window+overrun; i++ {
		if _, err := r.tx.Send(src); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	// Sends complete before the receive-side pollers ingest; wait until
	// every frame has been accounted, kept or dropped.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := r.rx.Stats()
		if st.Chunks+st.WindowDrops >= window+overrun {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pollers stalled: stats %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	st := r.rx.Stats()
	if st.WindowDrops != overrun {
		t.Fatalf("window drops = %d, want %d", st.WindowDrops, overrun)
	}
	r.rx.mu.Lock()
	held := len(r.rx.asm) + len(r.rx.done)
	r.rx.mu.Unlock()
	if held > window {
		t.Fatalf("dedup state holds %d transfers, want <= window %d", held, window)
	}
	dst, err := r.procB.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < window; i++ {
		if _, err := r.rx.Recv(dst); err != nil {
			t.Fatalf("recv %d (in-window transfer): %v", i, err)
		}
	}
	// The overrun transfers' frames are gone for good: delivery stalls
	// on the first of them and the recv timeout surfaces it.
	if _, err := r.rx.Recv(dst); !errors.Is(err, ErrRecvTimeout) {
		t.Fatalf("recv of window-dropped transfer = %v, want ErrRecvTimeout", err)
	}
}
