package via

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/phys"
	"repro/internal/simtime"
)

// muxRig wires nVIs VI pairs where every A-side VI shares one CQMux.
type muxRig struct {
	net        *Network
	memA, memB *phys.Memory
	nicA, nicB *NIC
	mux        *CQMux
	visA, visB []*VI
	hA, hB     []MemHandle
}

func newMuxRig(t *testing.T, nVIs int) *muxRig {
	t.Helper()
	frames := nVIs + 16
	r := &muxRig{
		net:  NewNetwork(),
		memA: phys.New(frames),
		memB: phys.New(frames),
		mux:  NewCQMux(DefaultCQDepth),
	}
	m := simtime.NewMeter()
	r.nicA = NewNIC("muxA", r.memA, m, frames)
	r.nicB = NewNIC("muxB", r.memB, m, frames)
	if err := r.net.Attach(r.nicA); err != nil {
		t.Fatal(err)
	}
	if err := r.net.Attach(r.nicB); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.mux.Close)
	for i := 0; i < nVIs; i++ {
		tag := ProtectionTag(i + 1)
		va, err := r.nicA.CreateVIWithCQ(tag, r.mux.CQ(), r.mux.CQ())
		if err != nil {
			t.Fatal(err)
		}
		vb, err := r.nicB.CreateVI(tag)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.net.Connect(va, vb); err != nil {
			t.Fatal(err)
		}
		hA, _ := regFrames(t, r.nicA, r.memA, 1, tag, MemAttrs{})
		hB, _ := regFrames(t, r.nicB, r.memB, 1, tag, MemAttrs{})
		r.visA = append(r.visA, va)
		r.visB = append(r.visB, vb)
		r.hA = append(r.hA, hA)
		r.hB = append(r.hB, hB)
	}
	return r
}

func (r *muxRig) sendOn(t *testing.T, i int) *Descriptor {
	t.Helper()
	rd := NewDescriptor(OpRecv, Segment{Handle: r.hB[i], Offset: 0, Length: 64})
	if err := r.visB[i].PostRecv(rd); err != nil {
		t.Fatal(err)
	}
	sd := NewDescriptor(OpSend, Segment{Handle: r.hA[i], Offset: 0, Length: 16})
	if err := r.visA[i].PostSend(sd); err != nil {
		t.Fatal(err)
	}
	return sd
}

func TestCQMuxWaitDelivers(t *testing.T) {
	r := newMuxRig(t, 2)
	sd := r.sendOn(t, 0)
	if st := r.mux.WaitDesc(sd); st != StatusSuccess {
		t.Fatalf("status %v", st)
	}
	st := r.mux.Stats()
	if st.Drained == 0 {
		t.Fatalf("mux drained nothing: %+v", st)
	}
	if st.VIs == 0 {
		t.Fatalf("mux saw no VIs: %+v", st)
	}
}

// TestCQMuxOnePollerManyVIs is the scaling contract: one mux (one
// poller goroutine) drains completions from over a thousand VIs.
func TestCQMuxOnePollerManyVIs(t *testing.T) {
	const nVIs = 1100
	before := runtime.NumGoroutine()
	r := newMuxRig(t, nVIs)
	if got := runtime.NumGoroutine(); got > before+2 {
		t.Fatalf("mux rig spawned %d goroutines for %d VIs", got-before, nVIs)
	}
	for i := 0; i < nVIs; i++ {
		sd := r.sendOn(t, i)
		if st := r.mux.WaitDesc(sd); st != StatusSuccess {
			t.Fatalf("vi %d: status %v", i, st)
		}
	}
	st := r.mux.Stats()
	if st.VIs < nVIs {
		t.Fatalf("mux saw %d distinct VIs, want >= %d", st.VIs, nVIs)
	}
	if st.Drained < nVIs {
		t.Fatalf("mux drained %d completions, want >= %d", st.Drained, nVIs)
	}
}

// TestCQMuxCompletionBeforeWait parks an early completion until its
// waiter shows up.
func TestCQMuxCompletionBeforeWait(t *testing.T) {
	r := newMuxRig(t, 1)
	sd := r.sendOn(t, 0)
	// Let the poller route both completions into the pending map.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if st := r.mux.Stats(); st.Pending >= 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if st := r.mux.WaitDesc(sd); st != StatusSuccess {
		t.Fatalf("status %v", st)
	}
	if st := r.mux.Stats(); st.Pending > 1 {
		t.Fatalf("pending not consumed: %+v", st)
	}
}

// TestCQMuxConcurrentWaiters exercises the waiter/poller rendezvous
// under the race detector.
func TestCQMuxConcurrentWaiters(t *testing.T) {
	const nVIs = 32
	r := newMuxRig(t, nVIs)
	var wg sync.WaitGroup
	errs := make(chan error, nVIs)
	for i := 0; i < nVIs; i++ {
		sd := r.sendOn(t, i)
		wg.Add(1)
		go func(i int, sd *Descriptor) {
			defer wg.Done()
			if st := r.mux.WaitDesc(sd); st != StatusSuccess {
				errs <- fmt.Errorf("vi %d: status %v", i, st)
			}
		}(i, sd)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestCQMuxForget(t *testing.T) {
	r := newMuxRig(t, 1)
	sd := r.sendOn(t, 0)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if st := r.mux.Stats(); st.Pending >= 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	pend := r.mux.Stats().Pending
	r.mux.Forget(sd)
	if got := r.mux.Stats().Pending; got >= pend && pend > 0 {
		t.Fatalf("Forget left pending at %d (was %d)", got, pend)
	}
	// The descriptor itself still reports its final status.
	if st := sd.Wait(); st != StatusSuccess {
		t.Fatalf("status %v", st)
	}
}

// waitParked blocks until the poller has parked at least n completions.
func (r *muxRig) waitParked(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); r.mux.Stats().Pending < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("poller parked %d completions, want %d", r.mux.Stats().Pending, n)
		}
	}
}

// TestCQMuxForgetThenResetLeavesNothing is the recycling contract:
// after Forget and Reset the mux holds no parked completion, waiter or
// eviction-order entry keyed by the descriptor, so nothing from its
// previous life can be matched to the next one.
func TestCQMuxForgetThenResetLeavesNothing(t *testing.T) {
	r := newMuxRig(t, 1)
	sd := r.sendOn(t, 0)
	r.waitParked(t, 1)
	r.mux.Forget(sd)
	sd.Reset()
	m := r.mux
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.pending[sd]; ok {
		t.Error("parked completion survived Forget")
	}
	if _, ok := m.waiters[sd]; ok {
		t.Error("waiter survived Forget")
	}
	for _, p := range m.fifo {
		if p == sd {
			t.Error("eviction-order entry survived Forget")
		}
	}
}

// TestCQMuxStaleCompletionIgnored recycles a descriptor whose previous
// completion the mux still holds (it was on the queue at Forget time):
// neither the parked entry nor one routed to the registered waiter may
// end the next life's wait before the descriptor really completes.
func TestCQMuxStaleCompletionIgnored(t *testing.T) {
	r := newMuxRig(t, 1)
	sd := r.sendOn(t, 0)
	if st := sd.Wait(); st != StatusSuccess {
		t.Fatalf("status %v", st)
	}
	r.waitParked(t, 1)
	sd.Reset() // no Forget: the parked entry now belongs to a past life

	got := make(chan Status, 1)
	go func() { got <- r.mux.WaitDesc(sd) }()
	// A second leftover reaches the waiter through the poller.
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		r.mux.mu.Lock()
		_, registered := r.mux.waiters[sd]
		r.mux.mu.Unlock()
		if registered {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never registered")
		}
	}
	r.mux.CQ().push(Completion{VI: r.visA[0], Desc: sd})
	select {
	case st := <-got:
		t.Fatalf("wait ended with %v on a completion from the previous life", st)
	case <-time.After(20 * time.Millisecond):
	}

	rd := NewDescriptor(OpRecv, Segment{Handle: r.hB[0], Offset: 0, Length: 64})
	if err := r.visB[0].PostRecv(rd); err != nil {
		t.Fatal(err)
	}
	if err := r.visA[0].PostSend(sd); err != nil {
		t.Fatal(err)
	}
	if st := <-got; st != StatusSuccess {
		t.Fatalf("status %v after the real completion", st)
	}
}

func TestCQMuxCloseUnblocksViaDescriptor(t *testing.T) {
	r := newMuxRig(t, 1)
	sd := r.sendOn(t, 0)
	// Even after Close, WaitDesc resolves through the descriptor's own
	// done channel.
	r.mux.Close()
	if st := r.mux.WaitDesc(sd); st != StatusSuccess {
		t.Fatalf("status %v", st)
	}
}

func TestCQWaitCtx(t *testing.T) {
	cq := NewCQ(4)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := cq.WaitCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	// A cancelled context returns immediately even with entries racing.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := cq.WaitCtx(ctx2); err == nil {
		cq.push(Completion{})
		if _, err := cq.WaitCtx(ctx2); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v", err)
		}
	}
}

func TestCQOverflowTyped(t *testing.T) {
	cq := NewCQ(2)
	if err := cq.OverflowErr(); err != nil {
		t.Fatalf("clean queue reports %v", err)
	}
	for i := 0; i < 4; i++ {
		cq.push(Completion{})
	}
	if err := cq.OverflowErr(); !errors.Is(err, ErrCQOverflow) {
		t.Fatalf("err = %v", err)
	}
	if cq.Dropped() != 2 {
		t.Fatalf("dropped = %d", cq.Dropped())
	}
}

// TestCQShardedFIFOPerVI checks the ordering contract of the sharded
// queue: completions of one VI drain in post order even when many VIs
// interleave.
func TestCQShardedFIFOPerVI(t *testing.T) {
	const nVIs, perVI = 9, 20
	r := newMuxRig(t, nVIs)
	cq := NewCQ(1024)
	// Feed the standalone queue directly so shard interleaving is
	// controlled: round-robin the VIs.
	posted := make([][]*Descriptor, nVIs)
	for i := 0; i < perVI; i++ {
		for v := 0; v < nVIs; v++ {
			d := NewDescriptor(OpSend)
			posted[v] = append(posted[v], d)
			cq.push(Completion{VI: r.visA[v], Desc: d})
		}
	}
	seen := make(map[*VI]int)
	for {
		c, err := cq.Poll()
		if errors.Is(err, ErrCQEmpty) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		idx := seen[c.VI]
		var want *Descriptor
		for v := 0; v < nVIs; v++ {
			if r.visA[v] == c.VI {
				want = posted[v][idx]
			}
		}
		if c.Desc != want {
			t.Fatalf("per-VI FIFO violated for vi %v at index %d", c.VI, idx)
		}
		seen[c.VI]++
	}
	for v := 0; v < nVIs; v++ {
		if seen[r.visA[v]] != perVI {
			t.Fatalf("vi %d drained %d of %d", v, seen[r.visA[v]], perVI)
		}
	}
}
