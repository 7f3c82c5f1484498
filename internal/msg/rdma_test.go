package msg

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kagent"
	"repro/internal/mm"
	"repro/internal/proc"
	"repro/internal/regcache"
	"repro/internal/simtime"
	"repro/internal/via"
	"repro/internal/vipl"
)

// These tests cover the PR-7 endpoint features: the MPICH2-style
// RDMA-write eager path, configurable ring geometry, the shared
// completion-queue multiplexer and the shared registration cache.

// TestRDMAEagerSmall checks a single eager message rides an RDMA write
// into the peer's ring — no send/recv descriptor pair at all.
func TestRDMAEagerSmall(t *testing.T) {
	c := newCluster(t, core.StrategyKiobuf, 0, Options{RDMAEager: true})
	c.transfer(t, 100, Eager, 1)
	if got := c.epA.Stats().EagerSends; got != 1 {
		t.Fatalf("eager sends = %d, want 1", got)
	}
	st := c.nicA.Stats()
	if st.RDMAWrites == 0 {
		t.Fatalf("no RDMA writes on the eager path: %+v", st)
	}
	if st.Sends != 0 {
		t.Fatalf("RDMA-eager mode still used two-sided sends: %+v", st)
	}
}

// TestRDMAEagerMultiChunk pins the chunk count: each slot-sized chunk
// is one RDMA write.
func TestRDMAEagerMultiChunk(t *testing.T) {
	c := newCluster(t, core.StrategyKiobuf, 0, Options{RDMAEager: true})
	c.transfer(t, 3*SlotSize+123, Eager, 2)
	if got := c.nicA.Stats().RDMAWrites; got != 4 {
		t.Fatalf("RDMA writes = %d, want 4", got)
	}
}

// TestRDMAEagerManyMessages wraps the remote ring several times so the
// write cursor and the receiver's read cursor stay in lockstep.
func TestRDMAEagerManyMessages(t *testing.T) {
	c := newCluster(t, core.StrategyKiobuf, 0, Options{RDMAEager: true})
	for i := 0; i < 3*RingSlots+1; i++ {
		c.transfer(t, 512, Eager, byte(i))
	}
	if got := c.epA.Stats().SentMsgs; got != 3*RingSlots+1 {
		t.Fatalf("sent = %d", got)
	}
}

// TestRDMAEagerOneCopy checks the one-copy protocol also flows over the
// RDMA ring.
func TestRDMAEagerOneCopy(t *testing.T) {
	c := newCluster(t, core.StrategyKiobuf, 0, Options{RDMAEager: true})
	c.transfer(t, 48*1024, OneCopy, 3)
	if got := c.epA.Stats().OneCopies; got != 1 {
		t.Fatalf("one-copies = %d, want 1", got)
	}
}

// TestRDMAEagerCustomGeometry shrinks the ring the way a large world
// would (4 slots of 4 KiB instead of 8 of 16 KiB) and wraps it.
func TestRDMAEagerCustomGeometry(t *testing.T) {
	c := newCluster(t, core.StrategyKiobuf, 0,
		Options{RDMAEager: true, RingSlots: 4, SlotBytes: 4096})
	c.transfer(t, 3*4096+77, Eager, 4)
	if got := c.nicA.Stats().RDMAWrites; got != 4 {
		t.Fatalf("RDMA writes = %d, want 4", got)
	}
	for i := 0; i < 9; i++ {
		c.transfer(t, 1000, Eager, byte(10+i))
	}
}

// TestCustomRingGeometry checks the classic two-sided path honours a
// non-default geometry too, including ring wrap under the smaller
// credit window.
func TestCustomRingGeometry(t *testing.T) {
	c := newCluster(t, core.StrategyKiobuf, 0, Options{RingSlots: 2, SlotBytes: 1024})
	c.transfer(t, 5*1024+13, Eager, 5)
	for i := 0; i < 7; i++ {
		c.transfer(t, 700, Eager, byte(20+i))
	}
}

// TestEndpointSharedMux runs every protocol through endpoints whose
// descriptor waits all multiplex over one shared CQ poller.
func TestEndpointSharedMux(t *testing.T) {
	mux := via.NewCQMux(via.DefaultCQDepth)
	t.Cleanup(mux.Close)
	c := newCluster(t, core.StrategyKiobuf, 0, Options{Mux: mux})
	c.transfer(t, 100, Eager, 6)
	c.transfer(t, 3*SlotSize+9, Eager, 7)
	c.transfer(t, 48*1024, OneCopy, 8)
	c.transfer(t, 256*1024, ZeroCopy, 9)
	st := mux.Stats()
	if st.Drained == 0 {
		t.Fatalf("shared mux drained nothing: %+v", st)
	}
	if st.VIs < 2 {
		t.Fatalf("mux saw %d VIs, want both endpoints", st.VIs)
	}
}

// TestRDMAEagerWithMux combines both scaling features the MPI worlds
// use: RDMA-eager rings and a shared poller.
func TestRDMAEagerWithMux(t *testing.T) {
	mux := via.NewCQMux(via.DefaultCQDepth)
	t.Cleanup(mux.Close)
	c := newCluster(t, core.StrategyKiobuf, 0,
		Options{RDMAEager: true, RingSlots: 4, SlotBytes: 4096, Mux: mux})
	for i := 0; i < 10; i++ {
		c.transfer(t, 2000, Eager, byte(30+i))
	}
	c.transfer(t, 48*1024, OneCopy, 40)
	if st := mux.Stats(); st.Drained == 0 {
		t.Fatalf("mux idle under RDMA-eager: %+v", st)
	}
}

// TestRDMAEagerReliabilityDMAFault is the recovery contract on the
// RDMA-eager path: a DMA fault that outlasts the NIC's retries poisons
// the receiver's token stream, both sides fail typed, and Repair —
// which discards the stale tokens and rewinds both slot cursors — lets
// more than a ring of messages land again.
func TestRDMAEagerReliabilityDMAFault(t *testing.T) {
	c, inj := newFaultyCluster(t, via.ReliableReception, 12, Options{RDMAEager: true})
	inj.FailEvery(via.SiteDMA, 1, nil)
	_, err := sendRecv(t, c, 3000, Eager, 41)
	wantBroken(t, c, err)
	inj.Disarm(via.SiteDMA)
	for i := 0; i < c.epB.ringSlots+2; i++ {
		if _, err := sendRecv(t, c, 3000, Eager, byte(42+i)); err != nil {
			t.Fatalf("message %d after repair: %v", i, err)
		}
	}
}

// TestRDMAEagerReliabilityCompletionLost: the data lands in the remote
// ring before the completion write-back is dropped; a Reliable
// Reception NIC writes the completion back again, so the send succeeds
// once and the receiver delivers exactly one message.
func TestRDMAEagerReliabilityCompletionLost(t *testing.T) {
	c, inj := newFaultyCluster(t, via.ReliableReception, 14, Options{RDMAEager: true})
	inj.FailNth(via.SiteCompletion, 1, nil)
	if _, err := sendRecv(t, c, 2000, Eager, 43); err != nil {
		t.Fatal(err)
	}
	if _, err := sendRecv(t, c, 2000, Eager, 44); err != nil {
		t.Fatal(err)
	}
	if st := c.nicA.Stats(); st.Retries != 1 || st.Faults != 0 {
		t.Fatalf("retries = %d, faults = %d; want 1 and 0", st.Retries, st.Faults)
	}
	if got := c.epB.Stats().RecvMsgs; got != 2 {
		t.Fatalf("delivered %d messages, want exactly 2", got)
	}
}

// TestSharedCacheAcrossEndpoints builds two endpoint pairs whose A
// sides live on one NIC and share one registration cache: the second
// endpoint's send of the same buffer is a cache hit, the payoff the
// MPI worlds bank on when many VIs serve one rank.
func TestSharedCacheAcrossEndpoints(t *testing.T) {
	meter := simtime.NewMeter()
	cfg := mm.Config{RAMPages: 2048, SwapPages: 4096, ClockBatch: 128, SwapBatch: 32}
	kA, kB := mm.NewKernel(cfg, meter), mm.NewKernel(cfg, meter)
	nw := via.NewNetwork()
	nicA := via.NewNIC("nodeA", kA.Phys(), meter, 1024)
	nicB := via.NewNIC("nodeB", kB.Phys(), meter, 1024)
	if err := nw.Attach(nicA); err != nil {
		t.Fatal(err)
	}
	if err := nw.Attach(nicB); err != nil {
		t.Fatal(err)
	}
	agentA := kagent.New(kA, nicA, core.MustNew(core.StrategyKiobuf))
	agentB := kagent.New(kB, nicB, core.MustNew(core.StrategyKiobuf))
	procA := proc.New(kA, "sender", false)
	procB := proc.New(kB, "receiver", false)
	vnA := vipl.OpenNic(agentA, procA)
	vnB := vipl.OpenNic(agentB, procB)
	cache := regcache.New(vnA, 8)
	newEp := func(name string, nic *vipl.Nic, opts ...Options) *Endpoint {
		ep, err := NewEndpoint(name, nic, meter, 4, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}
	a1 := newEp("A1", vnA, Options{SharedCache: cache})
	a2 := newEp("A2", vnA, Options{SharedCache: cache})
	b1, b2 := newEp("B1", vnB), newEp("B2", vnB)
	if err := Pair(nw, a1, b1); err != nil {
		t.Fatal(err)
	}
	if err := Pair(nw, a2, b2); err != nil {
		t.Fatal(err)
	}
	if a1.Cache() != a2.Cache() {
		t.Fatal("endpoints did not adopt the shared cache")
	}

	const size = 48 * 1024
	src, err := procA.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.FillPattern(51); err != nil {
		t.Fatal(err)
	}
	oneCopy := func(a, b *Endpoint) {
		t.Helper()
		dst, err := procB.Malloc(size)
		if err != nil {
			t.Fatal(err)
		}
		errc := make(chan error, 1)
		go func() {
			_, err := a.Send(src, OneCopy)
			errc <- err
		}()
		if _, err := b.Recv(dst); err != nil {
			t.Fatalf("recv: %v", err)
		}
		if err := <-errc; err != nil {
			t.Fatalf("send: %v", err)
		}
		bad, err := dst.VerifyPattern(51)
		if err != nil {
			t.Fatal(err)
		}
		if len(bad) != 0 {
			t.Fatalf("corrupted pages %v", bad)
		}
		if err := procB.Free(dst); err != nil {
			t.Fatal(err)
		}
	}
	oneCopy(a1, b1)
	oneCopy(a2, b2)
	st := cache.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (single registration of the shared buffer)", st.Misses)
	}
	if st.Hits < 1 {
		t.Fatalf("hits = %d, want >= 1 (second endpoint reuses it): %+v", st.Hits, st)
	}
}
