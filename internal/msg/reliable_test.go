package msg

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/proc"
	"repro/internal/via"
)

// newReliableCluster builds a cluster with reliability enabled on both
// endpoints and a deterministic injector armed on nicA.
func newReliableCluster(t *testing.T, cfg ReliabilityConfig) (*cluster, *faultinject.Injector) {
	t.Helper()
	c := newCluster(t, core.StrategyKiobuf, 0)
	c.epA.EnableReliability(cfg)
	c.epB.EnableReliability(cfg)
	inj := faultinject.New(cfg.Seed + 1)
	c.nicA.SetFaultInjector(inj)
	return c, inj
}

// sendRecv runs one reliable transfer and verifies the pattern.
func sendRecv(t *testing.T, c *cluster, size int, p Protocol, seed byte) (*proc.Buffer, error) {
	t.Helper()
	src, err := c.procA.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := c.procB.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.FillPattern(seed); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		n, err := c.epA.Send(src, p)
		if err == nil && n != size {
			err = fmt.Errorf("sent %d of %d", n, size)
		}
		errc <- err
	}()
	n, rerr := c.epB.Recv(dst)
	serr := <-errc
	if rerr != nil || serr != nil {
		return dst, errors.Join(serr, rerr)
	}
	if n != size {
		t.Fatalf("received %d of %d", n, size)
	}
	bad, err := dst.VerifyPattern(seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("corrupted pages %v", bad)
	}
	return dst, nil
}

func TestReliableRetransmitAfterDMAFault(t *testing.T) {
	c, inj := newReliableCluster(t, ReliabilityConfig{Seed: 1})
	// Fail the first gather on nodeA: the chunk faults, the VI pair
	// errors out, and the reliability layer must recover and retransmit.
	inj.FailNth("nic.dma", 1, nil)
	if _, err := sendRecv(t, c, 3000, Eager, 7); err != nil {
		t.Fatal(err)
	}
	rs := c.epA.ReliabilityStats()
	if rs.Retries != 1 || rs.Recoveries != 1 {
		t.Fatalf("sender rel stats = %+v", rs)
	}
	// The fabric is healthy again: a second message flows with no retry.
	if _, err := sendRecv(t, c, 3000, OneCopy, 8); err != nil {
		t.Fatal(err)
	}
	if rs := c.epA.ReliabilityStats(); rs.Retries != 1 {
		t.Fatalf("healthy resend retried: %+v", rs)
	}
}

func TestReliableDroppedCompletionResolvedByAck(t *testing.T) {
	c, inj := newReliableCluster(t, ReliabilityConfig{Seed: 6})
	// Drop the sender's first completion: the payload reaches the
	// receiver, the final chunk reports completion-lost, and the
	// receiver's delivery ack settles the send without any retransmit.
	inj.FailNth("nic.completion", 1, nil)
	if _, err := sendRecv(t, c, 2000, Eager, 17); err != nil {
		t.Fatal(err)
	}
	rs := c.epA.ReliabilityStats()
	if rs.AckRescues != 1 || rs.Retries != 0 || rs.Recoveries != 0 {
		t.Fatalf("sender rel stats = %+v, want one ack rescue and no retransmit", rs)
	}
	if got := c.epB.ReliabilityStats().Duplicates; got != 0 {
		t.Fatalf("duplicates = %d, want 0", got)
	}
	// The VI pair is still in the error state; the next send recovers.
	if _, err := sendRecv(t, c, 2000, Eager, 18); err != nil {
		t.Fatal(err)
	}
	if rs := c.epA.ReliabilityStats(); rs.Recoveries != 1 {
		t.Fatalf("follow-up send did not recover the VI pair: %+v", rs)
	}
}

func TestReliableDroppedCompletionDeduplicates(t *testing.T) {
	// AckTimeout < 0 disables the delivery-ack shortcut, forcing the
	// historical path: the sender assumes failure and retransmits, and
	// the receiver deduplicates by sequence number so the application
	// sees the message exactly once.
	c, inj := newReliableCluster(t, ReliabilityConfig{Seed: 2, AckTimeout: -1})
	inj.FailNth("nic.completion", 1, nil)

	size := 2000
	src1, _ := c.procA.Malloc(size)
	src2, _ := c.procA.Malloc(size)
	dst1, _ := c.procB.Malloc(size)
	dst2, _ := c.procB.Malloc(size)
	if err := src1.FillPattern(11); err != nil {
		t.Fatal(err)
	}
	if err := src2.FillPattern(22); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		// Message 1 triggers recovery + retransmit; message 2 proves the
		// flow-control state (ring, credits) survived the duplicate.
		if _, err := c.epA.Send(src1, Eager); err != nil {
			errc <- err
			return
		}
		_, err := c.epA.Send(src2, Eager)
		errc <- err
	}()
	if n, err := c.epB.Recv(dst1); err != nil || n != size {
		t.Fatalf("recv 1: n=%d err=%v", n, err)
	}
	// Recv 2 services the recovery handshake, drains the duplicate of
	// message 1, then delivers message 2.
	if n, err := c.epB.Recv(dst2); err != nil || n != size {
		t.Fatalf("recv 2: n=%d err=%v", n, err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("send: %v", err)
	}
	for i, d := range []*proc.Buffer{dst1, dst2} {
		bad, err := d.VerifyPattern(byte(11 * (i + 1)))
		if err != nil {
			t.Fatal(err)
		}
		if len(bad) != 0 {
			t.Fatalf("message %d corrupted: pages %v", i+1, bad)
		}
	}
	if got := c.epB.ReliabilityStats().Duplicates; got != 1 {
		t.Fatalf("duplicates = %d, want 1", got)
	}
	if got := c.epB.Stats().RecvMsgs; got != 2 {
		t.Fatalf("delivered %d messages, want exactly 2", got)
	}
	if got := c.epA.ReliabilityStats().Recoveries; got != 1 {
		t.Fatalf("recoveries = %d", got)
	}
}

func TestReliableRetriesExhausted(t *testing.T) {
	c, inj := newReliableCluster(t, ReliabilityConfig{
		MaxRetries:  2,
		BackoffBase: 50 * time.Microsecond,
		Seed:        3,
	})
	// Every gather on nodeA fails: no attempt can succeed.
	inj.FailEvery("nic.dma", 1, nil)

	size := 1000
	src, _ := c.procA.Malloc(size)
	dst, _ := c.procB.Malloc(size)
	errc := make(chan error, 1)
	go func() {
		_, err := c.epA.Send(src, Eager)
		errc <- err
	}()
	_, rerr := c.epB.Recv(dst)
	serr := <-errc
	if !errors.Is(serr, ErrRetriesExhausted) {
		t.Fatalf("send err = %v, want retries exhausted", serr)
	}
	if !errors.Is(rerr, ErrPeerAborted) {
		t.Fatalf("recv err = %v, want peer aborted", rerr)
	}
	rs := c.epA.ReliabilityStats()
	if rs.Aborts != 1 || rs.Retries != 2 {
		t.Fatalf("sender rel stats = %+v", rs)
	}
}

func TestReliableLinkPartitionHealsMidTransfer(t *testing.T) {
	c, _ := newReliableCluster(t, ReliabilityConfig{
		MaxRetries:  8,
		BackoffBase: 200 * time.Microsecond,
		Seed:        4,
	})
	c.nw.SetLinkDown("nodeA", "nodeB")
	go func() {
		// Heal once the partition has actually been hit, so the test
		// never races the sender's first attempt.
		for c.nicA.Stats().Faults == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		c.nw.SetLinkUp("nodeA", "nodeB")
	}()
	if _, err := sendRecv(t, c, 4000, OneCopy, 9); err != nil {
		t.Fatal(err)
	}
	if rs := c.epA.ReliabilityStats(); rs.Retries == 0 {
		t.Fatalf("partition healed without any retry: %+v", rs)
	}
}

func TestReliableTimeoutCountsSlowChunks(t *testing.T) {
	c, inj := newReliableCluster(t, ReliabilityConfig{
		Timeout: 500 * time.Microsecond,
		Seed:    5,
	})
	c.nicA.StartEngineLanes(1)
	defer c.nicA.StopEngine()
	// Stall the engine lane well past the per-send deadline: the chunk
	// is late but succeeds, and only the timeout counter moves.
	inj.Arm(&faultinject.Rule{Site: "engine.lane", Nth: 1, Delay: 3 * time.Millisecond})
	if _, err := sendRecv(t, c, 1000, Eager, 13); err != nil {
		t.Fatal(err)
	}
	rs := c.epA.ReliabilityStats()
	if rs.Timeouts == 0 {
		t.Fatalf("slow chunk not counted: %+v", rs)
	}
	if rs.Retries != 0 {
		t.Fatalf("late success treated as failure: %+v", rs)
	}
}

func TestRegcacheInvalidatedOnNICReset(t *testing.T) {
	c := newCluster(t, core.StrategyKiobuf, 0)
	c.epA.Cache().EnableNICResetInvalidation()
	// A zero-copy transfer populates the sender's registration cache.
	c.transfer(t, 200*1024, ZeroCopy, 3)
	if n := c.epA.Cache().Len(); n == 0 {
		t.Fatal("zero-copy transfer left no cached registration")
	}
	c.nicA.FaultReset()
	if n := c.epA.Cache().Len(); n != 0 {
		t.Fatalf("%d cached registrations survived the NIC reset", n)
	}
	if got := c.epA.Cache().Stats().ResetInvalidations; got == 0 {
		t.Fatal("reset invalidations not counted")
	}
}

// TestReliableLaggingReceiverAfterLostCompletion is the regression test
// for a recovery deadlock: the sender runs a full ring ahead of the
// receiver, and the completion of the last message is lost.  The VI pair
// is then in the error state while the receiver still has a ring of
// landed messages to deliver; every repost it attempts is refused, so no
// credit ever returns.  The next send used to wait for a credit for
// ever, and the receiver — having read that send's announcement — for a
// descriptor that was never posted; the watchdog here was the only way
// out.  Both now fail fast into the recovery handshake.
func TestReliableLaggingReceiverAfterLostCompletion(t *testing.T) {
	c, inj := newReliableCluster(t, ReliabilityConfig{Seed: 9})
	const size = 512
	ring := c.epB.ringSlots
	src, err := c.procA.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := c.procB.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	send := func(i int) error {
		if err := src.FillPattern(byte(i)); err != nil {
			return err
		}
		_, err := c.epA.Send(src, Eager)
		return err
	}
	recv := func(i int) {
		t.Helper()
		if n, err := c.epB.Recv(dst); err != nil || n != size {
			t.Fatalf("message %d: received %d bytes, err %v", i, n, err)
		}
		if bad, err := dst.VerifyPattern(byte(i)); err != nil || len(bad) != 0 {
			t.Fatalf("message %d: bad pages %v, err %v", i, bad, err)
		}
	}

	// Fill the ring but for one slot, nobody receiving.
	for i := 1; i < ring; i++ {
		if err := send(i); err != nil {
			t.Fatal(err)
		}
	}
	// The last slot's completion is lost; its send waits for the ack.
	inj.FailNth("nic.completion", uint64(ring), nil)
	errc := make(chan error, 1)
	go func() { errc <- send(ring) }()
	// The receiver only starts once the fault has happened, so that every
	// one of its reposts meets the dead connection.
	for c.epB.vi.State() != via.VIError {
		time.Sleep(time.Millisecond)
	}
	for i := 1; i <= ring; i++ {
		recv(i)
	}
	if err := <-errc; err != nil {
		t.Fatalf("send with the lost completion: %v", err)
	}
	if rs := c.epA.ReliabilityStats(); rs.AckRescues != 1 {
		t.Fatalf("sender rel stats = %+v, want one ack rescue", rs)
	}

	// The follow-up has no credit and a dead ring on both sides.
	go func() { errc <- send(ring + 1) }()
	recvc := make(chan error, 1)
	go func() {
		n, err := c.epB.Recv(dst)
		if err == nil && n != size {
			err = fmt.Errorf("received %d of %d bytes", n, size)
		}
		recvc <- err
	}()
	deadline := time.After(20 * time.Second)
	for _, ch := range []chan error{errc, recvc} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("follow-up: %v", err)
			}
		case <-deadline:
			t.Fatal("follow-up after a lost completion with a lagging receiver stalled")
		}
	}
	if bad, err := dst.VerifyPattern(byte(ring + 1)); err != nil || len(bad) != 0 {
		t.Fatalf("follow-up: bad pages %v, err %v", bad, err)
	}
	if rs := c.epA.ReliabilityStats(); rs.Recoveries != 1 {
		t.Fatalf("follow-up send did not recover the VI pair: %+v", rs)
	}
}

// TestReliableResetKeepsLandedMessages: a sender running ahead of its
// receiver has two messages landed in the ring, undelivered, when its
// third faults and it asks for a reset.  The receiver must deliver the
// two before it rebuilds the ring — the sender was told they arrived.
// The reset travels out of band, and taken as soon as it was readable it
// overtook their announcements: they were discarded as stale, the ring
// rewound, and the retransmitted third message came out of the first
// Recv.  Which of two ready channels a select takes is random, so the
// scenario repeats until a reintroduction cannot pass by luck.
func TestReliableResetKeepsLandedMessages(t *testing.T) {
	c, inj := newReliableCluster(t, ReliabilityConfig{Seed: 10})
	const size = 512
	src, err := c.procA.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := c.procB.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	send := func(seed byte) error {
		if err := src.FillPattern(seed); err != nil {
			return err
		}
		_, err := c.epA.Send(src, Eager)
		return err
	}
	for round := 0; round < 24; round++ {
		seed := byte(3 * round)
		for i := byte(1); i <= 2; i++ {
			if err := send(seed + i); err != nil {
				t.Fatal(err)
			}
		}
		inj.FailNth(via.SiteLink, inj.Stats().Ops[via.SiteLink]+1, nil)
		errc := make(chan error, 1)
		go func() { errc <- send(seed + 3) }()
		// Receive only once the reset has arrived.
		for len(c.epB.rctrl) == 0 {
			time.Sleep(time.Millisecond)
		}
		for i := byte(1); i <= 3; i++ {
			if n, err := c.epB.Recv(dst); err != nil || n != size {
				t.Fatalf("round %d message %d: received %d bytes, err %v", round, i, n, err)
			}
			if bad, err := dst.VerifyPattern(seed + i); err != nil || len(bad) != 0 {
				t.Fatalf("round %d: Recv %d did not deliver message %d (bad pages %v, err %v)", round, i, i, bad, err)
			}
		}
		if err := <-errc; err != nil {
			t.Fatalf("round %d: faulted send: %v", round, err)
		}
		inj.Disarm(via.SiteLink)
	}
}
