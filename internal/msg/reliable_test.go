package msg

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/proc"
	"repro/internal/via"
)

// newFaultyCluster builds a cluster whose endpoint VIs run at the given
// reliability level, with a deterministic injector armed on nicA.
func newFaultyCluster(t *testing.T, rel via.Reliability, seed int64, opts ...Options) (*cluster, *faultinject.Injector) {
	t.Helper()
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	o.Reliability = rel
	c := newCluster(t, core.StrategyKiobuf, 0, o)
	inj := faultinject.New(seed)
	c.nicA.SetFaultInjector(inj)
	return c, inj
}

// sendRecv runs one transfer and verifies the pattern.  A failure on
// either side comes back as the joined error, after both have returned.
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

// wantBroken checks a transfer failed typed on a pair the fault left in
// the error state, then repairs it.
func wantBroken(t *testing.T, c *cluster, err error) {
	t.Helper()
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("err = %v, want ErrTransport", err)
	}
	if st := c.epA.VI().State(); st != via.VIError {
		t.Fatalf("VI state after the fault = %v, want error", st)
	}
	if err := Repair(c.epA, c.epB); err != nil {
		t.Fatalf("repair: %v", err)
	}
}

// TestReliableRetransmitAfterDMAFault: on Reliable Reception VIs the
// NIC retries a faulted gather, so the endpoint never sees the fault —
// one retry, no broken VI, and the next message flows without one.
func TestReliableRetransmitAfterDMAFault(t *testing.T) {
	c, inj := newFaultyCluster(t, via.ReliableReception, 1)
	inj.FailNth(via.SiteDMA, 1, nil)
	if _, err := sendRecv(t, c, 3000, Eager, 7); err != nil {
		t.Fatal(err)
	}
	if st := c.nicA.Stats(); st.Retries != 1 || st.Faults != 0 {
		t.Fatalf("retries = %d, faults = %d; want 1 and 0", st.Retries, st.Faults)
	}
	if _, err := sendRecv(t, c, 3000, OneCopy, 8); err != nil {
		t.Fatal(err)
	}
	if got := c.nicA.Stats().Retries; got != 1 {
		t.Fatalf("healthy resend retried: %d retries", got)
	}
}

// TestReliableRetriesExhausted: a fault that keeps firing outlasts the
// NIC's retries; both sides fail typed, and only Repair brings the pair
// back.
func TestReliableRetriesExhausted(t *testing.T) {
	c, inj := newFaultyCluster(t, via.ReliableReception, 3)
	inj.FailEvery(via.SiteDMA, 1, nil)
	_, err := sendRecv(t, c, 1000, Eager, 9)
	if got := c.nicA.Stats().Retries; got != via.NICRetries {
		t.Fatalf("retries = %d, want %d", got, via.NICRetries)
	}
	wantBroken(t, c, err)
	inj.Disarm(via.SiteDMA)
	if _, err := sendRecv(t, c, 1000, Eager, 10); err != nil {
		t.Fatalf("after repair: %v", err)
	}
}

// TestReliableLinkPartitionHealsMidTransfer: a link that drops three
// crossings in a row and then comes back heals inside the NIC's retry
// budget, so a multi-chunk transfer rides through it untouched.
func TestReliableLinkPartitionHealsMidTransfer(t *testing.T) {
	c, inj := newFaultyCluster(t, via.ReliableReception, 5)
	inj.Arm(&faultinject.Rule{Site: via.SiteLink, Every: 1, Times: 3})
	if _, err := sendRecv(t, c, 3*SlotSize, OneCopy, 9); err != nil {
		t.Fatal(err)
	}
	if st := c.nicA.Stats(); st.Retries != 3 || st.Faults != 0 {
		t.Fatalf("retries = %d, faults = %d; want 3 and 0", st.Retries, st.Faults)
	}
}

// TestReliableLinkPartitionRepair: a severed link spends the NIC's
// retries at once (they run back to back in sim time); the transfer
// fails typed, and once the link is healed Repair restores the pair.
func TestReliableLinkPartitionRepair(t *testing.T) {
	c, _ := newFaultyCluster(t, via.ReliableReception, 4)
	c.nw.SetLinkDown("nodeA", "nodeB")
	_, err := sendRecv(t, c, 4000, OneCopy, 9)
	if got := c.nicA.Stats().Retries; got != via.NICRetries {
		t.Fatalf("retries = %d, want %d", got, via.NICRetries)
	}
	c.nw.SetLinkUp("nodeA", "nodeB")
	wantBroken(t, c, err)
	if _, err := sendRecv(t, c, 4000, OneCopy, 10); err != nil {
		t.Fatalf("after heal and repair: %v", err)
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

// TestReliableLaggingReceiverAfterLostCompletion: the sender runs a
// full ring ahead of the receiver and the completion of the last
// message is lost on a default-level VI, which breaks the pair.  The
// receiver still delivers every landed message; every repost it then
// attempts is refused, so no credit returns.  The next send must fail
// at once instead of waiting for a credit for ever, and the receiver —
// having read that send's announcement — at once on a slot whose post
// was refused.  Repair then restores the pair.
func TestReliableLaggingReceiverAfterLostCompletion(t *testing.T) {
	c, inj := newFaultyCluster(t, via.ReliableDelivery, 9)
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
	recv := func(i int) error {
		n, err := c.epB.Recv(dst)
		if err != nil {
			return err
		}
		if n != size {
			return fmt.Errorf("message %d: received %d bytes", i, n)
		}
		if bad, err := dst.VerifyPattern(byte(i)); err != nil || len(bad) != 0 {
			return fmt.Errorf("message %d: bad pages %v, err %v", i, bad, err)
		}
		return nil
	}

	// Fill the ring but for one slot, nobody receiving.
	for i := 1; i < ring; i++ {
		if err := send(i); err != nil {
			t.Fatal(err)
		}
	}
	// The last slot's completion is lost: its payload landed, its sender
	// learns of a broken connection.
	inj.FailNth(via.SiteCompletion, uint64(ring), nil)
	if err := send(ring); !errors.Is(err, ErrTransport) {
		t.Fatalf("send with the lost completion: err = %v, want ErrTransport", err)
	}
	for i := 1; i <= ring; i++ {
		if err := recv(i); err != nil {
			t.Fatal(err)
		}
	}
	// The follow-up has no credit and a dead ring on both sides: both
	// sides fail typed, neither waits.
	if err := send(ring + 1); !errors.Is(err, ErrTransport) {
		t.Fatalf("follow-up send: err = %v, want ErrTransport", err)
	}
	if err := recv(ring + 1); !errors.Is(err, ErrTransport) {
		t.Fatalf("follow-up recv: err = %v, want ErrTransport", err)
	}
	if err := Repair(c.epA, c.epB); err != nil {
		t.Fatal(err)
	}
	if _, err := sendRecv(t, c, size, Eager, byte(ring+2)); err != nil {
		t.Fatalf("after repair: %v", err)
	}
}

// TestReliableResetKeepsLandedMessages: a sender running ahead of its
// receiver has two messages landed in the ring, undelivered, when its
// third breaks the pair.  Every message whose Send returned nil must
// still be delivered: the receiver reaches the failed third one only
// after their announcements, and Repair runs once it has.  The sender
// then resends the third message itself — msg never retransmits.
func TestReliableResetKeepsLandedMessages(t *testing.T) {
	c, inj := newFaultyCluster(t, via.ReliableDelivery, 10)
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
	recv := func(seed byte) error {
		n, err := c.epB.Recv(dst)
		if err != nil {
			return err
		}
		if bad, err := dst.VerifyPattern(seed); err != nil || len(bad) != 0 || n != size {
			return fmt.Errorf("message %d: received %d bytes, bad pages %v, err %v", seed, n, bad, err)
		}
		return nil
	}
	for round := 0; round < 24; round++ {
		seed := byte(3 * round)
		for i := byte(1); i <= 2; i++ {
			if err := send(seed + i); err != nil {
				t.Fatalf("round %d: send %d: %v", round, i, err)
			}
		}
		inj.FailNth(via.SiteLink, inj.Stats().Ops[via.SiteLink]+1, nil)
		if err := send(seed + 3); !errors.Is(err, ErrTransport) {
			t.Fatalf("round %d: faulted send: err = %v, want ErrTransport", round, err)
		}
		for i := byte(1); i <= 2; i++ {
			if err := recv(seed + i); err != nil {
				t.Fatalf("round %d: landed message %d lost: %v", round, i, err)
			}
		}
		if err := recv(seed + 3); !errors.Is(err, ErrTransport) {
			t.Fatalf("round %d: faulted message: err = %v, want ErrTransport", round, err)
		}
		inj.Disarm(via.SiteLink)
		if err := Repair(c.epA, c.epB); err != nil {
			t.Fatalf("round %d: repair: %v", round, err)
		}
		if _, err := sendRecv(t, c, size, Eager, seed+3); err != nil {
			t.Fatalf("round %d: resend after repair: %v", round, err)
		}
	}
}
