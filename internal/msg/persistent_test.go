package msg

import (
	"testing"

	"repro/internal/core"
	"repro/internal/proc"
)

func TestPersistentSendRecv(t *testing.T) {
	c := newCluster(t, core.StrategyKiobuf, 0)
	const size = 128 * 1024
	src, _ := c.procA.Malloc(size)
	dst, _ := c.procB.Malloc(size)

	ps, err := c.epA.SendInit(src)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := c.epB.RecvInit(dst)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 5
	for i := 0; i < rounds; i++ {
		if err := src.FillPattern(byte(i)); err != nil {
			t.Fatal(err)
		}
		errc := make(chan error, 1)
		go func() {
			_, err := ps.Start()
			errc <- err
		}()
		n, err := pr.Start()
		if err != nil {
			t.Fatal(err)
		}
		if n != size {
			t.Fatalf("received %d", n)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		bad, err := dst.VerifyPattern(byte(i))
		if err != nil || len(bad) != 0 {
			t.Fatalf("round %d: bad=%v err=%v", i, bad, err)
		}
	}
	// Only the two Init calls registered anything.
	if m := c.epA.Cache().Stats().Misses; m != 1 {
		t.Fatalf("sender misses = %d, want 1", m)
	}
	if m := c.epB.Cache().Stats().Misses; m != 1 {
		t.Fatalf("receiver misses = %d, want 1", m)
	}
	if err := ps.Free(); err != nil {
		t.Fatal(err)
	}
	if err := pr.Free(); err != nil {
		t.Fatal(err)
	}
}

func TestPersistentFreedRejected(t *testing.T) {
	c := newCluster(t, core.StrategyKiobuf, 0)
	src, _ := c.procA.Malloc(1024)
	ps, err := c.epA.SendInit(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Free(); err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Start(); err != ErrFreed {
		t.Fatalf("err = %v", err)
	}
	if err := ps.Free(); err != ErrFreed {
		t.Fatalf("double free err = %v", err)
	}
}

func TestPersistentInitValidation(t *testing.T) {
	c := newCluster(t, core.StrategyKiobuf, 0)
	empty := &proc.Buffer{}
	if _, err := c.epA.SendInit(empty); err != ErrEmptyMessage {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.epB.RecvInit(empty); err != ErrEmptyMessage {
		t.Fatalf("err = %v", err)
	}
}

// TestPersistentRecvInteroperatesWithPlainSend pairs a pipelined
// ZeroCopy sender with a persistent receiver: the held-region source on
// the receive side alone.  Every chunk grant is a window of the one
// held registration, so the receiver registers nothing beyond RecvInit.
func TestPersistentRecvInteroperatesWithPlainSend(t *testing.T) {
	c := newCluster(t, core.StrategyKiobuf, 0)
	const size = 256 * 1024
	src, _ := c.procA.Malloc(size)
	dst, _ := c.procB.Malloc(size)
	pr, err := c.epB.RecvInit(dst)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.FillPattern(7); err != nil {
		t.Fatal(err)
	}
	send := func() (int, error) { return c.epA.Send(src, ZeroCopy) }
	if serr, rerr := exchange(t, send, pr.Start); serr != nil || rerr != nil {
		t.Fatalf("send: %v, recv: %v", serr, rerr)
	}
	bad, err := dst.VerifyPattern(7)
	if err != nil || len(bad) != 0 {
		t.Fatalf("bad=%v err=%v", bad, err)
	}
	if got, want := c.epA.Stats().PipelineChunks, uint64(size/DefaultPipelineChunk); got != want {
		t.Errorf("sender moved %d chunks, want %d", got, want)
	}
	if st := c.epB.Cache().Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Errorf("receiver cache %+v, want the RecvInit miss and nothing else", st)
	}
}

// TestPersistentSendInteroperatesWithPlainRecv is the mirror image: a
// persistent sender's held region against a plain Recv, which registers
// its buffer through the cache.  The send is a single grant.
func TestPersistentSendInteroperatesWithPlainRecv(t *testing.T) {
	c := newCluster(t, core.StrategyKiobuf, 0)
	const size = 256 * 1024
	src, _ := c.procA.Malloc(size)
	dst, _ := c.procB.Malloc(size)
	ps, err := c.epA.SendInit(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.FillPattern(9); err != nil {
		t.Fatal(err)
	}
	recv := func() (int, error) { return c.epB.Recv(dst) }
	if serr, rerr := exchange(t, ps.Start, recv); serr != nil || rerr != nil {
		t.Fatalf("send: %v, recv: %v", serr, rerr)
	}
	bad, err := dst.VerifyPattern(9)
	if err != nil || len(bad) != 0 {
		t.Fatalf("bad=%v err=%v", bad, err)
	}
	if st := c.epA.Stats(); st.ZeroCopies != 1 || st.PipelineChunks != 1 {
		t.Errorf("sender stats %+v, want one zero-copy send of one grant", st)
	}
	if st := c.epA.Cache().Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Errorf("sender cache %+v, want the SendInit miss and nothing else", st)
	}
	if m := c.epB.Cache().Stats().Misses; m != 1 {
		t.Errorf("receiver registered %d regions, want 1 (one grant)", m)
	}
}

func TestPersistentSurvivesCachePressure(t *testing.T) {
	// A persistent registration must not be evicted by churning user
	// buffers, even on a tight cache.
	c := newCluster(t, core.StrategyKiobuf, 3)
	const size = 8 * 1024
	src, _ := c.procA.Malloc(size)
	ps, err := c.epA.SendInit(src)
	if err != nil {
		t.Fatal(err)
	}
	dst, _ := c.procB.Malloc(size)
	// Churn: distinct user buffers through the same cache.
	for i := 0; i < 6; i++ {
		u, _ := c.procA.Malloc(size)
		errc := make(chan error, 1)
		go func() {
			_, err := c.epA.Send(u, ZeroCopy)
			errc <- err
		}()
		if _, err := c.epB.Recv(dst); err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	// The persistent send still works without re-registering.
	misses := c.epA.Cache().Stats().Misses
	errc := make(chan error, 1)
	go func() {
		_, err := ps.Start()
		errc <- err
	}()
	if _, err := c.epB.Recv(dst); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if got := c.epA.Cache().Stats().Misses; got != misses {
		t.Fatalf("persistent send re-registered (misses %d -> %d)", misses, got)
	}
	_ = ps.Free()
}
