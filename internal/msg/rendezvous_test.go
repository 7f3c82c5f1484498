package msg

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/mm"
	"repro/internal/phys"
	"repro/internal/proc"
	"repro/internal/via"
)

// rndvShape is one way into the rendezvous engine: a region source on
// each side plus a grant count.
type rndvShape struct {
	name       string
	size       int
	proto      Protocol // for Send/Recv; ignored by persistent shapes
	persistent bool     // SendInit/RecvInit + Start on both sides
}

var rndvShapes = []rndvShape{
	{name: "zerocopy-single-grant", size: 64 << 10, proto: ZeroCopy},
	{name: "zerocopy-pipelined", size: 256 << 10, proto: ZeroCopy},
	{name: "persistent", size: 128 << 10, persistent: true},
	{name: "remap", size: 32 * phys.PageSize, proto: Remap},
}

// start binds the shape to a buffer pair and returns the two halves of
// one transfer plus a cleanup that frees any persistent requests.
func (s rndvShape) start(t *testing.T, c *cluster, src, dst *proc.Buffer) (send, recv func() (int, error), free func()) {
	t.Helper()
	if !s.persistent {
		return func() (int, error) { return c.epA.Send(src, s.proto) },
			func() (int, error) { return c.epB.Recv(dst) },
			func() {}
	}
	ps, err := c.epA.SendInit(src)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := c.epB.RecvInit(dst)
	if err != nil {
		t.Fatal(err)
	}
	return ps.Start, pr.Start, func() {
		if err := ps.Free(); err != nil {
			t.Errorf("free persistent send: %v", err)
		}
		if err := pr.Free(); err != nil {
			t.Errorf("free persistent recv: %v", err)
		}
	}
}

// exchange runs both halves of one transfer and fails the test if either
// is still blocked after three seconds: a rendezvous must end on both
// sides whatever happens to it.
func exchange(t *testing.T, send, recv func() (int, error)) (serr, rerr error) {
	t.Helper()
	sc, rc := make(chan error, 1), make(chan error, 1)
	go func() { _, err := send(); sc <- err }()
	go func() { _, err := recv(); rc <- err }()
	watchdog := time.After(3 * time.Second)
	for sc != nil || rc != nil {
		select {
		case serr = <-sc:
			sc = nil
		case rerr = <-rc:
			rc = nil
		case <-watchdog:
			t.Fatalf("rendezvous hung: sender blocked=%v receiver blocked=%v", sc != nil, rc != nil)
		}
	}
	return serr, rerr
}

// TestRendezvousDataFault pins the one abort rule (DESIGN.md §13) on
// every shape of the engine.  A link that dies under the RDMA write is
// ErrTransport on both sides; a receive buffer that cannot hold the
// message is ErrTooSmall at the receiver and ErrPeerAborted at the
// sender.  Either way nothing retries, nothing blocks, nothing counts as
// sent, and every region, staging frame and write guard is released.
func TestRendezvousDataFault(t *testing.T) {
	faults := []struct {
		name               string
		dma                bool
		dstDiv             int
		wantSend, wantRecv error
	}{
		{name: "dma-link-down", dma: true, dstDiv: 1, wantSend: ErrTransport, wantRecv: ErrTransport},
		{name: "recv-too-small", dstDiv: 2, wantSend: ErrPeerAborted, wantRecv: ErrTooSmall},
	}
	for _, shape := range rndvShapes {
		for _, f := range faults {
			t.Run(shape.name+"/"+f.name, func(t *testing.T) {
				c := newCluster(t, core.StrategyKiobuf, 0)
				if f.dma {
					// Fail every DMA large enough to be a payload write;
					// control messages and ring traffic stay up.
					inj := faultinject.New(7)
					inj.FailWhen(via.SiteDMA, func(op faultinject.Op) bool { return op.N >= 16*phys.PageSize }, via.ErrLinkDown)
					c.nicA.SetFaultInjector(inj)
				}
				src, _ := c.procA.Malloc(shape.size)
				dst, _ := c.procB.Malloc(shape.size / f.dstDiv)
				if err := src.FillPattern(21); err != nil {
					t.Fatal(err)
				}
				send, recv, free := shape.start(t, c, src, dst)
				serr, rerr := exchange(t, send, recv)
				if !errors.Is(serr, f.wantSend) {
					t.Errorf("sender error %v, want %v", serr, f.wantSend)
				}
				if !errors.Is(rerr, f.wantRecv) {
					t.Errorf("receiver error %v, want %v", rerr, f.wantRecv)
				}
				if s := c.epA.Stats(); s.SentMsgs != 0 || s.ZeroCopies != 0 || s.RemapSends != 0 {
					t.Errorf("failed transfer counted as sent: %+v", s)
				}
				if s := c.epB.Stats(); s.RecvMsgs != 0 {
					t.Errorf("failed transfer counted as received: %+v", s)
				}

				// Every registration was released: a flush empties both
				// caches and leaves no payload page pinned.
				free()
				for name, ep := range map[string]*Endpoint{"sender": c.epA, "receiver": c.epB} {
					if _, err := ep.Cache().Flush(); err != nil {
						t.Errorf("%s flush: %v", name, err)
					}
					if n := ep.Cache().Len(); n != 0 {
						t.Errorf("%s cache holds %d regions after flush", name, n)
					}
				}
				for _, side := range []struct {
					b  *proc.Buffer
					ph *phys.Memory
				}{{src, c.kernelA.Phys()}, {dst, c.kernelB.Phys()}} {
					pfns, err := side.b.ResidentPFNs()
					if err != nil {
						t.Fatal(err)
					}
					for i, p := range pfns {
						if n := side.ph.Pins(p); n != 0 {
							t.Errorf("payload page %d still holds %d pins", i, n)
						}
					}
				}
				if n := c.kernelB.OrphanFrames(); n != 0 {
					t.Errorf("aborted transfer leaked %d staging frames", n)
				}
				for _, k := range []*mm.Kernel{c.kernelA, c.kernelB} {
					if err := k.CheckInvariants(); err != nil {
						t.Error(err)
					}
				}
				// The guard came off: the sender's buffer is writable again.
				if err := src.Write(0, []byte{1}); err != nil {
					t.Errorf("sender buffer still guarded after failed send: %v", err)
				}
				if !f.dma {
					// A refusal is not a fault: the connection is intact and
					// the control stream in sync.
					c.transfer(t, 1024, Eager, 3)
				}
			})
		}
	}
}

// TestRendezvousHonoursMaxTransferSize checks every data phase splits a
// grant into descriptors the VI accepts: byte-exact delivery with
// MaxTransferSize below the grant size.
func TestRendezvousHonoursMaxTransferSize(t *testing.T) {
	for _, tc := range []struct {
		shape rndvShape
		opts  Options
	}{
		{shape: rndvShapes[0]},
		{shape: rndvShapes[1], opts: Options{PipelineChunk: 128 << 10}},
		{shape: rndvShapes[2]},
		{shape: rndvShapes[3]},
	} {
		t.Run(tc.shape.name, func(t *testing.T) {
			c := newCluster(t, core.StrategyKiobuf, 0, tc.opts)
			c.epA.VI().SetMaxTransferSize(32 << 10)
			src, _ := c.procA.Malloc(tc.shape.size)
			dst, _ := c.procB.Malloc(tc.shape.size)
			if err := src.FillPattern(33); err != nil {
				t.Fatal(err)
			}
			send, recv, free := tc.shape.start(t, c, src, dst)
			defer free()
			before := c.nicA.Stats().RDMAWrites
			if serr, rerr := exchange(t, send, recv); serr != nil || rerr != nil {
				t.Fatalf("send: %v, recv: %v", serr, rerr)
			}
			if bad, err := dst.VerifyPattern(33); err != nil || len(bad) != 0 {
				t.Fatalf("payload corrupt: bad pages %v, err %v", bad, err)
			}
			if got, want := c.nicA.Stats().RDMAWrites-before, uint64(tc.shape.size/(32<<10)); got != want {
				t.Errorf("RDMA writes = %d, want %d (one per 32 KiB)", got, want)
			}
		})
	}
}
