package msg

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/kagent"
	"repro/internal/mm"
	"repro/internal/phys"
)

func TestRemapAligned(t *testing.T) {
	c := newCluster(t, core.StrategyKiobuf, 0)
	c.transfer(t, 4*phys.PageSize, Remap, 7)
	s := c.epA.Stats()
	if s.RemapSends != 1 || s.RemapFallbacks != 0 {
		t.Fatalf("sender stats: %+v", s)
	}
	r := c.epB.Stats()
	if r.RemapRecvs != 1 || r.RemapPages != 4 || r.RemapTailBytes != 0 {
		t.Fatalf("receiver stats: %+v", r)
	}
	// Delivery was frame exchange, not scatter copy.
	ks := c.kernelB.Stats()
	if ks.FrameDonations != 4 || ks.FrameAdopts != 4 {
		t.Fatalf("kernel frames: donations=%d adopts=%d", ks.FrameDonations, ks.FrameAdopts)
	}
}

func TestRemapUnalignedTail(t *testing.T) {
	c := newCluster(t, core.StrategyKiobuf, 0)
	size := 2*phys.PageSize + 777
	c.transfer(t, size, Remap, 9)
	r := c.epB.Stats()
	if r.RemapRecvs != 1 || r.RemapPages != 2 || r.RemapTailBytes != 777 {
		t.Fatalf("receiver stats: %+v", r)
	}
	ks := c.kernelB.Stats()
	// The tail staging frame is donated but released, never adopted.
	if ks.FrameDonations != 3 || ks.FrameAdopts != 2 {
		t.Fatalf("kernel frames: donations=%d adopts=%d", ks.FrameDonations, ks.FrameAdopts)
	}
}

func TestRemapSubPageDegrades(t *testing.T) {
	c := newCluster(t, core.StrategyKiobuf, 0)
	c.transfer(t, 100, Remap, 3)
	s := c.epA.Stats()
	if s.RemapSends != 0 {
		t.Fatalf("sub-page send used frame exchange: %+v", s)
	}
	if s.SentMsgs != 1 {
		t.Fatalf("sub-page send not delivered: %+v", s)
	}
	if c.kernelB.Stats().FrameDonations != 0 {
		t.Fatal("sub-page send donated frames")
	}
}

func TestRemapTooSmallDst(t *testing.T) {
	c := newCluster(t, core.StrategyKiobuf, 0)
	src, _ := c.procA.Malloc(4 * phys.PageSize)
	dst, _ := c.procB.Malloc(phys.PageSize)
	if err := src.FillPattern(1); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := c.epA.Send(src, Remap)
		errc <- err
	}()
	_, err := c.epB.Recv(dst)
	if !errors.Is(err, ErrTooSmall) {
		t.Fatalf("recv: %v, want ErrTooSmall", err)
	}
	// The receiver refuses before staging anything and no fallback could
	// fit either, so the sender is told to stop rather than degrade.
	if err := <-errc; !errors.Is(err, ErrPeerAborted) {
		t.Fatalf("send: %v, want ErrPeerAborted", err)
	}
	// Nothing was donated, nothing leaked.
	if n := c.kernelB.OrphanFrames(); n != 0 {
		t.Fatalf("declined transfer leaked %d frames", n)
	}
}

func TestRemapRegistrationFaultDegrades(t *testing.T) {
	c := newCluster(t, core.StrategyKiobuf, 0)
	// Fail the receiver's staging-frame TPT registration once: the
	// receiver must NAK and the transfer must still deliver one-copy.
	inj := faultinject.New(1)
	inj.FailNth(kagent.SiteRegister, 1, errors.New("injected tpt failure"))
	c.agentB.SetFaultInjector(inj)
	c.transfer(t, 8*phys.PageSize, Remap, 5)
	s := c.epA.Stats()
	if s.RemapFallbacks != 1 || s.RemapSends != 0 {
		t.Fatalf("sender stats: %+v", s)
	}
	if c.kernelB.Stats().FrameAdopts != 0 {
		t.Fatal("declined transfer still adopted frames")
	}
	if n := c.kernelB.OrphanFrames(); n != 0 {
		t.Fatalf("declined transfer leaked %d frames", n)
	}
}

// TestRemapScribblePolicies pins the ownership guarantee: whatever a
// concurrent writer does to the in-flight buffer, the receiver gets the
// snapshot taken at Send, and the writer sees either a typed failure
// (fail-fast) or success against a private copy (copy-on-touch).
func TestRemapScribblePolicies(t *testing.T) {
	for _, tc := range []struct {
		name   string
		opts   []Options
		policy ScribblePolicy
	}{
		{"fail-fast", nil, ScribbleFail},
		{"copy-on-touch", []Options{{ScribblePolicy: ScribbleCopy}}, ScribbleCopy},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, core.StrategyKiobuf, 0, tc.opts...)
			size := 16 * phys.PageSize
			src, _ := c.procA.Malloc(size)
			dst, _ := c.procB.Malloc(size)
			if err := src.FillPattern(11); err != nil {
				t.Fatal(err)
			}
			want := make([]byte, size)
			if err := src.Read(0, want); err != nil {
				t.Fatal(err)
			}

			// The writer hammers one byte with 0xFF for the whole window —
			// before, during and after the flight.  Writes landing outside
			// the guard window are legitimate (the buffer is the app's),
			// so the delivery oracle allows either value at that one byte;
			// everything else must be the pristine pattern.
			const scribbleOff = phys.PageSize + 17
			var (
				wg        sync.WaitGroup
				writeErrs []error
			)
			stop := make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					err := src.Write(scribbleOff, []byte{0xFF})
					if err != nil {
						writeErrs = append(writeErrs, err)
					}
				}
			}()

			errc := make(chan error, 1)
			go func() {
				_, err := c.epA.Send(src, Remap)
				errc <- err
			}()
			n, err := c.epB.Recv(dst)
			close(stop)
			wg.Wait()
			if err != nil {
				t.Fatalf("recv: %v", err)
			}
			if err := <-errc; err != nil {
				t.Fatalf("send: %v", err)
			}
			if n != size {
				t.Fatalf("received %d of %d", n, size)
			}
			// The snapshot taken at Send is what arrives: no byte the
			// writer pushed during the flight may show up.
			got := make([]byte, size)
			if err := dst.Read(0, got); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if i == scribbleOff && got[i] == 0xFF {
					continue // landed before the guard went up — part of the snapshot
				}
				if got[i] != want[i] {
					t.Fatalf("byte %d: got %#x, want %#x (scribble leaked mid-flight)", i, got[i], want[i])
				}
			}
			// Writer error taxonomy: fail-fast writers see the typed
			// error, copy-on-touch writers never fail.
			for _, werr := range writeErrs {
				if !errors.Is(werr, ErrWriteDuringFlight) {
					t.Fatalf("writer error %v, want ErrWriteDuringFlight", werr)
				}
			}
			if tc.policy == ScribbleCopy && len(writeErrs) != 0 {
				t.Fatalf("copy-on-touch writer failed: %v", writeErrs[0])
			}
			// Counters agree with what the writer observed.
			if tc.policy == ScribbleFail && uint64(len(writeErrs)) != c.epA.Stats().ScribbleFaults {
				t.Fatalf("ScribbleFaults=%d, writer saw %d", c.epA.Stats().ScribbleFaults, len(writeErrs))
			}
		})
	}
}

// TestRemapFrameAccounting is the property test for remap receives:
// after N transfers with random sizes and alignments, every destination
// page is a plainly-owned mapping (one reference, no pins, no reserved
// flag), the donated-frame ledger balances exactly, and freeing the
// buffers returns physical memory to its starting level.
func TestRemapFrameAccounting(t *testing.T) {
	c := newCluster(t, core.StrategyKiobuf, 0)
	rng := rand.New(rand.NewSource(99))
	freeBefore := c.kernelB.FreePages()

	const rounds = 25
	for i := 0; i < rounds; i++ {
		size := 1 + rng.Intn(8*phys.PageSize)
		if rng.Intn(2) == 0 { // bias half the rounds to page-aligned sizes
			size = (1 + rng.Intn(8)) * phys.PageSize
		}
		c.transfer(t, size, Remap, byte(rng.Intn(256)))
	}

	// One more transfer whose buffer we keep mapped, to walk its frames.
	size := 6*phys.PageSize + 123
	src, _ := c.procA.Malloc(size)
	dst, _ := c.procB.Malloc(size)
	if err := src.FillPattern(42); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := c.epA.Send(src, Remap)
		errc <- err
	}()
	if _, err := c.epB.Recv(dst); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	pfns, err := dst.ResidentPFNs()
	if err != nil {
		t.Fatal(err)
	}
	ph := c.kernelB.Phys()
	for i, p := range pfns {
		if ph.RefCount(p) != 1 {
			t.Fatalf("dst page %d: refcount %d, want 1", i, ph.RefCount(p))
		}
		if ph.Pins(p) != 0 {
			t.Fatalf("dst page %d: %d pins left", i, ph.Pins(p))
		}
		if ph.TestFlags(p, phys.PGReserved) {
			t.Fatalf("dst page %d still PG_reserved", i)
		}
	}

	// Ledger: every donated frame was either adopted or returned.
	ks := c.kernelB.Stats()
	if ks.FrameAdopts > ks.FrameDonations {
		t.Fatalf("adopted %d > donated %d", ks.FrameAdopts, ks.FrameDonations)
	}
	if n := c.kernelB.OrphanFrames(); n != 0 {
		t.Fatalf("OrphanFrames = %d", n)
	}
	if err := c.kernelB.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := c.kernelA.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Free the held buffer: memory returns to the pre-transfer level.
	if err := c.procB.Free(dst); err != nil {
		t.Fatal(err)
	}
	if err := c.procA.Free(src); err != nil {
		t.Fatal(err)
	}
	if got := c.kernelB.FreePages(); got != freeBefore {
		t.Fatalf("receiver free pages %d, want %d", got, freeBefore)
	}
}

// TestProtocolDifferential is the differential harness: a seeded
// generator produces (size, alignment, concurrent-writer, swap-pressure)
// scenarios, each replayed through all four protocols.  Every protocol
// must deliver byte-identical payloads and surface the identical
// sender-visible error taxonomy for the writer.
func TestProtocolDifferential(t *testing.T) {
	const scenarios = 200
	rng := rand.New(rand.NewSource(20260808))
	protocols := []Protocol{Eager, OneCopy, ZeroCopy, Remap}

	for i := 0; i < scenarios; i++ {
		size := 1 + rng.Intn(24*phys.PageSize)
		switch rng.Intn(3) {
		case 0: // page-aligned
			size = (1 + rng.Intn(24)) * phys.PageSize
		case 1: // page-aligned with a short tail
			size = (1+rng.Intn(24))*phys.PageSize + 1 + rng.Intn(phys.PageSize-1)
		}
		writer := rng.Intn(3) == 0
		swapPressure := rng.Intn(4) == 0
		seed := byte(rng.Intn(256))
		writerOff := rng.Intn(size)

		name := fmt.Sprintf("scn%03d/size=%d/writer=%v/swap=%v", i, size, writer, swapPressure)
		results := make(map[Protocol]string)
		for _, p := range protocols {
			results[p] = runScenario(t, p, size, seed, writer, swapPressure, writerOff)
		}
		for _, p := range protocols[1:] {
			if results[p] != results[protocols[0]] {
				t.Fatalf("%s: %s = %q, %s = %q", name, protocols[0], results[protocols[0]], p, results[p])
			}
		}
	}
}

// runScenario plays one scenario through one protocol and returns a
// canonical outcome string: delivery digest plus writer error taxonomy.
func runScenario(t *testing.T, p Protocol, size int, seed byte, writer, swapPressure bool, writerOff int) string {
	t.Helper()
	c := newCluster(t, core.StrategyKiobuf, 0)
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
	if swapPressure {
		c.kernelA.SwapOut(4096)
		c.kernelA.SwapOut(4096)
		c.kernelB.SwapOut(4096)
		c.kernelB.SwapOut(4096)
	}

	// For writer scenarios, an external fail-fast guard covers the source
	// for the whole transfer window, for every protocol alike: the
	// writer's outcome is then deterministic (typed failure) regardless
	// of each protocol's internal timing, making the error taxonomy
	// comparable across protocols.
	var (
		guard     *mm.WriteGuard
		writerErr error
		wg        sync.WaitGroup
	)
	if writer {
		guard, err = c.kernelA.RevokeWrite(c.procA.AS(), src.Addr, src.Pages(), mm.GuardFailFast, nil)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			writerErr = src.Write(writerOff, []byte{0xAA})
		}()
	}

	errc := make(chan error, 1)
	go func() {
		_, serr := c.epA.Send(src, p)
		errc <- serr
	}()
	var (
		n    int
		rerr error
		serr error
	)
	recvDone := make(chan struct{})
	go func() {
		n, rerr = c.epB.Recv(dst)
		close(recvDone)
	}()
	select {
	case <-recvDone:
		serr = <-errc
	case serr = <-errc:
		// A send that fails before announcing leaves the receiver
		// blocked; surface the sender's error instead of deadlocking.
		if serr != nil {
			t.Fatalf("%s send failed before announce (size=%d writer=%v swap=%v): %v",
				p, size, writer, swapPressure, serr)
		}
		<-recvDone
	}
	wg.Wait()
	if guard != nil {
		if err := c.kernelA.RestoreWrite(guard); err != nil {
			t.Fatal(err)
		}
	}
	if serr != nil {
		t.Fatalf("%s send (size=%d writer=%v swap=%v): %v", p, size, writer, swapPressure, serr)
	}
	if rerr != nil {
		t.Fatalf("%s recv (size=%d writer=%v swap=%v): %v", p, size, writer, swapPressure, rerr)
	}
	bad, err := dst.VerifyPattern(seed)
	if err != nil {
		t.Fatal(err)
	}

	wclass := "none"
	switch {
	case writer && errors.Is(writerErr, ErrWriteDuringFlight):
		wclass = "write-during-flight"
	case writer && writerErr != nil:
		wclass = "unexpected:" + writerErr.Error()
	case writer:
		wclass = "write-allowed"
	}
	return fmt.Sprintf("n=%d badpages=%d writer=%s", n, len(bad), wclass)
}
