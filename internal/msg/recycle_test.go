package msg

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/proc"
	"repro/internal/race"
	"repro/internal/trace"
	"repro/internal/via"
)

// stamp fills p with bytes that depend on (i, position), so a payload
// delivered stale, truncated or from a neighbouring message is caught.
func stamp(p []byte, i int) {
	s := uint32(i)*2654435761 + 0x9e3779b9
	for k := range p {
		s = s*1664525 + 1013904223
		p[k] = byte(s >> 24)
	}
}

// TestRecvTooSmallKeepsStreamInSync refuses a message whose buffer is
// too small and then receives the next one: the refused message's
// chunks must be gone from the ring (and their credits back with the
// sender), so the next receive delivers the next message's bytes.
func TestRecvTooSmallKeepsStreamInSync(t *testing.T) {
	const small = 64
	for _, tc := range []struct {
		name string
		opts Options
		big  int
	}{
		{"inline", Options{}, 200},
		{"ring-1-chunk", Options{}, 4096},
		{"ring-3-chunks", Options{RingSlots: 4, SlotBytes: 4096}, 2*4096 + 100},
		{"rdma-eager", Options{RDMAEager: true, RingSlots: 4, SlotBytes: 4096}, 2*4096 + 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, core.StrategyKiobuf, 0, tc.opts)
			bigSrc := mustMalloc(t, c.procA, tc.big)
			smallSrc := mustMalloc(t, c.procA, small)
			dst := mustMalloc(t, c.procB, small)
			want := make([]byte, small)
			got := make([]byte, small)

			// Three rounds cross the ring's wrap point in every geometry.
			for round := 0; round < 3; round++ {
				stamp(want, round)
				if err := smallSrc.Write(0, want); err != nil {
					t.Fatal(err)
				}
				errc := make(chan error, 1)
				go func() {
					if _, err := c.epA.Send(bigSrc, Eager); err != nil {
						errc <- fmt.Errorf("big send: %w", err)
						return
					}
					_, err := c.epA.Send(smallSrc, Eager)
					errc <- err
				}()
				if _, err := c.epB.Recv(dst); !errors.Is(err, ErrTooSmall) {
					t.Fatalf("round %d: refused receive returned %v, want ErrTooSmall", round, err)
				}
				n, err := c.epB.Recv(dst)
				if err != nil || n != small {
					t.Fatalf("round %d: next receive = %d, %v", round, n, err)
				}
				if err := <-errc; err != nil {
					t.Fatal(err)
				}
				if err := dst.Read(0, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("round %d: next receive delivered the wrong bytes", round)
				}
			}
		})
	}
}

func mustMalloc(t *testing.T, p *proc.Process, size int) *proc.Buffer {
	t.Helper()
	b, err := p.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Touch(); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRingDescriptorReuseUnderMux is the recycling hazard test: ring
// and send descriptors are reposted in place while both NICs complete
// them from engine lanes and one mux poller routes every completion.
// Over ten thousand messages of mixed sizes (inline, one chunk, several
// chunks) wrap the ring thousands of times; a completion matched to the
// wrong life of a descriptor shows up as a failed wait or a payload
// from another message.  Run it under -race.
func TestRingDescriptorReuseUnderMux(t *testing.T) {
	sizes := []int{1, 64, 256, 257, 4096, 4097, 9000}
	const messages = 10500
	for _, rdma := range []bool{false, true} {
		name := "eager"
		if rdma {
			name = "rdma-eager"
		}
		t.Run(name, func(t *testing.T) {
			mux := via.NewCQMux(via.DefaultCQDepth)
			t.Cleanup(mux.Close)
			c := newCluster(t, core.StrategyKiobuf, 0,
				Options{Mux: mux, RDMAEager: rdma, RingSlots: 4, SlotBytes: 4096})
			c.nicA.StartEngineLanes(2)
			c.nicB.StartEngineLanes(2)
			t.Cleanup(c.nicA.StopEngine)
			t.Cleanup(c.nicB.StopEngine)

			srcs := make([]*proc.Buffer, len(sizes))
			dsts := make([]*proc.Buffer, len(sizes))
			for k, n := range sizes {
				srcs[k] = mustMalloc(t, c.procA, n)
				dsts[k] = mustMalloc(t, c.procB, n)
			}
			errc := make(chan error, 1)
			go func() {
				p := make([]byte, sizes[len(sizes)-1])
				for i := 0; i < messages; i++ {
					k := i % len(sizes)
					stamp(p[:sizes[k]], i)
					if err := srcs[k].Write(0, p[:sizes[k]]); err != nil {
						errc <- err
						return
					}
					if _, err := c.epA.Send(srcs[k], Eager); err != nil {
						errc <- fmt.Errorf("send %d: %w", i, err)
						return
					}
				}
				errc <- nil
			}()
			want := make([]byte, sizes[len(sizes)-1])
			got := make([]byte, sizes[len(sizes)-1])
			for i := 0; i < messages; i++ {
				k := i % len(sizes)
				n, err := c.epB.Recv(dsts[k])
				if err != nil || n != sizes[k] {
					t.Fatalf("recv %d: %d, %v", i, n, err)
				}
				if err := dsts[k].Read(0, got[:n]); err != nil {
					t.Fatal(err)
				}
				stamp(want[:n], i)
				if !bytes.Equal(got[:n], want[:n]) {
					t.Fatalf("message %d (%d B) delivered another message's bytes", i, n)
				}
			}
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
			if st := mux.Stats(); st.Pending > 2*4 {
				t.Errorf("mux still parks %d completions for two 4-slot rings", st.Pending)
			}
		})
	}
}

// TestEagerRoundTripZeroAllocs pins the allocation-free steady state of
// the three eager-class paths — inline descriptor, chunked ring eager,
// RDMA-eager — with descriptor waits going to the descriptor or through
// a mux, observers detached and attached.  Send and Recv run on one
// goroutine: the NIC is synchronous, so every wait finds its descriptor
// already complete, which is the case that must cost nothing.
//
// One run is a whole number of ring cycles, so the count is exact: zero
// for RDMA-eager, and for descriptor rings the one Segs slice each
// endpoint's slot 0 takes per wrap (see armSlot) and nothing else.
func TestEagerRoundTripZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race-detector instrumentation allocates")
	}
	const slots, slot = 4, 4096
	for _, withMux := range []bool{false, true} {
		for _, attached := range []bool{false, true} {
			for _, rdma := range []bool{false, true} {
				name := fmt.Sprintf("mux=%v/obs=%v/rdma=%v", withMux, attached, rdma)
				t.Run(name, func(t *testing.T) {
					opts := Options{RDMAEager: rdma, RingSlots: slots, SlotBytes: slot}
					if withMux {
						opts.Mux = via.NewCQMux(via.DefaultCQDepth)
						t.Cleanup(opts.Mux.Close)
					}
					c := newCluster(t, core.StrategyKiobuf, 0, opts)
					if attached {
						trc := trace.New(c.meter, 1<<10)
						reg := metrics.NewRegistry()
						c.nicA.AttachObs(trc, reg)
						c.nicB.AttachObs(trc, reg)
						c.epA.AttachObs(trc, reg)
						c.epB.AttachObs(trc, reg)
					}
					want := 2.0 // both endpoints' rings wrap once per run
					if rdma {
						want = 0
					}
					// 64 B rides the descriptor image (the ring slot under
					// RDMA-eager); slot+100 B is a two-chunk ring message.
					for _, tc := range []struct{ size, chunks int }{{64, 1}, {slot + 100, 2}} {
						ab := [2]*proc.Buffer{mustMalloc(t, c.procA, tc.size), mustMalloc(t, c.procA, tc.size)}
						bb := mustMalloc(t, c.procB, tc.size)
						ringCycle := func() {
							for i := 0; i < slots/tc.chunks; i++ {
								if _, err := c.epA.Send(ab[0], Eager); err != nil {
									t.Fatal(err)
								}
								if _, err := c.epB.Recv(bb); err != nil {
									t.Fatal(err)
								}
								if _, err := c.epB.Send(bb, Eager); err != nil {
									t.Fatal(err)
								}
								if _, err := c.epA.Recv(ab[1]); err != nil {
									t.Fatal(err)
								}
							}
						}
						for i := 0; i < 4; i++ { // warm: descriptors, pool, mux maps
							ringCycle()
						}
						if got := testing.AllocsPerRun(100, ringCycle); got != want {
							t.Errorf("%d round trips of %d B allocate %v objects, want %v",
								slots/tc.chunks, tc.size, got, want)
						}
					}
					if !rdma && c.epA.Stats().InlineSends == 0 {
						t.Error("64 B sends never took the inline path")
					}
				})
			}
		}
	}
}

// TestRendezvousZeroAllocs pins the allocation-free steady state of the
// zero-copy path: a warm 1 MiB ZeroCopy send/recv over an unbounded
// registration cache — sixteen chunks, every registration a cache hit,
// the whole write train armed on the endpoint's one send descriptor and
// every chunk streamed frame to frame by the NICs — allocates nothing on
// either side.  The receiver runs on a goroutine that outlives the
// measurement, as an application's would.
func TestRendezvousZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race-detector instrumentation allocates")
	}
	const size = 1 << 20
	c := newCluster(t, core.StrategyKiobuf, 0)
	src, dst := mustMalloc(t, c.procA, size), mustMalloc(t, c.procB, size)
	want := make([]byte, size)
	stamp(want, 1)
	if err := src.Write(0, want); err != nil {
		t.Fatal(err)
	}
	recv, done := make(chan struct{}), make(chan error)
	go func() {
		for range recv {
			_, err := c.epB.Recv(dst)
			done <- err
		}
	}()
	defer close(recv)
	round := func() {
		recv <- struct{}{}
		if n, err := c.epA.Send(src, ZeroCopy); err != nil || n != size {
			t.Fatalf("send = %d, %v", n, err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	round() // warm: both registration caches, the send descriptor, the stream pool
	if got := testing.AllocsPerRun(20, round); got != 0 {
		t.Errorf("a warm %d KiB zero-copy round allocates %v objects, want 0", size>>10, got)
	}
	got := make([]byte, size)
	if err := dst.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("payload corrupted in transit")
	}
	if st := c.epA.Stats(); st.ZeroCopies == 0 || st.PipelineFallbacks != 0 {
		t.Errorf("rounds did not all take the zero-copy path: %+v", st)
	}
}
