package bench

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/msg"
	"repro/internal/phys"
	"repro/internal/simtime"
	"repro/internal/via"
)

// dpRig is a two-NIC fabric with pre-connected VI pairs and registered
// buffers, one pair per prospective worker, so the benchmarks measure
// the descriptor data path and not setup.
type dpRig struct {
	meter      *simtime.Meter
	nicA, nicB *via.NIC
	visA, visB []*via.VI
	hA, hB     []via.MemHandle
}

// newDPRig builds nVIs connected VI pairs, each side owning a registered
// buffer of the given page count.
func newDPRig(tb testing.TB, nVIs, pages int) *dpRig {
	tb.Helper()
	frames := nVIs*pages + 64
	r := &dpRig{meter: simtime.NewMeter()}
	memA, memB := phys.New(frames), phys.New(frames)
	r.nicA = via.NewNIC("dpA", memA, r.meter, frames)
	r.nicB = via.NewNIC("dpB", memB, r.meter, frames)
	net := via.NewNetwork()
	if err := net.Attach(r.nicA); err != nil {
		tb.Fatal(err)
	}
	if err := net.Attach(r.nicB); err != nil {
		tb.Fatal(err)
	}
	reg := func(mem *phys.Memory, nic *via.NIC, tag via.ProtectionTag) via.MemHandle {
		pp := make([]phys.PFN, pages)
		for i := range pp {
			pfn, err := mem.AllocFrame()
			if err != nil {
				tb.Fatal(err)
			}
			pp[i] = pfn
		}
		h, err := nic.RegisterMemory(pp, 0, pages*phys.PageSize, tag, via.MemAttrs{})
		if err != nil {
			tb.Fatal(err)
		}
		return h
	}
	for i := 0; i < nVIs; i++ {
		tag := via.ProtectionTag(i + 1)
		va, err := r.nicA.CreateVI(tag)
		if err != nil {
			tb.Fatal(err)
		}
		vb, err := r.nicB.CreateVI(tag)
		if err != nil {
			tb.Fatal(err)
		}
		if err := net.Connect(va, vb); err != nil {
			tb.Fatal(err)
		}
		r.visA = append(r.visA, va)
		r.visB = append(r.visB, vb)
		r.hA = append(r.hA, reg(memA, r.nicA, tag))
		r.hB = append(r.hB, reg(memB, r.nicB, tag))
	}
	return r
}

// BenchmarkDataPath is the regression guard for the synchronous
// descriptor fast path: every worker drives send/recv rounds over its
// own VI pair on one shared NIC pair, so the TPT translation, the NIC
// statistics and the payload buffering are the contended state.  Run
// with -cpu 1,2,4,8 to see scaling; steady state must not allocate at
// any size, pinned payloads stream frame to frame.  The 1 MiB case runs
// on eight VI pairs so its rig stays at 16 MiB a side.
func BenchmarkDataPath(b *testing.B) {
	for _, pages := range []int{1, 4, 16, 256} {
		maxWorkers := min(64, 2048/pages)
		b.Run(fmt.Sprintf("%dKiB", pages*phys.PageSize>>10), func(b *testing.B) {
			r := newDPRig(b, maxWorkers, pages)
			payload := pages * phys.PageSize
			var next atomic.Int64
			simStart := r.meter.Now()
			b.ReportAllocs()
			b.SetBytes(int64(payload))
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := int(next.Add(1)-1) % maxWorkers
				viA, viB := r.visA[id], r.visB[id]
				hA, hB := r.hA[id], r.hB[id]
				var rd, sd *via.Descriptor
				for pb.Next() {
					if rd == nil {
						rd = via.NewDescriptor(via.OpRecv, via.Segment{Handle: hB, Offset: 0, Length: payload})
						sd = via.NewDescriptor(via.OpSend, via.Segment{Handle: hA, Offset: 0, Length: payload})
					} else {
						rd.Reset()
						sd.Reset()
					}
					if err := viB.PostRecv(rd); err != nil {
						b.Fatal(err)
					}
					if err := viA.PostSend(sd); err != nil {
						b.Fatal(err)
					}
					if sd.Status != via.StatusSuccess {
						b.Fatalf("send status %v", sd.Status)
					}
				}
			})
			b.StopTimer()
			if b.N > 0 {
				b.ReportMetric((r.meter.Now()-simStart).Micros()/float64(b.N), "sim-µs/op")
			}
		})
	}
}

// BenchmarkRendezvous is the regression guard for the pipelined
// rendezvous control path: repeated warm-cache 256 KiB zero-copy
// send/recv rounds, so after the first round every chunk registration is
// a cache hit and the measured work is the grant/fin handshake, the
// chunk loop and the descriptor path — the walltime overhead the
// pipeline adds per message.
func BenchmarkRendezvous(b *testing.B) {
	const size = 256 * 1024
	c, err := cluster.New(cluster.Config{
		Nodes:    2,
		Kernel:   benchKernelConfig(),
		TPTSlots: 4096,
	})
	if err != nil {
		b.Fatal(err)
	}
	ea, eb, err := c.EndpointPair(0, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	src, err := ea.Process().Malloc(size)
	if err != nil {
		b.Fatal(err)
	}
	dst, err := eb.Process().Malloc(size)
	if err != nil {
		b.Fatal(err)
	}
	if err := src.FillPattern(0x5a); err != nil {
		b.Fatal(err)
	}
	if err := dst.FillPattern(0x00); err != nil {
		b.Fatal(err)
	}
	round := func() error {
		errc := make(chan error, 1)
		go func() {
			_, err := eb.Recv(dst)
			errc <- err
		}()
		if _, err := ea.Send(src, msg.ZeroCopy); err != nil {
			return err
		}
		return <-errc
	}
	if err := round(); err != nil { // warm: fault pages in, fill regcache
		b.Fatal(err)
	}
	simStart := c.Meter.Now()
	b.ReportAllocs()
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := round(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric((c.Meter.Now()-simStart).Micros()/float64(b.N), "sim-µs/op")
	}
}

// BenchmarkMultiVIFanout measures the asynchronous engine: many VIs fan
// descriptors onto one NIC's engine concurrently and wait for
// completion, so independent connections only go as fast as the engine
// lets them process in parallel.
func BenchmarkMultiVIFanout(b *testing.B) {
	const maxWorkers = 64
	r := newDPRig(b, maxWorkers, 1)
	payload := phys.PageSize
	r.nicA.StartEngine()
	defer r.nicA.StopEngine()
	var next atomic.Int64
	simStart := r.meter.Now()
	b.ReportAllocs()
	b.SetBytes(int64(payload))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := int(next.Add(1)-1) % maxWorkers
		viA, viB := r.visA[id], r.visB[id]
		hA, hB := r.hA[id], r.hB[id]
		var rd, sd *via.Descriptor
		for pb.Next() {
			if rd == nil {
				rd = via.NewDescriptor(via.OpRecv, via.Segment{Handle: hB, Offset: 0, Length: payload})
				sd = via.NewDescriptor(via.OpSend, via.Segment{Handle: hA, Offset: 0, Length: payload})
			} else {
				rd.Reset()
				sd.Reset()
			}
			if err := viB.PostRecv(rd); err != nil {
				b.Fatal(err)
			}
			if err := viA.PostSend(sd); err != nil {
				b.Fatal(err)
			}
			if st := sd.Wait(); st != via.StatusSuccess {
				b.Fatalf("send status %v", st)
			}
		}
	})
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric((r.meter.Now()-simStart).Micros()/float64(b.N), "sim-µs/op")
	}
}
