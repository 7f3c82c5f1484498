package bench

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/msg"
	"repro/internal/via"
)

// BenchmarkInlineSend is the regression guard for the inline fast path:
// synchronous 64 B round trips whose payload rides the descriptor
// image.  Steady state must not allocate — the descriptor pair is
// reused and the payload never touches the TPT, the gather DMA or the
// staging pool.
func BenchmarkInlineSend(b *testing.B) {
	r, err := smallMsgFabric("inlinebench", nil)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i)
	}
	sd := via.NewDescriptor(via.OpSend)
	rd := via.NewDescriptor(via.OpRecv)
	simStart := r.meter.Now()
	b.ReportAllocs()
	b.SetBytes(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 {
			sd.Reset()
			rd.Reset()
		}
		if err := sd.SetInline(payload); err != nil {
			b.Fatal(err)
		}
		if err := r.viB.PostRecv(rd); err != nil {
			b.Fatal(err)
		}
		if err := r.viA.PostSend(sd); err != nil {
			b.Fatal(err)
		}
		if sd.Status != via.StatusSuccess || rd.Status != via.StatusSuccess {
			b.Fatalf("statuses %v/%v", sd.Status, rd.Status)
		}
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric((r.meter.Now()-simStart).Micros()/float64(b.N), "sim-µs/op")
	}
}

// BenchmarkPostBatch guards the batched posting path: rounds of 16
// inline sends through PostSendBatch (one doorbell, one lane item per
// round) against a PostRecvBatch window over the 2-lane engine.  One op
// is one descriptor.
func BenchmarkPostBatch(b *testing.B) {
	const group = 16
	r, err := smallMsgFabric("postbatchbench", nil)
	if err != nil {
		b.Fatal(err)
	}
	r.nicA.StartEngineLanes(2)
	defer r.nicA.StopEngine()
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i)
	}
	sends := make([]*via.Descriptor, group)
	recvs := make([]*via.Descriptor, group)
	for i := 0; i < group; i++ {
		sends[i] = via.NewDescriptor(via.OpSend)
		recvs[i] = via.NewDescriptor(via.OpRecv)
	}
	simStart := r.meter.Now()
	b.ReportAllocs()
	b.SetBytes(64)
	b.ResetTimer()
	for done := 0; done < b.N; done += group {
		if done > 0 {
			for i := 0; i < group; i++ {
				recvs[i].Reset()
				sends[i].Reset()
			}
		}
		for _, sd := range sends {
			if err := sd.SetInline(payload); err != nil {
				b.Fatal(err)
			}
		}
		if err := r.viB.PostRecvBatch(recvs); err != nil {
			b.Fatal(err)
		}
		if err := r.viA.PostSendBatch(sends); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < group; i++ {
			if st := sends[i].Wait(); st != via.StatusSuccess {
				b.Fatalf("send %d: status %v", done+i, st)
			}
			if st := recvs[i].Wait(); st != via.StatusSuccess {
				b.Fatalf("recv %d: status %v", done+i, st)
			}
		}
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric((r.meter.Now()-simStart).Micros()/float64(b.N), "sim-µs/op")
	}
}

// BenchmarkEagerPingPong is the msg-level row of the small-message
// path: one op is a 64 B eager round trip (A sends, B receives and
// echoes, A receives) over a default endpoint pair, driven from one
// goroutine so the number is the code's own cost, not a scheduler
// hand-off.  It exercises what BenchmarkInlineSend cannot see from the
// via layer: control announcements, credits, ring-descriptor recycling
// and the batched repost.  Steady state allocates only the one 24 B
// Segs slice per ring wrap documented at msg.armSlot (0 allocs/op as
// -benchmem rounds it).
func BenchmarkEagerPingPong(b *testing.B) {
	const size = 64
	c, err := cluster.New(cluster.Config{Nodes: 2, Kernel: benchKernelConfig(), TPTSlots: 4096})
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
	echo, err := eb.Process().Malloc(size)
	if err != nil {
		b.Fatal(err)
	}
	if err := src.FillPattern(0x5a); err != nil {
		b.Fatal(err)
	}
	roundTrip := func() error {
		if _, err := ea.Send(src, msg.Eager); err != nil {
			return err
		}
		if _, err := eb.Recv(echo); err != nil {
			return err
		}
		if _, err := eb.Send(echo, msg.Eager); err != nil {
			return err
		}
		_, err := ea.Recv(src)
		return err
	}
	if err := roundTrip(); err != nil { // warm: fault pages in, build descriptors
		b.Fatal(err)
	}
	simStart := c.Meter.Now()
	b.ReportAllocs()
	b.SetBytes(2 * size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := roundTrip(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric((c.Meter.Now()-simStart).Micros()/float64(b.N), "sim-µs/op")
	}
	if bad, err := src.VerifyPattern(0x5a); err != nil || len(bad) != 0 {
		b.Fatalf("echoed payload corrupted: pages %v, %v", bad, err)
	}
}
