// Package repro's root benchmark harness: one testing.B benchmark per
// table/figure of the evaluation (see DESIGN.md's experiment index).
// Real ns/op measures the Go implementation; the simulated latencies the
// paper's shapes live in are reported as the "sim-µs" metric.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/locktest"
	"repro/internal/mm"
	"repro/internal/msg"
	"repro/internal/phys"
	"repro/internal/simtime"
	"repro/internal/via"
)

// BenchmarkLocktest runs the full §3.1 experiment (E1) once per
// iteration, per strategy.
func BenchmarkLocktest(b *testing.B) {
	for _, s := range core.Strategies() {
		b.Run(string(s), func(b *testing.B) {
			cfg := locktest.DefaultConfig()
			var simTotal simtime.Duration
			for i := 0; i < b.N; i++ {
				r, err := locktest.Run(s, cfg)
				if err != nil {
					b.Fatal(err)
				}
				simTotal += r.RegisterTime + r.DeregisterTime
			}
			b.ReportMetric(float64(simTotal.Micros())/float64(b.N), "sim-µs/op")
		})
	}
}

// BenchmarkMultiReg exercises the double-register/single-deregister
// sequence of E2.
func BenchmarkMultiReg(b *testing.B) {
	for _, s := range []core.Strategy{core.StrategyMlock, core.StrategyKiobuf} {
		b.Run(string(s), func(b *testing.B) {
			c := cluster.MustNew(cluster.Config{Nodes: 1, Strategy: s})
			node := c.Nodes[0]
			p := node.NewProcess("bench", false)
			buf, err := p.Malloc(8 * phys.PageSize)
			if err != nil {
				b.Fatal(err)
			}
			tag := via.ProtectionTag(p.ID())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r1, err := node.Agent.RegisterMem(p.AS(), buf.Addr, buf.Bytes, tag, via.MemAttrs{})
				if err != nil {
					b.Fatal(err)
				}
				r2, err := node.Agent.RegisterMem(p.AS(), buf.Addr, buf.Bytes, tag, via.MemAttrs{})
				if err != nil {
					b.Fatal(err)
				}
				if err := node.Agent.DeregisterMem(r1); err != nil {
					b.Fatal(err)
				}
				if err := node.Agent.DeregisterMem(r2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPressureSurvival measures one E5 point: registration under a
// full pressure cycle.
func BenchmarkPressureSurvival(b *testing.B) {
	for _, s := range []core.Strategy{core.StrategyRefcount, core.StrategyKiobuf} {
		b.Run(string(s), func(b *testing.B) {
			cfg := locktest.DefaultConfig()
			cfg.PressureFraction = 1.25
			for i := 0; i < b.N; i++ {
				if _, err := locktest.Run(s, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// protoBench wires one endpoint pair and streams messages.
func protoBench(b *testing.B, size int, p msg.Protocol) {
	c := cluster.MustNew(cluster.Config{Nodes: 2, Strategy: core.StrategyKiobuf, TPTSlots: 8192,
		Kernel: mm.Config{RAMPages: 16384, SwapPages: 16384, ClockBatch: 128, SwapBatch: 32}})
	a, recv, err := c.EndpointPair(0, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	src, err := a.Process().Malloc(size)
	if err != nil {
		b.Fatal(err)
	}
	dst, err := recv.Process().Malloc(size)
	if err != nil {
		b.Fatal(err)
	}
	if err := src.Touch(); err != nil {
		b.Fatal(err)
	}
	if err := dst.Touch(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(size))
	start := c.Meter.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		errc := make(chan error, 1)
		go func() {
			_, err := a.Send(src, p)
			errc <- err
		}()
		if _, err := recv.Recv(dst); err != nil {
			b.Fatal(err)
		}
		if err := <-errc; err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	elapsed := c.Meter.Now() - start
	b.ReportMetric(elapsed.Micros()/float64(b.N), "sim-µs/op")
	simSec := float64(elapsed) / float64(simtime.Second)
	if simSec > 0 {
		b.ReportMetric(float64(size)*float64(b.N)/simSec/1e6, "sim-MB/s")
	}
}

// BenchmarkProtocolOneCopy measures the one-copy path (E6, mid leg).
func BenchmarkProtocolOneCopy(b *testing.B) {
	for _, size := range []int{16 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) { protoBench(b, size, msg.OneCopy) })
	}
}

// BenchmarkDivergenceProbe measures the consistency probe of E10.
func BenchmarkDivergenceProbe(b *testing.B) {
	c := cluster.MustNew(cluster.Config{Nodes: 1, Strategy: core.StrategyKiobuf})
	node := c.Nodes[0]
	p := node.NewProcess("bench", false)
	buf, err := p.Malloc(64 * phys.PageSize)
	if err != nil {
		b.Fatal(err)
	}
	reg, err := node.Agent.RegisterMem(p.AS(), buf.Addr, buf.Bytes, via.ProtectionTag(p.ID()), via.MemAttrs{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := node.Agent.ConsistentPages(reg); err != nil {
			b.Fatal(err)
		}
	}
}
