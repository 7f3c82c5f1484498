// Benchmarks for the extension substrates: RAW I/O, the SCI bridge (PIO
// and combined protected DMA) and the Bigphysarea baseline (experiments
// E11-E13 have their tables in viabench; these are their testing.B
// companions).
package repro

import (
	"testing"

	"repro/internal/bigphys"
	"repro/internal/core"
	"repro/internal/mm"
	"repro/internal/phys"
	"repro/internal/proc"
	"repro/internal/rawio"
	"repro/internal/sci"
	"repro/internal/simtime"
)

// BenchmarkRawIO measures the kiobuf-backed raw read/write path.
func BenchmarkRawIO(b *testing.B) {
	k := mm.NewKernel(mm.Config{RAMPages: 1024, SwapPages: 2048, ClockBatch: 64, SwapBatch: 16}, simtime.NewMeter())
	p := proc.New(k, "bench", false)
	dev := rawio.NewDevice(k, 1<<20)
	buf, err := p.Malloc(16 * phys.PageSize)
	if err != nil {
		b.Fatal(err)
	}
	if err := buf.Touch(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Bytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dev.Write(p.AS(), buf.Addr, 0, buf.Bytes); err != nil {
			b.Fatal(err)
		}
	}
}

// sciBench builds a two-node SCI rig with an export/import pair.
func sciBench(b *testing.B, strategy core.Strategy) (*sci.Bridge, *sci.Export, *sci.Import, *proc.Buffer) {
	b.Helper()
	meter := simtime.NewMeter()
	cfg := mm.Config{RAMPages: 2048, SwapPages: 4096, ClockBatch: 64, SwapBatch: 16}
	kA := mm.NewKernel(cfg, meter)
	kB := mm.NewKernel(cfg, meter)
	fabric := sci.NewFabric()
	locker := core.MustNew(strategy)
	bA := sci.NewBridge(1, kA, locker, 0)
	bB := sci.NewBridge(2, kB, locker, 0)
	if err := fabric.Attach(bA); err != nil {
		b.Fatal(err)
	}
	if err := fabric.Attach(bB); err != nil {
		b.Fatal(err)
	}
	pA := proc.New(kA, "a", false)
	pB := proc.New(kB, "b", false)
	localBuf, err := pA.Malloc(16 * phys.PageSize)
	if err != nil {
		b.Fatal(err)
	}
	localExp, err := bA.Export(pA.AS(), localBuf.Addr, 16)
	if err != nil {
		b.Fatal(err)
	}
	remoteBuf, err := pB.Malloc(16 * phys.PageSize)
	if err != nil {
		b.Fatal(err)
	}
	remoteExp, err := bB.Export(pB.AS(), remoteBuf.Addr, 16)
	if err != nil {
		b.Fatal(err)
	}
	imp, err := bA.Import(2, remoteExp.SCIPage, 16)
	if err != nil {
		b.Fatal(err)
	}
	localExp.SetTag(1)
	imp.SetTag(1)
	return bA, localExp, imp, localBuf
}

// BenchmarkSCIPIOWrite measures remote programmed-IO stores.
func BenchmarkSCIPIOWrite(b *testing.B) {
	_, _, imp, _ := sciBench(b, core.StrategyKiobuf)
	payload := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := imp.Write(0, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSCIDMA measures the combined protected user-level DMA.
func BenchmarkSCIDMA(b *testing.B) {
	bridge, exp, imp, _ := sciBench(b, core.StrategyKiobuf)
	b.SetBytes(16 * phys.PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bridge.PostDMA(exp, 0, imp, 0, 16*phys.PageSize, sci.DMAWrite, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBigphysStaging measures the baseline bounce-copy send path.
func BenchmarkBigphysStaging(b *testing.B) {
	k := mm.NewKernel(mm.Config{RAMPages: 1024, SwapPages: 2048, ClockBatch: 64, SwapBatch: 16}, simtime.NewMeter())
	area, err := bigphys.Reserve(k, 64)
	if err != nil {
		b.Fatal(err)
	}
	block, err := area.Alloc(16)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 16*phys.PageSize)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := block.Write(0, payload); err != nil {
			b.Fatal(err)
		}
	}
}
