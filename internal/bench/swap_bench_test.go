package bench

import (
	"testing"

	"repro/internal/mm"
	"repro/internal/simtime"
	"repro/internal/vma"
)

// BenchmarkSwapDirtyCycle is the regression guard for the swap device's
// page hand-off: one op evicts 256 dirty pages (an aging pass, then the
// eviction pass) and write-faults them back, which is reg_swapcold's
// swap-out and major-fault path both ways.  Every evicted frame frees and
// every fault releases its slot, so no page image is copied and nothing is
// allocated.
func BenchmarkSwapDirtyCycle(b *testing.B) {
	const npages = 256
	meter := simtime.NewMeter()
	k := mm.NewKernel(mm.Config{RAMPages: 1024, SwapPages: 1024, ClockBatch: 128, SwapBatch: 32}, meter)
	as := k.CreateProcess("bench", false)
	addr, err := k.MMap(as, npages, vma.Read|vma.Write)
	if err != nil {
		b.Fatal(err)
	}
	if err := k.Touch(as, addr, npages); err != nil {
		b.Fatal(err)
	}
	simStart := meter.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.SwapOut(npages)
		if n := k.SwapOut(npages); n != npages {
			b.Fatalf("evicted %d of %d pages", n, npages)
		}
		if err := k.Touch(as, addr, npages); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric((meter.Now()-simStart).Micros()/float64(b.N), "sim-µs/op")
	}
}
