package phys_test

import (
	"runtime"
	"testing"

	"repro/internal/phys"
	"repro/internal/race"
	"repro/internal/swapdev"
)

// heapBytes reports how many bytes of Go heap f allocates.
func heapBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestNewMemoryAllocBudget pins the host memory that simulated RAM and
// swap cost: a 256 MiB memory or swap device costs its page map and free
// list at creation, under 2 MiB, not its pages; and allocating and
// writing k frames, or swapping k of them out, materializes at most
// ⌈k/64⌉+1 chunks of 256 KiB.
func TestNewMemoryAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("race-detector instrumentation allocates")
	}
	const (
		frames    = 1 << 16
		newBudget = 2 << 20
		chunk     = 64 * phys.PageSize
		k         = 100
	)
	var m *phys.Memory
	var d *swapdev.Device
	got := heapBytes(func() { m = phys.New(frames) })
	if got >= newBudget {
		t.Errorf("phys.New(%d) allocates %d bytes, budget %d", frames, got, newBudget)
	}
	t.Logf("phys.New(%d): %d bytes", frames, got)
	got = heapBytes(func() { d = swapdev.New(frames) })
	if got >= newBudget {
		t.Errorf("swapdev.New(%d) allocates %d bytes, budget %d", frames, got, newBudget)
	}
	t.Logf("swapdev.New(%d): %d bytes", frames, got)
	budget := uint64((k+63)/64+1) * chunk
	pfns := make([]phys.PFN, k)
	img := []byte("an image")
	got = heapBytes(func() {
		for i := range pfns {
			pfn, err := m.AllocFrame()
			if err != nil {
				t.Fatal(err)
			}
			if err := m.WritePhys(pfn.Addr(), img); err != nil {
				t.Fatal(err)
			}
			pfns[i] = pfn
		}
	})
	if got > budget {
		t.Errorf("allocating and writing %d frames allocates %d bytes, budget %d", k, got, budget)
	}
	t.Logf("allocating and writing %d frames: %d bytes", k, got)
	got = heapBytes(func() {
		for _, pfn := range pfns {
			s, err := d.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Store(s, m, pfn); err != nil {
				t.Fatal(err)
			}
		}
	})
	if got > budget {
		t.Errorf("swapping out %d frames allocates %d bytes, budget %d", k, got, budget)
	}
	t.Logf("swapping out %d frames: %d bytes", k, got)
}
