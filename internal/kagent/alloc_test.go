package kagent

import (
	"testing"

	"repro/internal/core"
	"repro/internal/phys"
	"repro/internal/race"
	"repro/internal/via"
)

// TestRegisterMemZeroAllocs pins the kernel agent's register/deregister
// cycle (BenchmarkRegisterPinned's loop): the record is carved, the lock
// and kiobuf live inside it, the frame list is recycled by the kernel
// and the TPT region and frames are carved, so in steady state the
// cycle allocates nothing.
func TestRegisterMemZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race-detector instrumentation allocates")
	}
	r := newRig(t, core.StrategyKiobuf)
	const npages = 8
	addr := r.buf(t, npages)
	got := testing.AllocsPerRun(200, func() {
		reg, err := r.agent.RegisterMem(r.as, addr, npages*phys.PageSize, testTag, via.MemAttrs{})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.agent.DeregisterMem(reg); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("one register/deregister cycle allocates %v objects, want 0", got)
	}
}
