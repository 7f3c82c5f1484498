package regcache

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/kagent"
	"repro/internal/mm"
	"repro/internal/phys"
	"repro/internal/proc"
	"repro/internal/race"
	"repro/internal/simtime"
	"repro/internal/via"
	"repro/internal/vipl"
)

type rig struct {
	k   *mm.Kernel
	p   *proc.Process
	nic *vipl.Nic
}

// newRig builds a node whose NIC has room for tptSlots pages.
func newRig(t *testing.T, tptSlots int) *rig {
	t.Helper()
	meter := simtime.NewMeter()
	k := mm.NewKernel(mm.Config{RAMPages: 512, SwapPages: 1024, ClockBatch: 64, SwapBatch: 16}, meter)
	n := via.NewNIC("node", k.Phys(), meter, tptSlots)
	agent := kagent.New(k, n, core.MustNew(core.StrategyKiobuf))
	p := proc.New(k, "app", false)
	return &rig{k: k, p: p, nic: vipl.OpenNic(agent, p)}
}

func (r *rig) buf(t *testing.T, pages int) *proc.Buffer {
	t.Helper()
	b, err := r.p.Malloc(pages * phys.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMissThenHit(t *testing.T) {
	r := newRig(t, 64)
	c := New(r.nic, 0)
	b := r.buf(t, 2)
	reg1, err := c.Acquire(b, 0, b.Bytes, via.MemAttrs{}, ClassUser)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Release(reg1); err != nil {
		t.Fatal(err)
	}
	reg2, err := c.Acquire(b, 0, b.Bytes, via.MemAttrs{}, ClassUser)
	if err != nil {
		t.Fatal(err)
	}
	if reg1 != reg2 {
		t.Fatal("cache returned a different registration on hit")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats %+v", st)
	}
	_ = c.Release(reg2)
}

func TestDifferentRangesAreDifferentEntries(t *testing.T) {
	r := newRig(t, 64)
	c := New(r.nic, 0)
	b := r.buf(t, 4)
	rA, err := c.Acquire(b, 0, phys.PageSize, via.MemAttrs{}, ClassUser)
	if err != nil {
		t.Fatal(err)
	}
	rB, err := c.Acquire(b, phys.PageSize, phys.PageSize, via.MemAttrs{}, ClassUser)
	if err != nil {
		t.Fatal(err)
	}
	if rA == rB {
		t.Fatal("distinct ranges shared a registration")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	_ = c.Release(rA)
	_ = c.Release(rB)
}

func TestDifferentAttrsAreDifferentEntries(t *testing.T) {
	r := newRig(t, 64)
	c := New(r.nic, 0)
	b := r.buf(t, 1)
	rA, _ := c.Acquire(b, 0, b.Bytes, via.MemAttrs{}, ClassUser)
	rB, err := c.Acquire(b, 0, b.Bytes, via.MemAttrs{EnableRDMAWrite: true}, ClassUser)
	if err != nil {
		t.Fatal(err)
	}
	if rA == rB {
		t.Fatal("attrs ignored in cache key")
	}
	_ = c.Release(rA)
	_ = c.Release(rB)
}

func TestEvictionOnTPTFull(t *testing.T) {
	// TPT of 8 slots; cycle 6 distinct 2-page buffers: later Acquires
	// must evict idle earlier entries instead of failing.
	r := newRig(t, 8)
	c := New(r.nic, 0)
	for i := 0; i < 6; i++ {
		b := r.buf(t, 2)
		reg, err := c.Acquire(b, 0, b.Bytes, via.MemAttrs{}, ClassUser)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if err := c.Release(reg); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions despite tiny TPT: %+v", st)
	}
	if st.Failures != 0 {
		t.Fatalf("failures: %+v", st)
	}
}

func TestInUseRegionsNotEvicted(t *testing.T) {
	r := newRig(t, 4)
	c := New(r.nic, 0)
	b1 := r.buf(t, 4)
	reg1, err := c.Acquire(b1, 0, b1.Bytes, via.MemAttrs{}, ClassUser)
	if err != nil {
		t.Fatal(err)
	}
	// TPT is now full and reg1 is held: the next acquire must fail with
	// ErrBusy rather than evicting the active region.
	b2 := r.buf(t, 2)
	_, err = c.Acquire(b2, 0, b2.Bytes, via.MemAttrs{}, ClassUser)
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
	_ = c.Release(reg1)
}

func TestClassEvictionOrder(t *testing.T) {
	// With both a user and a library region idle, TPT pressure must
	// evict the user one first (CHEMPI's rule).
	r := newRig(t, 4)
	c := New(r.nic, 0)
	user := r.buf(t, 2)
	lib := r.buf(t, 2)
	uReg, err := c.Acquire(user, 0, user.Bytes, via.MemAttrs{}, ClassUser)
	if err != nil {
		t.Fatal(err)
	}
	lReg, err := c.Acquire(lib, 0, lib.Bytes, via.MemAttrs{}, ClassLibrary)
	if err != nil {
		t.Fatal(err)
	}
	_ = c.Release(uReg)
	_ = c.Release(lReg)
	// Force one eviction.
	nb := r.buf(t, 2)
	nReg, err := c.Acquire(nb, 0, nb.Bytes, via.MemAttrs{}, ClassUser)
	if err != nil {
		t.Fatal(err)
	}
	// The library region must still be cached: reacquiring it is a hit.
	before := c.Stats().Hits
	lReg2, err := c.Acquire(lib, 0, lib.Bytes, via.MemAttrs{}, ClassLibrary)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().Hits != before+1 {
		t.Fatal("library region was evicted before the user region")
	}
	_ = c.Release(nReg)
	_ = c.Release(lReg2)
}

func TestLRUWithinClass(t *testing.T) {
	r := newRig(t, 6)
	c := New(r.nic, 0)
	bufs := []*proc.Buffer{r.buf(t, 2), r.buf(t, 2), r.buf(t, 2)}
	regs := make([]*vipl.MemRegion, 3)
	var err error
	for i, b := range bufs {
		if regs[i], err = c.Acquire(b, 0, b.Bytes, via.MemAttrs{}, ClassUser); err != nil {
			t.Fatal(err)
		}
	}
	// Release in order 0,1,2 → 0 is least recently used.
	for i := range regs {
		if err := c.Release(regs[i]); err != nil {
			t.Fatal(err)
		}
	}
	// TPT is full (3×2 = 6 slots); a new acquire evicts exactly one: #0.
	nb := r.buf(t, 2)
	if _, err := c.Acquire(nb, 0, nb.Bytes, via.MemAttrs{}, ClassUser); err != nil {
		t.Fatal(err)
	}
	hitsBefore := c.Stats().Hits
	if _, err := c.Acquire(bufs[1], 0, bufs[1].Bytes, via.MemAttrs{}, ClassUser); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Acquire(bufs[2], 0, bufs[2].Bytes, via.MemAttrs{}, ClassUser); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Hits - hitsBefore; got != 2 {
		t.Fatalf("survivors gave %d hits, want 2 (LRU evicted the wrong entry)", got)
	}
}

func TestMaxRegionsTrim(t *testing.T) {
	r := newRig(t, 64)
	c := New(r.nic, 2)
	for i := 0; i < 5; i++ {
		b := r.buf(t, 1)
		reg, err := c.Acquire(b, 0, b.Bytes, via.MemAttrs{}, ClassUser)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Release(reg); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Len(); got > 2 {
		t.Fatalf("cache holds %d regions, cap 2", got)
	}
}

func TestFlush(t *testing.T) {
	r := newRig(t, 64)
	c := New(r.nic, 0)
	held, err := c.Acquire(r.buf(t, 1), 0, phys.PageSize, via.MemAttrs{}, ClassUser)
	if err != nil {
		t.Fatal(err)
	}
	idle, err := c.Acquire(r.buf(t, 1), 0, phys.PageSize, via.MemAttrs{}, ClassUser)
	if err != nil {
		t.Fatal(err)
	}
	_ = c.Release(idle)
	dropped, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatalf("flushed %d, want 1 (held region must stay)", dropped)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
	_ = c.Release(held)
}

func TestReleaseErrors(t *testing.T) {
	r := newRig(t, 64)
	c := New(r.nic, 0)
	b := r.buf(t, 1)
	reg, _ := c.Acquire(b, 0, b.Bytes, via.MemAttrs{}, ClassUser)
	if err := c.Release(reg); err != nil {
		t.Fatal(err)
	}
	if err := c.Release(reg); !errors.Is(err, ErrDoubleRelease) {
		t.Fatalf("double release: err = %v, want ErrDoubleRelease", err)
	}
	// A region the cache never saw.
	foreign, err := r.nic.RegisterMemRange(b, 0, b.Bytes, via.MemAttrs{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Release(foreign); !errors.Is(err, ErrUnknownRegion) {
		t.Fatalf("foreign region: err = %v, want ErrUnknownRegion", err)
	}
	// An evicted region is unknown too.
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.Release(reg); !errors.Is(err, ErrUnknownRegion) {
		t.Fatalf("evicted region: err = %v, want ErrUnknownRegion", err)
	}
}

func TestReuseUpgradesClass(t *testing.T) {
	r := newRig(t, 4)
	c := New(r.nic, 0)
	b := r.buf(t, 2)
	reg, _ := c.Acquire(b, 0, b.Bytes, via.MemAttrs{}, ClassUser)
	_ = c.Release(reg)
	// Reacquire as persistent: the entry is upgraded.
	reg2, _ := c.Acquire(b, 0, b.Bytes, via.MemAttrs{}, ClassPersistent)
	_ = c.Release(reg2)
	// Another user region fills the TPT; eviction must take it first
	// next time, leaving the upgraded entry alone.
	other := r.buf(t, 2)
	oReg, err := c.Acquire(other, 0, other.Bytes, via.MemAttrs{}, ClassUser)
	if err != nil {
		t.Fatal(err)
	}
	_ = c.Release(oReg)
	third := r.buf(t, 2)
	if _, err := c.Acquire(third, 0, third.Bytes, via.MemAttrs{}, ClassUser); err != nil {
		t.Fatal(err)
	}
	hits := c.Stats().Hits
	if _, err := c.Acquire(b, 0, b.Bytes, via.MemAttrs{}, ClassPersistent); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Hits != hits+1 {
		t.Fatal("upgraded entry was evicted before the user entry")
	}
}

func TestClassString(t *testing.T) {
	if ClassUser.String() != "user" || ClassPersistent.String() != "persistent" || ClassLibrary.String() != "library" {
		t.Fatal("class names wrong")
	}
}

// TestRegisterCycleAllocBudget pins the host-side allocations of one
// miss+evict cycle through the whole registration stack, and of the
// eviction's deregistration, at zero: cache entries are recycled, the
// kernel recycles the kiobuf's frame list, and the vipl region, the
// kernel agent's record (with its lock and kiobuf inside) and the TPT
// region and frames are carved from blocks of a few KiB, one allocation
// per dozens of cycles.  reg_swapcold pays this cycle 32 times per 1 MiB
// message.
func TestRegisterCycleAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("race-detector instrumentation allocates")
	}
	const budget = 0
	r := newRig(t, 64)
	c := New(r.nic, 1)
	bufs := []*proc.Buffer{r.buf(t, 16), r.buf(t, 16)}
	i := 0
	cycle := func() {
		b := bufs[i%2]
		i++
		reg, err := c.Acquire(b, 0, b.Bytes, via.MemAttrs{}, ClassUser)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Release(reg); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // fill the one-region cache, so every measured cycle evicts
	before := c.Stats()
	got := testing.AllocsPerRun(200, cycle)
	after := c.Stats()
	if n := after.Misses - before.Misses; n != 201 || after.Evictions-before.Evictions != n || after.Hits != before.Hits {
		t.Fatalf("cycles were not miss+evict: %+v -> %+v", before, after)
	}
	if got > budget {
		t.Fatalf("one miss+evict cycle allocates %v objects, budget %d", got, budget)
	}
	t.Logf("one miss+evict cycle: %v objects", got)
}
