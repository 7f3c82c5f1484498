package regcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kagent"
	"repro/internal/mm"
	"repro/internal/pgtable"
	"repro/internal/proc"
	"repro/internal/simtime"
	"repro/internal/via"
	"repro/internal/vipl"
)

// gatedLocker wraps another locker and blocks every Lock call until the
// gate closes, so tests can hold a registration in flight while other
// goroutines pile up on the cache.
type gatedLocker struct {
	inner   core.Locker
	gate    chan struct{}
	entered chan struct{} // receives one signal per Lock call
	fail    atomic.Bool   // when set, Lock returns an error after the gate
}

func (g *gatedLocker) Name() core.Strategy { return g.inner.Name() }

func (g *gatedLocker) Lock(k *mm.Kernel, as *mm.AddressSpace, addr pgtable.VAddr, length int) (*core.Lock, error) {
	g.entered <- struct{}{}
	<-g.gate
	if g.fail.Load() {
		return nil, fmt.Errorf("gatedLocker: forced failure")
	}
	return g.inner.Lock(k, as, addr, length)
}

// gatedRig builds a node whose kernel agent locks through a gatedLocker.
func gatedRig(t *testing.T, tptSlots int) (*rig, *gatedLocker) {
	t.Helper()
	meter := simtime.NewMeter()
	k := mm.NewKernel(mm.Config{RAMPages: 512, SwapPages: 1024, ClockBatch: 64, SwapBatch: 16}, meter)
	n := via.NewNIC("node", k.Phys(), meter, tptSlots)
	g := &gatedLocker{
		inner:   core.MustNew(core.StrategyKiobuf),
		gate:    make(chan struct{}),
		entered: make(chan struct{}, 64),
	}
	agent := kagent.New(k, n, g)
	p := proc.New(k, "app", false)
	return &rig{k: k, p: p, nic: vipl.OpenNic(agent, p)}, g
}

// TestSingleFlight: N concurrent misses on one key perform exactly one
// kernel registration; the other N−1 goroutines wait on the in-flight
// entry and share its region.
func TestSingleFlight(t *testing.T) {
	const workers = 8
	r, gate := gatedRig(t, 64)
	c := New(r.nic, 0)
	b := r.buf(t, 2)

	regions := make([]*vipl.MemRegion, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			regions[i], errs[i] = c.Acquire(b, 0, b.Bytes, via.MemAttrs{}, ClassUser)
		}(i)
	}
	// The leader is inside the (blocked) kernel call; give the followers
	// a moment to park on the in-flight entry, then open the gate.
	<-gate.entered
	time.Sleep(20 * time.Millisecond)
	close(gate.gate)
	wg.Wait()

	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if regions[i] != regions[0] {
			t.Fatalf("worker %d got a different region", i)
		}
	}
	if got := r.nic.Agent().Registrations(); got != 1 {
		t.Fatalf("%d kernel registrations, want exactly 1", got)
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (single flight)", st.Misses)
	}
	if st.Hits != workers-1 {
		t.Fatalf("hits = %d, want %d", st.Hits, workers-1)
	}
	for i := range regions {
		if err := c.Release(regions[i]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSingleFlightFailure: a failed in-flight registration propagates its
// error to every waiter and leaves no cache entry behind.
func TestSingleFlightFailure(t *testing.T) {
	const workers = 6
	r, gate := gatedRig(t, 64)
	gate.fail.Store(true)
	c := New(r.nic, 0)
	b := r.buf(t, 1)

	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Acquire(b, 0, b.Bytes, via.MemAttrs{}, ClassUser)
		}(i)
	}
	<-gate.entered
	time.Sleep(20 * time.Millisecond)
	close(gate.gate)
	// Late arrivals retry as new leaders; drain their gate entries too.
	go func() {
		for range gate.entered {
		}
	}()
	wg.Wait()
	close(gate.entered)

	for i := 0; i < workers; i++ {
		if errs[i] == nil {
			t.Fatalf("worker %d: registration succeeded despite forced failure", i)
		}
	}
	if got := c.Len(); got != 0 {
		t.Fatalf("len = %d after failed registration, want 0", got)
	}
	if got := r.nic.Agent().Registrations(); got != 0 {
		t.Fatalf("%d registrations leaked", got)
	}
	if st := c.Stats(); st.Failures == 0 {
		t.Fatalf("failures not counted: %+v", st)
	}
}

// TestFollowerWaitsOnFailingLeader: a follower parked on an in-flight
// miss (on the cache's settled condition) wakes when the leader fails,
// reads the leader's error, and only then is the placeholder recycled —
// the next miss reuses it, and succeeds once the kernel does.
func TestFollowerWaitsOnFailingLeader(t *testing.T) {
	r, gate := gatedRig(t, 64)
	c := New(r.nic, 0)
	b := r.buf(t, 1)
	acquire := func() chan error {
		done := make(chan error, 1)
		go func() {
			_, err := c.Acquire(b, 0, b.Bytes, via.MemAttrs{}, ClassUser)
			done <- err
		}()
		return done
	}
	leader := acquire()
	<-gate.entered
	follower := acquire()
	// Wait until the follower is parked on the leader's placeholder.
	for parked := false; !parked; {
		c.mu.Lock()
		for _, e := range c.entries {
			parked = e.inflight && e.waiters == 1
		}
		c.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	gate.fail.Store(true)
	close(gate.gate)
	lerr, ferr := <-leader, <-follower
	if lerr == nil || ferr == nil || lerr.Error() != ferr.Error() {
		t.Fatalf("leader err %v, follower err %v: want the leader's failure for both", lerr, ferr)
	}
	c.mu.Lock()
	spare, left := c.spare, len(c.entries)
	c.mu.Unlock()
	if spare == nil || left != 0 {
		t.Fatalf("placeholder not recycled after its last reader (spare %v, %d entries)", spare, left)
	}
	gate.fail.Store(false)
	go func() {
		for range gate.entered {
		}
	}()
	reg, err := c.Acquire(b, 0, b.Bytes, via.MemAttrs{}, ClassUser)
	close(gate.entered)
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	reused := c.entries[key{addr: b.Addr, length: b.Bytes}] == spare
	c.mu.Unlock()
	if !reused {
		t.Fatal("the next miss did not reuse the recycled entry")
	}
	if st := c.Stats(); st.Failures != 1 || st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats %+v: want 1 failure, 2 misses, no hit", st)
	}
	if err := c.Release(reg); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentStress hammers one cache from many goroutines over a
// small TPT with a mixed hit/miss workload, then checks that nothing was
// lost: every success had a matching release, the stats balance, and a
// final flush returns the node to its boot state.  Run under -race.
func TestConcurrentStress(t *testing.T) {
	const (
		workers = 8
		iters   = 300
		tpt     = 24
	)
	r := newRig(t, tpt)
	c := New(r.nic, 8)

	shared := make([]*proc.Buffer, 4)
	for i := range shared {
		shared[i] = r.buf(t, 1)
	}
	private := make([][]*proc.Buffer, workers)
	for w := range private {
		private[w] = []*proc.Buffer{r.buf(t, 1), r.buf(t, 1)}
	}

	var successes atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var b *proc.Buffer
				switch {
				case i%5 == 4:
					b = private[w][i%2]
				default:
					b = shared[(i+w)%len(shared)]
				}
				reg, err := c.Acquire(b, 0, b.Bytes, via.MemAttrs{}, ClassUser)
				if err != nil {
					// TPT exhaustion by in-use regions is legal under this
					// much concurrency; anything else is a bug.
					if !errors.Is(err, ErrBusy) {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					continue
				}
				successes.Add(1)
				if err := c.Release(reg); err != nil {
					t.Errorf("worker %d: release: %v", w, err)
					return
				}
				if w == 0 && i%64 == 63 {
					if _, err := c.Flush(); err != nil {
						t.Errorf("flush: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	st := c.Stats()
	if got := st.Hits + st.Misses - st.Failures; got != successes.Load() {
		t.Fatalf("stats don't balance: hits %d + misses %d - failures %d = %d, want %d successes",
			st.Hits, st.Misses, st.Failures, got, successes.Load())
	}
	if st.EvictErrors != 0 {
		t.Fatalf("evict errors: %+v", st)
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := c.Len(); got != 0 {
		t.Fatalf("len = %d after final flush", got)
	}
	if got := r.nic.Agent().Registrations(); got != 0 {
		t.Fatalf("%d kernel registrations leaked", got)
	}
	if free := r.nic.Agent().NIC().FreeTPTSlots(); free != tpt {
		t.Fatalf("TPT slots leaked: %d free of %d", free, tpt)
	}
}

// TestEvictErrorsCounted: a region deregistered behind the cache's back
// makes the eviction deregistration fail; the failure must land in
// Stats.EvictErrors instead of vanishing.
func TestEvictErrorsCounted(t *testing.T) {
	r := newRig(t, 64)
	c := New(r.nic, 1)
	b := r.buf(t, 1)
	reg, err := c.Acquire(b, 0, b.Bytes, via.MemAttrs{}, ClassUser)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage: deregister directly, bypassing the cache.
	if err := r.nic.DeregisterMem(reg); err != nil {
		t.Fatal(err)
	}
	if err := c.Release(reg); err != nil {
		t.Fatal(err)
	}
	// Cap is 1; a second acquire trims the sabotaged region and must
	// record the deregistration failure.
	b2 := r.buf(t, 1)
	reg2, err := c.Acquire(b2, 0, b2.Bytes, via.MemAttrs{}, ClassUser)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.EvictErrors != 1 {
		t.Fatalf("evict errors = %d, want 1 (%+v)", st.EvictErrors, st)
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	_ = c.Release(reg2)
}

// TestFlushReportsDeregErrors: Flush must surface a deregistration error
// and still count the eviction.
func TestFlushReportsDeregErrors(t *testing.T) {
	r := newRig(t, 64)
	c := New(r.nic, 0)
	b := r.buf(t, 1)
	reg, err := c.Acquire(b, 0, b.Bytes, via.MemAttrs{}, ClassUser)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.nic.DeregisterMem(reg); err != nil {
		t.Fatal(err)
	}
	if err := c.Release(reg); err != nil {
		t.Fatal(err)
	}
	dropped, err := c.Flush()
	if err == nil {
		t.Fatal("flush swallowed the deregistration error")
	}
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	if st := c.Stats(); st.EvictErrors != 1 {
		t.Fatalf("evict errors = %d, want 1", st.EvictErrors)
	}
}
