package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mm"
	"repro/internal/msg"
	"repro/internal/race"
)

// worldOpts builds a world with explicit options on a fresh cluster.
func worldOpts(t *testing.T, nodes, ranks int, o WorldOptions) (*cluster.Cluster, *World) {
	t.Helper()
	c := cluster.MustNew(cluster.Config{
		Nodes:    nodes,
		Strategy: core.StrategyKiobuf,
		Kernel:   mm.Config{RAMPages: 4096, SwapPages: 8192, ClockBatch: 128, SwapBatch: 32},
		TPTSlots: 4096,
	})
	w, err := NewWorldOpts(c, ranks, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return c, w
}

// TestAllreduceNonPow2 drives the recursive-doubling fold/unfold across
// world sizes that are not powers of two.
func TestAllreduceNonPow2(t *testing.T) {
	for _, ranks := range []int{3, 5, 6, 7} {
		_, w := worldOpts(t, 2, ranks, WorldOptions{})
		want := int64(ranks * (ranks + 1) / 2)
		runRanks(t, w, func(r *Rank) error {
			got, err := r.Allreduce(int64(r.ID()+1), OpSum)
			if err != nil {
				return err
			}
			if got != want {
				t.Errorf("%d ranks: rank %d sum = %d, want %d", ranks, r.ID(), got, want)
			}
			mx, err := r.Allreduce(int64(r.ID()), OpMax)
			if err != nil {
				return err
			}
			if mx != int64(ranks-1) {
				t.Errorf("%d ranks: rank %d max = %d", ranks, r.ID(), mx)
			}
			return nil
		})
	}
}

// TestReduce checks the binomial reduce at several roots.
func TestReduce(t *testing.T) {
	const ranks = 5
	_, w := worldOpts(t, 2, ranks, WorldOptions{})
	for _, root := range []int{0, 2, ranks - 1} {
		root := root
		runRanks(t, w, func(r *Rank) error {
			got, err := r.Reduce(root, int64(r.ID()+1), OpSum)
			if err != nil {
				return err
			}
			if r.ID() == root && got != 15 {
				t.Errorf("root %d: sum = %d, want 15", root, got)
			}
			return nil
		})
	}
}

// TestAllreduceVec covers both vector paths: short vectors take
// recursive doubling, long ones the ring reduce-scatter + allgather.
func TestAllreduceVec(t *testing.T) {
	for _, tc := range []struct {
		ranks, length int
	}{
		{4, 3},  // RD path (length < 2*ranks)
		{4, 64}, // ring path, power-of-two world
		{5, 40}, // ring path, non-power-of-two world
		{2, 17}, // ring with a two-rank ring (mirrored partner)
	} {
		_, w := worldOpts(t, 2, tc.ranks, WorldOptions{})
		runRanks(t, w, func(r *Rank) error {
			vals := make([]int64, tc.length)
			for i := range vals {
				vals[i] = int64(r.ID()*1000 + i)
			}
			got, err := r.AllreduceVec(vals, OpSum)
			if err != nil {
				return err
			}
			for i, v := range got {
				want := int64(0)
				for id := 0; id < tc.ranks; id++ {
					want += int64(id*1000 + i)
				}
				if v != want {
					t.Errorf("%d ranks len %d: elem %d = %d, want %d",
						tc.ranks, tc.length, i, v, want)
					break
				}
			}
			return nil
		})
	}
}

// TestAllreduceVecMax checks a non-sum operator through the ring.
func TestAllreduceVecMax(t *testing.T) {
	const ranks, length = 4, 32
	_, w := worldOpts(t, 2, ranks, WorldOptions{})
	runRanks(t, w, func(r *Rank) error {
		vals := make([]int64, length)
		for i := range vals {
			vals[i] = int64((r.ID()*7 + i) % 13)
		}
		got, err := r.AllreduceVec(vals, OpMax)
		if err != nil {
			return err
		}
		for i, v := range got {
			want := int64(0)
			for id := 0; id < ranks; id++ {
				if x := int64((id*7 + i) % 13); x > want {
					want = x
				}
			}
			if v != want {
				t.Errorf("elem %d = %d, want %d", i, v, want)
				break
			}
		}
		return nil
	})
}

// TestLinearAblation runs the collectives under AlgoLinear and checks
// they agree with the log-structured defaults.
func TestLinearAblation(t *testing.T) {
	const ranks = 5
	_, w := worldOpts(t, 2, ranks, WorldOptions{Algo: AlgoLinear})
	runRanks(t, w, func(r *Rank) error {
		if err := r.Barrier(); err != nil {
			return err
		}
		sum, err := r.Allreduce(int64(r.ID()+1), OpSum)
		if err != nil {
			return err
		}
		if sum != 15 {
			t.Errorf("linear allreduce = %d, want 15", sum)
		}
		buf, err := r.Process().Malloc(4096)
		if err != nil {
			return err
		}
		if r.ID() == 2 {
			if err := buf.FillPattern(77); err != nil {
				return err
			}
		}
		if err := r.Bcast(2, buf); err != nil {
			return err
		}
		bad, err := buf.VerifyPattern(77)
		if err != nil {
			return err
		}
		if len(bad) != 0 {
			t.Errorf("rank %d: linear bcast corrupted", r.ID())
		}
		vec, err := r.AllreduceVec([]int64{int64(r.ID()), 1}, OpSum)
		if err != nil {
			return err
		}
		if vec[0] != 0+1+2+3+4 || vec[1] != ranks {
			t.Errorf("linear vec allreduce = %v", vec)
		}
		red, err := r.Reduce(0, 2, OpSum)
		if err != nil {
			return err
		}
		if r.ID() == 0 && red != 2*ranks {
			t.Errorf("linear reduce = %d", red)
		}
		return nil
	})
}

// TestLazyWorld checks deferred pairing: a fresh lazy world has no
// endpoint pairs, the log collectives touch only O(n log n) of them,
// and the results are still right.
func TestLazyWorld(t *testing.T) {
	const ranks = 8
	_, w := worldOpts(t, 2, ranks, WorldOptions{Lazy: true})
	if got := w.Pairs(); got != 0 {
		t.Fatalf("lazy world born with %d pairs", got)
	}
	runRanks(t, w, func(r *Rank) error {
		got, err := r.Allreduce(int64(r.ID()), OpSum)
		if err != nil {
			return err
		}
		if got != 28 {
			t.Errorf("rank %d: sum = %d", r.ID(), got)
		}
		return nil
	})
	all := ranks * (ranks - 1) / 2
	if got := w.Pairs(); got == 0 || got >= all {
		t.Fatalf("lazy world paired %d of %d (want 0 < pairs < all)", got, all)
	}
}

// TestSharedCQWorld is the scaling contract at the world level: one
// poller goroutine per rank (not per VI), completions multiplexed
// through the rank muxes, and Close tears the pollers down.
func TestSharedCQWorld(t *testing.T) {
	const ranks = 6
	before := runtime.NumGoroutine()
	c, w := worldOpts(t, 2, ranks, WorldOptions{SharedCQ: true})
	_ = c
	if got := runtime.NumGoroutine(); got > before+ranks+2 {
		t.Fatalf("world spawned %d goroutines for %d ranks", got-before, ranks)
	}
	runRanks(t, w, func(r *Rank) error {
		if err := r.Barrier(); err != nil {
			return err
		}
		_, err := r.Allreduce(1, OpSum)
		return err
	})
	if st := w.MuxStats(); st.Drained == 0 || st.VIs == 0 {
		t.Fatalf("muxes idle: %+v", st)
	}
	w.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines leaked after Close", got-before)
	}
}

// TestEngineBackedWorld drives collectives over NICs running the
// asynchronous engine and checks the headers and scalar cells still go
// inline while every answer stays exact.
func TestEngineBackedWorld(t *testing.T) {
	const ranks = 6
	c, w := worldOpts(t, 2, ranks, WorldOptions{})
	for _, node := range c.Nodes {
		node.NIC.StartEngineLanes(2)
		t.Cleanup(node.NIC.StopEngine)
	}
	want := int64(ranks * (ranks - 1) / 2)
	runRanks(t, w, func(r *Rank) error {
		for iter := 0; iter < 4; iter++ {
			if err := r.Barrier(); err != nil {
				return err
			}
			got, err := r.Allreduce(int64(r.ID()), OpSum)
			if err != nil {
				return err
			}
			if got != want {
				t.Errorf("rank %d iter %d: sum = %d, want %d", r.ID(), iter, got, want)
			}
		}
		vec, err := r.AllreduceVec(make([]int64, 48), OpSum)
		if err != nil {
			return err
		}
		if len(vec) != 48 {
			t.Errorf("vec len %d", len(vec))
		}
		return nil
	})
	var inline uint64
	for _, node := range c.Nodes {
		inline += node.NIC.Stats().InlineSends
	}
	if inline == 0 {
		t.Fatal("engine-backed world sent nothing inline")
	}
}

// TestWorldRDMAEager runs collectives over endpoints in RDMA-eager mode
// with a shrunken ring, lazily paired and mux-polled — the full E21
// configuration at test scale.
func TestWorldRDMAEager(t *testing.T) {
	const ranks = 5
	_, w := worldOpts(t, 2, ranks, WorldOptions{
		Lazy:     true,
		SharedCQ: true,
		Endpoint: msg.Options{RDMAEager: true, RingSlots: 4, SlotBytes: 4096},
	})
	runRanks(t, w, func(r *Rank) error {
		if err := r.Barrier(); err != nil {
			return err
		}
		sum, err := r.Allreduce(int64(r.ID()+1), OpSum)
		if err != nil {
			return err
		}
		if sum != 15 {
			t.Errorf("sum = %d", sum)
		}
		vec, err := r.AllreduceVec(make([]int64, 64), OpSum)
		if err != nil {
			return err
		}
		if len(vec) != 64 {
			t.Errorf("vec len %d", len(vec))
		}
		return nil
	})
}

// TestCollectiveCacheReuse checks the rank-wide shared cache pays off:
// repeated vector allreduces over the same buffers hit the cache after
// the first iteration.  (Eager-sized cells bypass registration, so use
// payloads above the eager threshold via a tiny EagerMax.)
func TestCollectiveCacheReuse(t *testing.T) {
	const ranks = 4
	_, w := worldOpts(t, 2, ranks, WorldOptions{
		Endpoint: msg.Options{EagerMax: 64},
	})
	runRanks(t, w, func(r *Rank) error {
		vals := make([]int64, 256)
		for iter := 0; iter < 4; iter++ {
			if _, err := r.AllreduceVec(vals, OpSum); err != nil {
				return err
			}
		}
		return nil
	})
	st := w.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("no registration reuse across collectives: %+v", st)
	}
}

// TestCollectiveAbort partitions the fabric and checks the abort
// protocol: every rank's collective returns a clean
// ErrCollectiveAborted — none of them hangs.  RecvTimeout bounds the
// receives of ranks whose partner died before announcing anything (the
// reliability timeouts only cover transfers already in flight).
func TestCollectiveAbort(t *testing.T) {
	const ranks = 4
	c, w := worldOpts(t, 2, ranks, WorldOptions{
		Endpoint: msg.Options{RecvTimeout: 500 * time.Millisecond},
		Reliability: &msg.ReliabilityConfig{
			MaxRetries:       2,
			BackoffBase:      50 * time.Microsecond,
			HandshakeTimeout: 250 * time.Millisecond,
		},
	})
	// Warm-up: a healthy collective first.
	runRanks(t, w, func(r *Rank) error {
		_, err := r.Allreduce(1, OpSum)
		return err
	})
	c.Network.SetLinkDown(c.Nodes[0].Name, c.Nodes[1].Name)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for i := 0; i < ranks; i++ {
		r, err := w.Rank(i)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, r *Rank) {
			defer wg.Done()
			_, errs[i] = r.Allreduce(int64(i), OpSum)
		}(i, r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("collective hung after partition")
	}
	for i, err := range errs {
		if err == nil {
			t.Errorf("rank %d: partitioned allreduce succeeded", i)
			continue
		}
		if !errors.Is(err, ErrCollectiveAborted) {
			t.Errorf("rank %d: err = %v, want ErrCollectiveAborted", i, err)
		}
	}
}

// TestAllreduceAllocBudget pins the host-side cost of the log-step
// allreduce on the E21 world shape: once endpoints are paired and
// scratch pools are warm, a 16-rank recursive-doubling allreduce (4
// rounds, 64 messages) allocates at most one object per message sent.
// The steady state measures 0; the budget leaves room for the waits
// that really block and so pay for a channel.
func TestAllreduceAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("race-detector instrumentation allocates")
	}
	const ranks, messages = 16, 16 * 4
	_, w := worldOpts(t, 4, ranks, WorldOptions{
		Lazy:     true,
		SharedCQ: true,
		Endpoint: msg.Options{RDMAEager: true, RingSlots: 4, SlotBytes: 4096},
	})
	// Persistent rank goroutines, one allreduce per token.
	start := make([]chan struct{}, ranks)
	done := make(chan error, ranks)
	for i := range start {
		r, err := w.Rank(i)
		if err != nil {
			t.Fatal(err)
		}
		start[i] = make(chan struct{})
		go func(r *Rank, start <-chan struct{}) {
			for range start {
				v, err := r.Allreduce(int64(r.ID()), OpSum)
				if err == nil && v != ranks*(ranks-1)/2 {
					err = fmt.Errorf("rank %d: sum %d", r.ID(), v)
				}
				done <- err
			}
		}(r, start[i])
	}
	t.Cleanup(func() {
		for _, c := range start {
			close(c)
		}
	})
	allreduce := func() {
		for _, c := range start {
			c <- struct{}{}
		}
		for range start {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 4; i++ { // warm: lazy pairing, scratch pools, descriptors
		allreduce()
	}
	if got := testing.AllocsPerRun(50, allreduce); got > messages {
		t.Fatalf("warmed %d-rank allreduce allocates %v objects, budget %d (one per message)", ranks, got, messages)
	} else {
		t.Logf("warmed %d-rank allreduce: %v objects per op", ranks, got)
	}
}
