package bench

// E21: the collective scaling sweep.  One world per rank count, built
// the way a large MPI job should be on this stack: lazy endpoint
// pairing (log-structured collectives touch O(n log n) of the O(n²)
// pairs), one shared-CQ poller per rank (goroutines grow with ranks,
// not with VIs), RDMA-eager small messages, and a rank-wide shared
// registration cache (a buffer registered towards one peer is a hit
// towards the next — the MPICH2 premise the tentpole builds on).
//
// Reported per rank count, all on the virtual clock:
//   - barrier and 8-byte allreduce latency (the ~O(log n) headline),
//   - ring allreduce of a 32 KiB vector (bandwidth-optimal path;
//     capped at 256 ranks — 2(n-1) ring steps at 1024 ranks measure
//     patience, not the algorithm),
//   - binomial bcast of 64 KiB (the registration-reuse workload),
//   - the registration-cache hit rate across bcast iterations after
//     the first (the >90% acceptance target),
//   - completions drained through the muxes, total VIs, and live
//     goroutines (the O(ranks)-not-O(VIs) proof).

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/mm"
	"repro/internal/mpi"
	"repro/internal/msg"
	"repro/internal/proc"
	"repro/internal/report"
)

const (
	e21VecElems  = 4096      // 32 KiB of int64
	e21BcastSize = 64 * 1024 // one-copy sized: every send registers
	e21Iters     = 3         // timed iterations per operation
	e21RingCap   = 256       // largest world that runs the ring vector path
)

// E21 regenerates E21: the sweep with the log-step collectives, then
// with mpi.AlgoLinear, the ablation baseline.
func E21(w io.Writer) error {
	base := runtime.NumGoroutine()
	for _, algo := range []mpi.Algo{mpi.AlgoLog, mpi.AlgoLinear} {
		if err := collectiveScale(w, algo, base); err != nil {
			return err
		}
	}
	return nil
}

// collectiveScale prints the sweep for one collective family.  base is
// the caller's goroutine count: the goroutines column counts the world's
// goroutines above it, plus one for the caller, so the column reads the
// same in viabench as inside a test binary.
func collectiveScale(w io.Writer, algo mpi.Algo, base int) error {
	s := report.Table{
		Title: fmt.Sprintf("E21: collective scaling — %s algorithms over lazy pairing, shared-CQ muxes and RDMA-eager rings", algoName(algo)),
		Note: fmt.Sprintf("virtual µs of work per rank per operation (the clock is a shared total-work meter, DESIGN.md §9 — per-rank work is the latency proxy, O(log n) for the log family); %d timed iterations after warm-up; vec = %d int64 ring allreduce (ranks ≤ %d); bcast = %s binomial; hit%% = regcache rate after the first bcast",
			e21Iters, e21VecElems, e21RingCap, report.Bytes(e21BcastSize)),
		Headers: []string{"ranks", "pairs", "VIs", "goroutines",
			"barrier µs/rk", "allred-8B µs/rk", "vec-32KiB µs/rk", "bcast-64KiB µs/rk", "hit %", "drained"},
	}
	for _, ranks := range []int{16, 64, 256, 1024} {
		if err := collectivePoint(&s, ranks, algo, base); err != nil {
			return fmt.Errorf("e21 %d ranks: %w", ranks, err)
		}
	}
	s.Fprint(w)
	return nil
}

func algoName(a mpi.Algo) string {
	if a == mpi.AlgoLinear {
		return "linear (ablation)"
	}
	return "log-step"
}

// collectivePoint measures one rank count and appends its row.
func collectivePoint(s *report.Table, ranks int, algo mpi.Algo, base int) error {
	c := cluster.MustNew(cluster.Config{
		Nodes:    4,
		Strategy: core.StrategyKiobuf,
		Kernel: mm.Config{
			RAMPages:   8192 + ranks*64,
			SwapPages:  8192,
			ClockBatch: 128, SwapBatch: 32,
		},
		TPTSlots: 4096 + ranks*32,
	})
	w, err := mpi.NewWorldOpts(c, ranks, mpi.WorldOptions{
		Lazy:     true,
		SharedCQ: true,
		Algo:     algo,
		Endpoint: msg.Options{RDMAEager: true, RingSlots: 4, SlotBytes: 4096},
	})
	if err != nil {
		return err
	}
	defer w.Close()

	// Per-rank persistent buffers: reusing the same virtual addresses
	// across iterations is precisely what the shared cache rewards.
	vec := make([][]int64, ranks)
	bcast := make([]*proc.Buffer, ranks)
	for i := 0; i < ranks; i++ {
		vec[i] = make([]int64, e21VecElems)
		r, err := w.Rank(i)
		if err != nil {
			return err
		}
		if bcast[i], err = r.Process().Malloc(e21BcastSize); err != nil {
			return err
		}
		if err := bcast[i].Touch(); err != nil {
			return err
		}
	}

	// Warm-up: pairs the lazy endpoints and fills the caches.
	if err := eachRank(w, func(r *mpi.Rank) error { return r.Barrier() }); err != nil {
		return err
	}
	goroutines := settledGoroutines(base+ranks) - base + 1

	barrierUS, err := e21Time(c, w, e21Iters, func(r *mpi.Rank) error {
		return r.Barrier()
	})
	if err != nil {
		return err
	}

	if err := eachRank(w, func(r *mpi.Rank) error { // warm-up
		_, err := r.Allreduce(int64(r.ID()), mpi.OpSum)
		return err
	}); err != nil {
		return err
	}
	allredUS, err := e21Time(c, w, e21Iters, func(r *mpi.Rank) error {
		_, err := r.Allreduce(int64(r.ID()), mpi.OpSum)
		return err
	})
	if err != nil {
		return err
	}

	vecUS := 0.0
	if ranks <= e21RingCap {
		if err := eachRank(w, func(r *mpi.Rank) error { // warm-up
			_, err := r.AllreduceVec(vec[r.ID()], mpi.OpSum)
			return err
		}); err != nil {
			return err
		}
		if vecUS, err = e21Time(c, w, e21Iters, func(r *mpi.Rank) error {
			_, err := r.AllreduceVec(vec[r.ID()], mpi.OpSum)
			return err
		}); err != nil {
			return err
		}
	}

	if err := eachRank(w, func(r *mpi.Rank) error { // warm-up registers bcast bufs
		return r.Bcast(0, bcast[r.ID()])
	}); err != nil {
		return err
	}
	before := w.CacheStats()
	bcastUS, err := e21Time(c, w, e21Iters, func(r *mpi.Rank) error {
		return r.Bcast(0, bcast[r.ID()])
	})
	if err != nil {
		return err
	}
	after := w.CacheStats()
	hits := after.Hits - before.Hits
	misses := after.Misses - before.Misses
	hitPct := 0.0
	if hits+misses > 0 {
		hitPct = 100 * float64(hits) / float64(hits+misses)
	}

	mux := w.MuxStats()
	perRank := func(us float64) float64 { return us / float64(ranks) }
	s.AddRow(ranks, w.Pairs(), mux.VIs, goroutines,
		perRank(barrierUS), perRank(allredUS), perRank(vecUS), perRank(bcastUS),
		hitPct, mux.Drained)
	return nil
}

// settledGoroutines returns the goroutine count once it is at most
// want, or after leakcheck.DefaultTimeout.  The warm-up's rank
// goroutines and the last world's pollers signal done just before they
// exit, so a count read at once may still hold a few of them; a world
// that keeps more than want alive prints its real count.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(leakcheck.DefaultTimeout)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// e21Time runs iters collective iterations and returns the virtual
// microseconds per iteration.
func e21Time(c *cluster.Cluster, w *mpi.World, iters int, fn func(r *mpi.Rank) error) (float64, error) {
	start := c.Meter.Now()
	for i := 0; i < iters; i++ {
		if err := eachRank(w, fn); err != nil {
			return 0, err
		}
	}
	elapsed := c.Meter.Now() - start
	return elapsed.Micros() / float64(iters), nil
}
