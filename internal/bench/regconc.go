package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/kagent"
	"repro/internal/mm"
	"repro/internal/phys"
	"repro/internal/proc"
	"repro/internal/regcache"
	"repro/internal/report"
	"repro/internal/simtime"
	"repro/internal/via"
	"repro/internal/vipl"
)

// RegConc measures the registration cache's concurrent fast path:
// sustained Acquire/Release throughput versus goroutine count over a
// mixed hit/miss workload (15/16 hits on a shared hot set, 1/16 misses
// cycling private buffers through a capped cache).  Unlike the other
// sweeps this one reports *real* wall-clock throughput — lock contention
// is a property of the implementation, not of the simulated hardware, so
// the virtual clock cannot see it.  It is the regression guard for the
// single-flight / O(1)-release fast path.
func RegConc(w io.Writer) error {
	const totalOps = 240_000
	s := report.Series{
		Title:  "E15: registration cache concurrency — Acquire/Release throughput vs goroutines",
		Note:   fmt.Sprintf("%d ops total, 1/16 miss ratio; wall-clock throughput (higher is better) and cache hit rate", totalOps),
		XLabel: "goroutines",
		Lines:  []string{"kops/s", "hit-rate %"},
		Wall:   []string{"kops/s"},
	}
	for _, workers := range []int{1, 2, 4, 8, 16} {
		kops, hitRate, err := regConcPoint(workers, totalOps/workers)
		if err != nil {
			return fmt.Errorf("regconc %d: %w", workers, err)
		}
		s.AddPoint(fmt.Sprintf("%d", workers), kops, hitRate)
	}
	s.Fprint(w)
	return nil
}

// regConcPoint runs workers×opsPerWorker mixed Acquire/Release pairs on
// one shared cache and returns (thousand ops per second wall-clock,
// cache hit rate %).
func regConcPoint(workers, opsPerWorker int) (float64, float64, error) {
	const (
		hotBufs     = 64
		privPerProc = 4
	)
	meter := simtime.NewMeter()
	k := mm.NewKernel(mm.Config{RAMPages: 16384, SwapPages: 32768, ClockBatch: 64, SwapBatch: 16}, meter)
	n := via.NewNIC("regconc", k.Phys(), meter, 16384)
	agent := kagent.New(k, n, core.MustNew(core.StrategyKiobuf))
	p := proc.New(k, "regconc", false)
	nic := vipl.OpenNic(agent, p)
	cache := regcache.New(nic, hotBufs+16)

	hot := make([]*proc.Buffer, hotBufs)
	for i := range hot {
		var err error
		if hot[i], err = p.Malloc(phys.PageSize); err != nil {
			return 0, 0, err
		}
	}
	private := make([][]*proc.Buffer, workers)
	for w := range private {
		private[w] = make([]*proc.Buffer, privPerProc)
		for i := range private[w] {
			var err error
			if private[w][i], err = p.Malloc(phys.PageSize); err != nil {
				return 0, 0, err
			}
		}
	}

	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				var b *proc.Buffer
				if i%16 == 15 {
					b = private[w][i%privPerProc]
				} else {
					b = hot[(i*7+w)%hotBufs]
				}
				reg, err := cache.Acquire(b, 0, b.Bytes, via.MemAttrs{}, regcache.ClassUser)
				if err != nil {
					errs[w] = err
					return
				}
				if err := cache.Release(reg); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}

	st := cache.Stats()
	total := st.Hits + st.Misses
	hitRate := 0.0
	if total > 0 {
		hitRate = 100 * float64(st.Hits) / float64(total)
	}
	ops := float64(workers * opsPerWorker)
	return ops / elapsed.Seconds() / 1000, hitRate, nil
}
