package bench

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mm"
	"repro/internal/mpi"
	"repro/internal/msg"
)

// BenchmarkCollectives is the regression guard for the log-structured
// collectives over the E21 world shape (lazy pairing, shared-CQ muxes,
// RDMA-eager rings): one op is a full 16-rank 8-byte allreduce, warm
// caches.  It reports the virtual cost alongside ns/op so a change to
// the simulated protocol shape is caught independently of Go-level
// performance.
func BenchmarkCollectives(b *testing.B) {
	const ranks = 16
	c := cluster.MustNew(cluster.Config{
		Nodes:    4,
		Strategy: core.StrategyKiobuf,
		Kernel:   mm.Config{RAMPages: 16384, SwapPages: 8192, ClockBatch: 128, SwapBatch: 32},
		TPTSlots: 8192,
	})
	w, err := mpi.NewWorldOpts(c, ranks, mpi.WorldOptions{
		Lazy:     true,
		SharedCQ: true,
		Endpoint: msg.Options{RDMAEager: true, RingSlots: 4, SlotBytes: 4096},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	allreduce := func() error {
		return eachRank(w, func(r *mpi.Rank) error {
			_, err := r.Allreduce(int64(r.ID()), mpi.OpSum)
			return err
		})
	}
	if err := allreduce(); err != nil { // warm-up pairs the endpoints
		b.Fatal(err)
	}
	simStart := c.Meter.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := allreduce(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	sim := c.Meter.Now() - simStart
	b.ReportMetric(sim.Micros()/float64(b.N), "sim-µs/op")
}
