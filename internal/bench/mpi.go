package bench

// E14: the MPI layer measured the way the companion article "Comparing
// MPI Performance of SCI and VIA" does — a NetPIPE-style ping-pong sweep
// plus a miniature of the NAS IS kernel, a bucket sort whose
// communication is dominated by allreduce and a large alltoall, with
// the payload verified after the exchange.

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mm"
	"repro/internal/mpi"
	"repro/internal/proc"
	"repro/internal/report"
	"repro/internal/simtime"
)

// MPI regenerates E14 and IS-mini on four ranks over two nodes.
func MPI(w io.Writer) error {
	c := cluster.MustNew(cluster.Config{
		Nodes:    2,
		Strategy: core.StrategyKiobuf,
		Kernel:   mm.Config{RAMPages: 16384, SwapPages: 16384, ClockBatch: 128, SwapBatch: 32},
		TPTSlots: 8192,
	})
	world, err := mpi.NewWorld(c, 4, 0)
	if err != nil {
		return err
	}
	if err := mpiPingPong(w, c, world); err != nil {
		return fmt.Errorf("pingpong: %w", err)
	}
	return mpiIntSort(w, c, world)
}

// eachRank drives fn on every rank concurrently and returns the lowest
// rank's error.
func eachRank(w *mpi.World, fn func(r *mpi.Rank) error) error {
	var wg sync.WaitGroup
	errs := make([]error, w.Size())
	for i := 0; i < w.Size(); i++ {
		r, err := w.Rank(i)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(i int, r *mpi.Rank) {
			defer wg.Done()
			errs[i] = fn(r)
		}(i, r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// mpiPingPong prints E14: MPI-level latency/bandwidth between ranks 0
// and 1 (other ranks idle at barriers), warm caches.
func mpiPingPong(out io.Writer, c *cluster.Cluster, w *mpi.World) error {
	s := report.Series{
		Title:  "E14: MPI ping-pong between ranks 0 and 1 (half round trip)",
		Note:   "the companion article's methodology (NetPIPE over MPI); warm registration caches",
		XLabel: "size",
		Lines:  []string{"latency µs", "bandwidth MB/s"},
	}
	for _, size := range []int{64, 1024, 8 << 10, 64 << 10, 512 << 10} {
		// One warm-up round trip fills the registration caches.
		if _, err := mpiRanks01(c, w, size, 1, 0, true); err != nil {
			return err
		}
		const rounds = 4
		elapsed, err := mpiRanks01(c, w, size, rounds, 99, false)
		if err != nil {
			return err
		}
		oneWay := float64(elapsed) / float64(2*rounds)
		s.AddPoint(report.Bytes(size), oneWay/float64(simtime.Microsecond),
			float64(size)/(oneWay/float64(simtime.Second))/1e6)
	}
	s.Fprint(out)
	return nil
}

// mpiRanks01 runs rounds round trips of a fresh size-byte buffer between
// ranks 0 and 1 under tag, the other ranks waiting at the closing
// barrier (after allocating a buffer of their own if allAlloc), and
// returns the virtual time rank 0 spent in the round trips.
func mpiRanks01(c *cluster.Cluster, w *mpi.World, size, rounds, tag int, allAlloc bool) (simtime.Duration, error) {
	var elapsed simtime.Duration
	err := eachRank(w, func(r *mpi.Rank) error {
		if r.ID() > 1 && !allAlloc {
			return r.Barrier()
		}
		buf, err := r.Process().Malloc(size)
		if err != nil {
			return err
		}
		if err := buf.Touch(); err != nil {
			return err
		}
		start := c.Meter.Now()
		for i := 0; i < rounds && r.ID() <= 1; i++ {
			if r.ID() == 0 {
				err = r.Send(1, tag, buf)
				if err == nil {
					_, err = r.Recv(1, tag, buf)
				}
			} else {
				_, err = r.Recv(0, tag, buf)
				if err == nil {
					err = r.Send(0, tag, buf)
				}
			}
			if err != nil {
				return err
			}
		}
		if r.ID() == 0 {
			elapsed = c.Meter.Now() - start
		}
		return r.Barrier()
	})
	return elapsed, err
}

// mpiIntSort is the IS miniature: each rank generates keys, the ranks
// agree on bucket boundaries via allreduce (max key), exchange keys with
// one alltoall, locally sort their bucket, and verify global order and
// key conservation with a final allreduce.
func mpiIntSort(out io.Writer, c *cluster.Cluster, w *mpi.World) error {
	const keysPerRank = 8192
	n := w.Size()
	start := c.Meter.Now()
	var verified bool
	err := eachRank(w, func(r *mpi.Rank) error {
		// Deterministic per-rank keys.
		keys := make([]uint32, keysPerRank)
		seed := uint32(r.ID())*2654435761 + 12345
		var localMax int64
		for i := range keys {
			seed = seed*1664525 + 1013904223
			keys[i] = seed % (1 << 20)
			localMax = max(localMax, int64(keys[i]))
		}
		// Agree on the key range.
		globalMax, err := r.Allreduce(localMax, mpi.OpMax)
		if err != nil {
			return err
		}
		bucketWidth := (globalMax + int64(n)) / int64(n)

		// Partition keys into per-destination blocks.
		blocks := make([][]uint32, n)
		for _, k := range keys {
			d := min(int(int64(k)/bucketWidth), n-1)
			blocks[d] = append(blocks[d], k)
		}
		// Serialize blocks into fixed-size buffers: count + keys.
		blockBytes := 4 + 4*keysPerRank
		sendBufs := make([]*proc.Buffer, n)
		recvBufs := make([]*proc.Buffer, n)
		for j := 0; j < n; j++ {
			if sendBufs[j], err = r.Process().Malloc(blockBytes); err != nil {
				return err
			}
			if recvBufs[j], err = r.Process().Malloc(blockBytes); err != nil {
				return err
			}
			payload := make([]byte, 4+4*len(blocks[j]))
			binary.LittleEndian.PutUint32(payload, uint32(len(blocks[j])))
			for i, k := range blocks[j] {
				binary.LittleEndian.PutUint32(payload[4+4*i:], k)
			}
			if err := sendBufs[j].Write(0, payload); err != nil {
				return err
			}
		}
		if err := r.Alltoall(sendBufs, recvBufs); err != nil {
			return err
		}
		// Collect and sort the local bucket.
		var bucket []uint32
		for j := 0; j < n; j++ {
			var cnt [4]byte
			if err := recvBufs[j].Read(0, cnt[:]); err != nil {
				return err
			}
			raw := make([]byte, 4*binary.LittleEndian.Uint32(cnt[:]))
			if err := recvBufs[j].Read(4, raw); err != nil {
				return err
			}
			for i := 0; i < len(raw); i += 4 {
				bucket = append(bucket, binary.LittleEndian.Uint32(raw[i:]))
			}
		}
		sort.Slice(bucket, func(i, j int) bool { return bucket[i] < bucket[j] })
		// Verify bucket range and total count conservation.
		for _, k := range bucket {
			if min(int(int64(k)/bucketWidth), n-1) != r.ID() {
				return fmt.Errorf("rank %d: key %d outside bucket", r.ID(), k)
			}
		}
		total, err := r.Allreduce(int64(len(bucket)), mpi.OpSum)
		if err != nil {
			return err
		}
		if total != int64(n*keysPerRank) {
			return fmt.Errorf("rank %d: %d keys after exchange, want %d", r.ID(), total, n*keysPerRank)
		}
		if r.ID() == 0 {
			verified = true
		}
		return nil
	})
	if err != nil {
		return err
	}
	elapsed := c.Meter.Now() - start
	totalKeys := n * keysPerRank
	t := report.Table{
		Title:   "IS-mini: distributed bucket sort (NAS IS communication pattern)",
		Note:    "allreduce (key range) + alltoall (key exchange) + allreduce (verification), as in the companion's IS analysis",
		Headers: []string{"ranks", "keys", "verified", "sim time", "Mkeys/s"},
	}
	t.AddRow(n, totalKeys, report.Bool(verified), elapsed.String(),
		float64(totalKeys)/(float64(elapsed)/float64(simtime.Second))/1e6)
	t.Fprint(out)
	return nil
}
