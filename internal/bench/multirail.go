package bench

// E22: the multi-rail scaling figure, in three parts.
//
//   - E22a sweeps striped bandwidth over rail counts 1/2/4: the same
//     logical payload, chunk-interleaved over N per-rail endpoint
//     pairs, on the virtual clock (rails are parallel engines — the
//     stripe rewinds all but the slowest rail's cost per send, the
//     PR-5 overlap discipline).  The headline is the speedup column.
//   - E22b measures connection-setup rate at 10k VIs, wall-clock: the
//     full dial path through a bounded-backlog listener with sharded
//     accepts (ErrBacklogFull refusals retried, abandoned dials
//     pruned), and the per-peer VIPool reuse path beside it.
//   - E22c measures failover recovery with 10k idle VIs on the same
//     fabric: the virtual cost of a striped transfer that loses a rail
//     mid-send versus the healthy baseline, and the cost of the
//     explicit ResetRailPair rejoin.

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mm"
	"repro/internal/msg"
	"repro/internal/report"
	"repro/internal/via"
)

const (
	multirailChunk = 16 * 1024
	multirailXfer  = 32 * multirailChunk // 512 KiB logical payload
	multirailSends = 8                   // timed transfers per point
	multirailVIs   = 10_000              // E22b/E22c scale target
)

// Multirail regenerates E22.
func Multirail(w io.Writer) error {
	if err := multirailBandwidth(w); err != nil {
		return err
	}
	if err := multirailSetup(w); err != nil {
		return err
	}
	return multirailFailover(w)
}

// multirailCluster builds the two-node fabric for one point.
func multirailCluster(rails int) *cluster.Cluster {
	return cluster.MustNew(cluster.Config{
		Nodes:    2,
		Rails:    rails,
		Strategy: core.StrategyKiobuf,
		Kernel:   mm.Config{RAMPages: 4096, SwapPages: 8192, ClockBatch: 128, SwapBatch: 32},
		TPTSlots: 2048,
	})
}

// multirailBandwidth is E22a: aggregate striped bandwidth vs rail count.
func multirailBandwidth(w io.Writer) error {
	t := report.Table{
		Title: "E22a: striped bandwidth vs rail count — chunk interleave over per-rail endpoint pairs",
		Note: fmt.Sprintf("%s transfers in %s chunks, %d timed sends on the virtual clock; skew = max per-rail deviation from an even byte split",
			report.Bytes(multirailXfer), report.Bytes(multirailChunk), multirailSends),
		Headers: []string{"rails", "sim-µs/xfer", "agg-MB/s", "speedup", "skew %"},
	}
	var base float64
	for _, rails := range []int{1, 2, 4} {
		us, skew, err := multirailBandwidthPoint(rails)
		if err != nil {
			return fmt.Errorf("multirail bandwidth %d: %w", rails, err)
		}
		mbs := float64(multirailXfer) / us // bytes per sim-µs == MB/s
		if rails == 1 {
			base = us
		}
		t.AddRow(rails, fmt.Sprintf("%.1f", us), fmt.Sprintf("%.0f", mbs),
			fmt.Sprintf("%.2fx", base/us), fmt.Sprintf("%.1f", skew))
	}
	t.Fprint(w)
	return nil
}

func multirailBandwidthPoint(rails int) (usPerXfer, skewPct float64, err error) {
	c := multirailCluster(rails)
	tx, rx, err := c.StripedPair(0, 1, rails, 0, msg.StripeOptions{
		Chunk:       multirailChunk,
		RecvTimeout: 10 * time.Second,
	})
	if err != nil {
		return 0, 0, err
	}
	defer rx.Close()
	pa := c.Nodes[0].NewProcess("bw-a", false)
	pb := c.Nodes[1].NewProcess("bw-b", false)
	src, err := pa.Malloc(multirailXfer)
	if err != nil {
		return 0, 0, err
	}
	dst, err := pb.Malloc(multirailXfer)
	if err != nil {
		return 0, 0, err
	}
	// Warm-up transfer, then the timed batch.
	if lerr, ferr := chaosStripeSend(tx, rx, src, dst, 1); lerr != nil || ferr != nil {
		return 0, 0, errors.Join(lerr, ferr)
	}
	sw := c.Meter.Start()
	for i := 0; i < multirailSends; i++ {
		if lerr, ferr := chaosStripeSend(tx, rx, src, dst, byte(i+2)); lerr != nil || ferr != nil {
			return 0, 0, errors.Join(lerr, ferr)
		}
	}
	elapsed := sw.Elapsed()
	st := tx.Stats()
	var total uint64
	for _, b := range st.RailBytes {
		total += b
	}
	even := float64(total) / float64(rails)
	for _, b := range st.RailBytes {
		d := float64(b) - even
		if d < 0 {
			d = -d
		}
		if pct := d / even * 100; pct > skewPct {
			skewPct = pct
		}
	}
	return elapsed.Micros() / multirailSends, skewPct, nil
}

// multirailSetup is E22b: wall-clock connection-setup rate at 10k VIs.
func multirailSetup(w io.Writer) error {
	t := report.Table{
		Title: "E22b: connection setup at scale — bounded backlog, sharded accepts, per-peer pooling",
		Note: fmt.Sprintf("%d connections, wall-clock; dial = full listener path (8 accept shards, backlog 256, ErrBacklogFull retried); pooled = VIPool checkout/checkin over 64 pooled VIs",
			multirailVIs),
		Headers: []string{"mode", "VIs", "wall-ms", "kconn/s", "accepted", "pruned", "refused", "hit %"},
		Wall:    []string{"wall-ms", "kconn/s"},
	}
	if err := multirailDialRow(&t); err != nil {
		return err
	}
	if err := multirailPoolRow(&t); err != nil {
		return err
	}
	t.Fprint(w)
	return nil
}

func multirailDialRow(t *report.Table) error {
	const shards = 8
	const dialers = 40 // divides multirailVIs exactly
	c := multirailCluster(1)
	nicA, nicB := c.Nodes[0].NIC, c.Nodes[1].NIC
	l, err := c.Network.ListenBacklog(nicB, "pool", 256)
	if err != nil {
		return err
	}
	start := time.Now()
	var acceptWG sync.WaitGroup
	acceptWG.Add(shards)
	errc := make(chan error, shards+dialers)
	for s := 0; s < shards; s++ {
		go func() {
			defer acceptWG.Done()
			for {
				sv, err := nicB.CreateVI(via.ProtectionTag(20))
				if err != nil {
					errc <- err
					return
				}
				if err := l.Accept(sv); err != nil {
					if !errors.Is(err, via.ErrListenerClosed) {
						errc <- err
					}
					return
				}
			}
		}()
	}
	var dialWG sync.WaitGroup
	dialWG.Add(dialers)
	for d := 0; d < dialers; d++ {
		go func() {
			defer dialWG.Done()
			for i := 0; i < multirailVIs/dialers; i++ {
				vi, err := nicA.CreateVI(via.ProtectionTag(10))
				if err != nil {
					errc <- err
					return
				}
				for {
					err := c.Network.Dial(vi, "node1", "pool", 5*time.Second)
					if errors.Is(err, via.ErrBacklogFull) {
						time.Sleep(50 * time.Microsecond)
						continue
					}
					if err != nil {
						errc <- err
					}
					break
				}
			}
		}()
	}
	dialWG.Wait()
	l.Close()
	acceptWG.Wait()
	close(errc)
	for err := range errc {
		return fmt.Errorf("multirail dial: %w", err)
	}
	wall := time.Since(start)
	st := l.Stats()
	if st.Accepted != multirailVIs {
		return fmt.Errorf("multirail dial: accepted %d of %d", st.Accepted, multirailVIs)
	}
	t.AddRow("dial", multirailVIs, fmt.Sprintf("%.2f", wall.Seconds()*1e3),
		fmt.Sprintf("%.0f", float64(multirailVIs)/wall.Seconds()/1e3),
		st.Accepted, st.Pruned, st.Refused, "-")
	return nil
}

func multirailPoolRow(t *report.Table) error {
	c := multirailCluster(1)
	nicA, nicB := c.Nodes[0].NIC, c.Nodes[1].NIC
	var dialed atomic.Uint64
	p := via.NewVIPool(64, func() (*via.VI, error) {
		dialed.Add(1)
		cv, err := nicA.CreateVI(via.ProtectionTag(10))
		if err != nil {
			return nil, err
		}
		sv, err := nicB.CreateVI(via.ProtectionTag(20))
		if err != nil {
			return nil, err
		}
		if err := c.Network.Connect(cv, sv); err != nil {
			return nil, err
		}
		return cv, nil
	})
	start := time.Now()
	const workers = 16
	var wg sync.WaitGroup
	wg.Add(workers)
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < multirailVIs/workers; i++ {
				vi, err := p.Get()
				if err != nil {
					errc <- err
					return
				}
				p.Put(vi)
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		return fmt.Errorf("multirail pool: %w", err)
	}
	wall := time.Since(start)
	st := p.Stats()
	hit := float64(st.Hits) / float64(st.Hits+st.Misses) * 100
	t.AddRow("pooled", multirailVIs, fmt.Sprintf("%.2f", wall.Seconds()*1e3),
		fmt.Sprintf("%.0f", float64(multirailVIs)/wall.Seconds()/1e3),
		"-", "-", "-", fmt.Sprintf("%.1f", hit))
	p.Close(func(v *via.VI) { _ = c.Network.Disconnect(v) })
	return nil
}

// multirailFailover is E22c: striped failover latency with 10k idle VIs
// sharing the fabric.
func multirailFailover(w io.Writer) error {
	t := report.Table{
		Title: "E22c: failover recovery under load — one rail severed mid-send, 10k idle VIs on the fabric",
		Note: fmt.Sprintf("%s transfers over 2 rails; overhead = the failover transfer's virtual cost above the healthy mean (lost chunk detection + re-issue on the survivor); reset = ResetRailPair rejoin cost",
			report.Bytes(multirailXfer)),
		Headers: []string{"idle VIs", "healthy µs/xfer", "failover µs/xfer", "overhead µs", "failovers", "reset µs"},
	}
	c := multirailCluster(2)
	nicA, nicB := c.Nodes[0].NIC, c.Nodes[1].NIC
	// The scale pressure: 10k connected-but-idle VIs on the same NICs.
	for i := 0; i < multirailVIs; i++ {
		cv, err := nicA.CreateVI(via.ProtectionTag(10))
		if err != nil {
			return err
		}
		sv, err := nicB.CreateVI(via.ProtectionTag(20))
		if err != nil {
			return err
		}
		if err := c.Network.Connect(cv, sv); err != nil {
			return err
		}
	}
	tx, rx, err := c.StripedPair(0, 1, 2, 0, msg.StripeOptions{
		Chunk:       multirailChunk,
		RecvTimeout: 10 * time.Second,
	})
	if err != nil {
		return err
	}
	defer rx.Close()
	pa := c.Nodes[0].NewProcess("fo-a", false)
	pb := c.Nodes[1].NewProcess("fo-b", false)
	src, err := pa.Malloc(multirailXfer)
	if err != nil {
		return err
	}
	dst, err := pb.Malloc(multirailXfer)
	if err != nil {
		return err
	}
	timed := func(seed byte) (float64, error) {
		sw := c.Meter.Start()
		lerr, ferr := chaosStripeSend(tx, rx, src, dst, seed)
		if lerr != nil || ferr != nil {
			return 0, errors.Join(lerr, ferr)
		}
		return sw.Elapsed().Micros(), nil
	}
	var healthy float64
	for i := 0; i < multirailSends; i++ {
		us, err := timed(byte(i + 1))
		if err != nil {
			return fmt.Errorf("multirail failover warm-up: %w", err)
		}
		healthy += us / multirailSends
	}
	// Sever rail 1 while the stripe is idle: the next transfer trips
	// over the dead rail at its first rail-1 chunk and must fail over
	// mid-send — deterministically, unlike a jittered concurrent cut.
	c.SeverRail(0, 1, 1)
	failover, err := timed(101)
	if err != nil {
		return fmt.Errorf("multirail failover transfer: %w", err)
	}
	st := tx.Stats()
	if st.Failovers == 0 {
		return fmt.Errorf("multirail failover: transfer never failed over")
	}
	c.HealRail(0, 1, 1)
	rsw := c.Meter.Start()
	if err := msg.ResetRailPair(tx, rx, 1); err != nil {
		return fmt.Errorf("multirail reset: %w", err)
	}
	resetUS := rsw.Elapsed().Micros()
	if _, err := timed(102); err != nil {
		return fmt.Errorf("multirail post-reset transfer: %w", err)
	}
	t.AddRow(multirailVIs, fmt.Sprintf("%.1f", healthy), fmt.Sprintf("%.1f", failover),
		fmt.Sprintf("%.1f", failover-healthy), st.Failovers, fmt.Sprintf("%.1f", resetUS))
	t.Fprint(w)
	return nil
}
