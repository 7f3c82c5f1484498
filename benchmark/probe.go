package main

import (
	"fmt"
	"time"

	"repro/internal/kagent"
	"repro/internal/metrics"
	"repro/internal/phys"
	"repro/internal/regcache"
	"repro/internal/simtime"
	"repro/internal/via"
)

const (
	// probeReps is how many times each direct probe repeats; the median
	// is reported.
	probeReps = 64
	// probePages is the RegisterMem/SwapOut probe's region size.
	probePages = 256
	// probeChunkPages is the regcache probe's region: one rendezvous
	// pipeline chunk.
	probeChunkPages = bulkChunk / phys.PageSize
)

// timed runs fn and returns its cost on both clocks.
func timed(m *simtime.Meter, fn func() error) (hostNS float64, sim simtime.Duration, err error) {
	s0, t0 := m.Now(), time.Now()
	err = fn()
	return float64(time.Since(t0)), m.Now() - s0, err
}

// probe times single public calls of each layer on the workload's own
// world, after its batches: a fresh process on node 0 with its own NIC
// handle and registration cache, so the workload's counters are already
// read and its caches are not touched.
func probe(w *world, res *result) error {
	node := w.cl.Nodes[0]
	meter := w.cl.Meter
	p := node.NewProcess("probe", false)
	nic := node.OpenNic(p)
	set := func(name string, v float64) { res.Metrics[name] = value{v, ""} }
	med := func(s []float64) float64 { return quantile(s, 0.5) }

	// regcache: hit and miss paths of Acquire on one chunk-sized region.
	chunk, err := mallocTouched(p, probeChunkPages*phys.PageSize)
	if err != nil {
		return err
	}
	cache := regcache.New(nic, 0)
	acquireRelease := func() error {
		r, err := cache.Acquire(chunk, 0, chunk.Bytes, via.MemAttrs{}, regcache.ClassUser)
		if err != nil {
			return err
		}
		return cache.Release(r)
	}
	var hitNS, missUS, missSim []float64
	for i := 0; i < probeReps; i++ {
		h, s, err := timed(meter, acquireRelease) // empty cache: a miss
		if err != nil {
			return fmt.Errorf("regcache miss probe: %w", err)
		}
		missUS, missSim = append(missUS, h/1e3), append(missSim, s.Micros())
		h, _, err = timed(meter, acquireRelease) // again: a hit
		if err != nil {
			return fmt.Errorf("regcache hit probe: %w", err)
		}
		hitNS = append(hitNS, h)
		if _, err := cache.Flush(); err != nil {
			return err
		}
	}
	set("regcache.acquire_hit_host_ns", med(hitNS))
	set("regcache.acquire_miss_host_us", med(missUS))
	set("regcache.acquire_miss_sim_us", med(missSim))

	// kagent: RegisterMem/DeregisterMem of a resident 256-page region,
	// with the pin/TPT split from the agent's own stage marks.
	buf, err := mallocTouched(p, probePages*phys.PageSize)
	if err != nil {
		return err
	}
	reg := metrics.NewRegistry()
	node.Agent.AttachObs(nil, reg)
	defer node.Agent.AttachObs(nil, nil)
	var regUS, deregUS, regSim []float64
	tag := via.ProtectionTag(p.ID())
	register := func() (hostNS float64, sim simtime.Duration, err error) {
		var r *kagent.Registration
		hostNS, sim, err = timed(meter, func() error {
			var err error
			r, err = node.Agent.RegisterMem(p.AS(), buf.Addr, buf.Bytes, tag, via.MemAttrs{})
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		dh, _, err := timed(meter, func() error { return node.Agent.DeregisterMem(r) })
		deregUS = append(deregUS, dh/1e3)
		return hostNS, sim, err
	}
	for i := 0; i < probeReps; i++ {
		h, s, err := register()
		if err != nil {
			return fmt.Errorf("kagent probe: %w", err)
		}
		regUS, regSim = append(regUS, h/1e3), append(regSim, s.Micros())
	}
	set("kagent.register_host_us", med(regUS))
	set("kagent.deregister_host_us", med(deregUS))
	set("kagent.register_sim_us", med(regSim))
	set("kagent.pin_sim_us", reg.Histogram("kagent.reg.pin.simns").Snapshot().Mean()/1e3)
	set("kagent.tpt_sim_us", reg.Histogram("kagent.reg.tpt.simns").Snapshot().Mean()/1e3)

	// mm: Touch of resident pages, the four-pass SwapOut that evicts
	// them, and the registration that has to fault them back in.
	const coldReps = 8
	var touchNS, swapUS, swapSim, coldSim []float64
	for i := 0; i < coldReps; i++ {
		h, _, err := timed(meter, buf.Touch)
		if err != nil {
			return err
		}
		touchNS = append(touchNS, h/probePages)
		h, s, _ := timed(meter, func() error {
			for pass := 0; pass < swapPasses; pass++ {
				node.Kernel.SwapOut(4096)
			}
			return nil
		})
		swapUS, swapSim = append(swapUS, h/1e3), append(swapSim, s.Micros())
		_, s, err = register()
		if err != nil {
			return fmt.Errorf("kagent cold probe: %w", err)
		}
		coldSim = append(coldSim, s.Micros())
	}
	set("mm.touch_host_ns_per_page", med(touchNS))
	set("mm.swapout_host_us", med(swapUS))
	set("mm.swapout_sim_us", med(swapSim))
	set("kagent.register_cold_sim_us", med(coldSim))

	// via: a raw 64 B inline send between two fresh VIs, post to
	// completion, no msg layer above it.
	peer := w.cl.Nodes[1]
	pp := peer.NewProcess("probe-peer", false)
	va, err := node.NIC.CreateVI(tag)
	if err != nil {
		return err
	}
	vb, err := peer.NIC.CreateVI(via.ProtectionTag(pp.ID()))
	if err != nil {
		return err
	}
	if err := w.cl.Network.Connect(va, vb); err != nil {
		return err
	}
	var payload [pingBytes]byte
	fillPayload(payload[:], 0, 0)
	sd, rd := via.NewDescriptor(via.OpSend), via.NewDescriptor(via.OpRecv)
	var postNS []float64
	for i := 0; i < 16*probeReps; i++ {
		if i > 0 {
			sd.Reset()
			rd.Reset()
		}
		if err := sd.SetInline(payload[:]); err != nil {
			return err
		}
		if err := vb.PostRecv(rd); err != nil {
			return err
		}
		h, _, err := timed(meter, func() error {
			if err := va.PostSend(sd); err != nil {
				return err
			}
			if st := sd.Wait(); st != via.StatusSuccess {
				return fmt.Errorf("send status %v", st)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("via probe: %w", err)
		}
		if st := rd.Wait(); st != via.StatusSuccess || string(rd.Inline()) != string(payload[:]) {
			return fmt.Errorf("via probe: recv status %v, payload intact %v", st, string(rd.Inline()) == string(payload[:]))
		}
		postNS = append(postNS, h)
	}
	set("via.post_to_complete_host_ns", med(postNS))
	return nil
}
