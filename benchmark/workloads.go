package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mm"
	"repro/internal/mpi"
	"repro/internal/msg"
	"repro/internal/proc"
)

// world is one built workload: the cluster, the closed-loop operation
// and the handles the layer counters are read from.
type world struct {
	cl *cluster.Cluster
	// op runs operation i and checks its payload.  ok is false when the
	// check failed; err is a transport failure that ends the run.
	op func(i uint64) (ok bool, err error)
	// fullCheck compares whole buffers (bulk workloads, between batches,
	// outside the batch clock).  nil when op already checks every byte.
	fullCheck func() (bool, error)
	// stop ends the persistent goroutines and waits for them.
	stop func()

	// eps are the message endpoints whose Stats count (nil under mpi,
	// which keeps its endpoints private).
	eps   []*msg.Endpoint
	mpi   *mpi.World
	ranks []*mpi.Rank
	// payloadBytes is what one op delivers, for simulated goodput.
	payloadBytes int

	// sim collects the per-op sim-time of the transfer itself, as the
	// driving goroutine sees it once every participant has finished.
	sim *simHist
	// rec is nil outside the traced section.
	rec *spanRec
	// tamper, when set by a test, corrupts the bytes read back before
	// they are compared.
	tamper func([]byte)
}

// mix is SplitMix64: the payload generator.  Payload bytes and
// allreduce contributions depend on (seed, op, position) only.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fillPayload writes the payload of (seed, op) into dst.
func fillPayload(dst []byte, seed, op uint64) {
	s := mix(seed ^ mix(op))
	for i := 0; i+8 <= len(dst); i += 8 {
		s = mix(s)
		binary.LittleEndian.PutUint64(dst[i:], s)
	}
}

// build constructs the named workload, ready for its first op.
func build(name string, seed uint64) (*world, error) {
	switch name {
	case "small_pingpong":
		return buildPingPong(seed)
	case "bulk_resident":
		return buildBulk(seed, false)
	case "reg_swapcold":
		return buildBulk(seed, true)
	case "allreduce_64":
		return buildAllreduce(seed)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// peerCmd starts one op on a persistent peer goroutine.
type peerCmd struct {
	op     uint64
	parent int32
}

const pingBytes = 64

func buildPingPong(seed uint64) (*world, error) {
	// The nodes are sized to what a ping-pong and the traced run's
	// 256-page probes touch (2 MiB of RAM, 2 MiB of swap), not to the
	// 48 MiB per node the bulk workloads need.  The round trip allocates
	// 34 KB: behind 96 MiB of simulated memory the Go heap cycles through
	// 100 MiB of fresh memory between collections and the rate follows
	// the neighbours' DRAM traffic (p90 of six same-code runs: 152 k to
	// 202 k op/s); behind 8 MiB the allocations stay in cache (188 k to
	// 197 k).
	c, err := cluster.New(cluster.Config{Nodes: 2, Strategy: core.StrategyKiobuf, TPTSlots: 4096,
		Kernel: mm.Config{RAMPages: 512, SwapPages: 512, FreeLow: 8, FreeHigh: 16, ClockBatch: 128, SwapBatch: 32}})
	if err != nil {
		return nil, err
	}
	a, b, err := c.EndpointPair(0, 1, 0)
	if err != nil {
		return nil, err
	}
	src, err := mallocTouched(a.Process(), pingBytes)
	if err != nil {
		return nil, err
	}
	dst, err := mallocTouched(a.Process(), pingBytes)
	if err != nil {
		return nil, err
	}
	echo, err := mallocTouched(b.Process(), pingBytes)
	if err != nil {
		return nil, err
	}
	w := &world{cl: c, eps: []*msg.Endpoint{a, b}, payloadBytes: 2 * pingBytes, sim: newSimHist()}

	// The echo peer is one goroutine for the world's life: it receives
	// the ping and sends the same bytes back.
	cmd := make(chan peerCmd)
	done := make(chan error)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for pc := range cmd {
			s := w.rec.begin(spPeerRecv, pc.parent, pc.op)
			_, err := b.Recv(echo)
			w.rec.end(s)
			if err == nil {
				s = w.rec.begin(spPeerSend, pc.parent, pc.op)
				_, err = b.Send(echo, msg.Eager)
				w.rec.end(s)
			}
			done <- err
		}
	}()
	w.stop = func() { close(cmd); wg.Wait() }

	var want, got [pingBytes]byte
	w.op = func(i uint64) (bool, error) {
		root := w.rec.begin(spOp, -1, i)
		defer w.rec.end(root)
		fillPayload(want[:], seed, i)
		s := w.rec.begin(spStamp, root, i)
		err := src.Write(0, want[:])
		w.rec.end(s)
		if err != nil {
			return false, err
		}
		t0 := c.Meter.Now()
		cmd <- peerCmd{i, root}
		s = w.rec.begin(spSend, root, i)
		_, err = a.Send(src, msg.Eager)
		w.rec.end(s)
		if err != nil {
			return false, fmt.Errorf("ping send: %w", err)
		}
		s = w.rec.begin(spRecv, root, i)
		n, err := a.Recv(dst)
		w.rec.end(s)
		if err != nil {
			return false, fmt.Errorf("pong recv: %w", err)
		}
		if err := <-done; err != nil {
			return false, fmt.Errorf("echo peer: %w", err)
		}
		w.sim.add(c.Meter.Now() - t0)
		s = w.rec.begin(spVerify, root, i)
		defer w.rec.end(s)
		if err := dst.Read(0, got[:]); err != nil {
			return false, err
		}
		if w.tamper != nil {
			w.tamper(got[:])
		}
		return n == pingBytes && got == want, nil
	}
	return w, nil
}

const (
	bulkBytes = 1 << 20
	// bulkChunk is the rendezvous pipeline chunk: each op stamps one
	// fresh word into every chunk, so a chunk that is not delivered (or
	// delivered stale) fails that op's check.
	bulkChunk = msg.DefaultPipelineChunk
	// coldCacheRegions bounds reg_swapcold's registration caches below
	// the 16 chunk regions of one buffer, so the LRU evicts on every
	// acquire.
	coldCacheRegions = 8
	// swapPasses: the clock's first visit clears a page's accessed bit,
	// a later one evicts it.
	swapPasses = 4
)

// buildBulk builds bulk_resident (cold == false) or reg_swapcold.
func buildBulk(seed uint64, cold bool) (*world, error) {
	c, err := cluster.New(cluster.Config{Nodes: 2, Strategy: core.StrategyKiobuf, TPTSlots: 4096,
		Kernel: mm.Config{RAMPages: 4096, SwapPages: 8192, FreeLow: 64, FreeHigh: 128, ClockBatch: 128, SwapBatch: 32}})
	if err != nil {
		return nil, err
	}
	regions := 0
	if cold {
		regions = coldCacheRegions
	}
	a, b, err := c.EndpointPair(0, 1, regions)
	if err != nil {
		return nil, err
	}
	src, err := a.Process().Malloc(bulkBytes)
	if err != nil {
		return nil, err
	}
	dst, err := mallocTouched(b.Process(), bulkBytes)
	if err != nil {
		return nil, err
	}
	// want shadows src on the host: the seeded fill plus every stamp.
	want := make([]byte, bulkBytes)
	fillPayload(want, seed, ^uint64(0))
	if err := src.Write(0, want); err != nil {
		return nil, err
	}
	// One stamp per chunk, at a seeded word offset within the chunk.
	const nStamps = bulkBytes / bulkChunk
	var stampOff [nStamps]int
	for k := range stampOff {
		stampOff[k] = k*bulkChunk + int(mix(seed^uint64(k))%(bulkChunk/8))*8
	}
	w := &world{cl: c, eps: []*msg.Endpoint{a, b}, payloadBytes: bulkBytes, sim: newSimHist()}

	cmd := make(chan peerCmd)
	done := make(chan error)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for pc := range cmd {
			s := w.rec.begin(spPeerRecv, pc.parent, pc.op)
			_, err := b.Recv(dst)
			w.rec.end(s)
			done <- err
		}
	}()
	w.stop = func() { close(cmd); wg.Wait() }

	var word [8]byte
	w.op = func(i uint64) (bool, error) {
		root := w.rec.begin(spOp, -1, i)
		defer w.rec.end(root)
		s := w.rec.begin(spStamp, root, i)
		for k, off := range stampOff {
			binary.LittleEndian.PutUint64(want[off:], mix(seed^mix(i)^uint64(k)<<48))
			if err := src.Write(off, want[off:off+8]); err != nil {
				return false, err
			}
		}
		w.rec.end(s)
		t0 := c.Meter.Now()
		if cold {
			s = w.rec.begin(spSwapOut, root, i)
			for _, n := range c.Nodes {
				for p := 0; p < swapPasses; p++ {
					n.Kernel.SwapOut(4096)
				}
			}
			w.rec.end(s)
		}
		cmd <- peerCmd{i, root}
		s = w.rec.begin(spSend, root, i)
		n, err := a.Send(src, msg.ZeroCopy)
		w.rec.end(s)
		if err != nil {
			return false, fmt.Errorf("bulk send: %w", err)
		}
		if err := <-done; err != nil {
			return false, fmt.Errorf("bulk recv: %w", err)
		}
		w.sim.add(c.Meter.Now() - t0)
		s = w.rec.begin(spVerify, root, i)
		defer w.rec.end(s)
		ok := n == bulkBytes
		for _, off := range stampOff {
			if err := dst.Read(off, word[:]); err != nil {
				return false, err
			}
			if w.tamper != nil {
				w.tamper(word[:])
			}
			if !bytes.Equal(word[:], want[off:off+8]) {
				ok = false
			}
		}
		return ok, nil
	}
	got := make([]byte, bulkBytes)
	w.fullCheck = func() (bool, error) {
		if err := dst.Read(0, got); err != nil {
			return false, err
		}
		return bytes.Equal(got, want), nil
	}
	return w, nil
}

const (
	allreduceRanks = 64
	allreduceNodes = 4
)

// rankCmd starts one allreduce on a rank goroutine.
type rankCmd struct {
	op      uint64
	parent  int32
	contrib int64
}

// buildAllreduce builds the E21 world shape at 64 ranks.
func buildAllreduce(seed uint64) (*world, error) {
	const ranks = allreduceRanks
	c, err := cluster.New(cluster.Config{
		Nodes:    allreduceNodes,
		Strategy: core.StrategyKiobuf,
		Kernel:   mm.Config{RAMPages: 8192 + ranks*64, SwapPages: 8192, ClockBatch: 128, SwapBatch: 32},
		TPTSlots: 4096 + ranks*32,
	})
	if err != nil {
		return nil, err
	}
	mw, err := mpi.NewWorldOpts(c, ranks, mpi.WorldOptions{
		Lazy:     true,
		SharedCQ: true,
		Endpoint: msg.Options{RDMAEager: true, RingSlots: 4, SlotBytes: 4096},
	})
	if err != nil {
		return nil, err
	}
	w := &world{cl: c, mpi: mw, payloadBytes: 8, sim: newSimHist()}

	// One goroutine per rank for the world's life (the program's own
	// structure: a rank is a process).  Each op is gated: every rank
	// starts it after the previous one finished everywhere, so the
	// per-op sim-time the driver reads is the same on every run.
	var cmds [ranks]chan rankCmd
	var results [ranks]int64
	done := make(chan error, ranks) // one slot per rank: no rank blocks reporting
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		rank, err := mw.Rank(r)
		if err != nil {
			return nil, err
		}
		w.ranks = append(w.ranks, rank)
		cmds[r] = make(chan rankCmd, 1) // lets the driver start all ranks without a switch per rank
		wg.Add(1)
		go func(r int, rank *mpi.Rank) {
			defer wg.Done()
			for rc := range cmds[r] {
				s := w.rec.begin(spAllreduce, rc.parent, rc.op)
				v, err := rank.Allreduce(rc.contrib, mpi.OpSum)
				w.rec.end(s)
				results[r] = v
				done <- err
			}
		}(r, rank)
	}
	w.stop = func() {
		for _, ch := range cmds {
			close(ch)
		}
		wg.Wait()
		mw.Close()
	}

	w.op = func(i uint64) (bool, error) {
		root := w.rec.begin(spOp, -1, i)
		defer w.rec.end(root)
		var want int64
		t0 := c.Meter.Now()
		for r := 0; r < ranks; r++ {
			contrib := int64(mix(seed^mix(i)^uint64(r)<<32) >> 40) // 24 bits: 64 of them cannot overflow
			want += contrib
			cmds[r] <- rankCmd{i, root, contrib}
		}
		var first error
		for r := 0; r < ranks; r++ {
			if err := <-done; err != nil && first == nil {
				first = err
			}
		}
		if first != nil {
			return false, fmt.Errorf("allreduce: %w", first)
		}
		w.sim.add(c.Meter.Now() - t0)
		ok := true
		for r := range results {
			v := results[r]
			if w.tamper != nil {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], uint64(v))
				w.tamper(b[:])
				v = int64(binary.LittleEndian.Uint64(b[:]))
			}
			if v != want {
				ok = false
			}
		}
		return ok, nil
	}
	return w, nil
}

// mallocTouched allocates a buffer and faults every page in.
func mallocTouched(p *proc.Process, size int) (*proc.Buffer, error) {
	b, err := p.Malloc(size)
	if err != nil {
		return nil, err
	}
	return b, b.Touch()
}
