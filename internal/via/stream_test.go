package via

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/phys"
	"repro/internal/race"
	"repro/internal/simtime"
)

// memRegion is a registered region the stream tests can also reach from
// the host side, frame by frame, without going through the NIC.
type memRegion struct {
	h      MemHandle
	mem    *phys.Memory
	pages  []phys.Addr
	off, n int
}

// regScattered registers npages frames taken from the allocator in a
// shuffled order — some runs physically adjacent, most not — starting off
// bytes into the first frame, and fills the region with seeded bytes.
func regScattered(t *testing.T, rng *rand.Rand, nic *NIC, mem *phys.Memory, npages, off int, tag ProtectionTag, attrs MemAttrs) *memRegion {
	t.Helper()
	pages := make([]phys.Addr, npages)
	for i := range pages {
		pages[i] = allocFrame(t, mem)
	}
	// Shuffle pairs so adjacent frames stay adjacent about half the time.
	for i := 0; i+3 < npages; i += 2 {
		if j := i + 2*rng.Intn((npages-i)/2); j+1 < npages {
			pages[i], pages[j] = pages[j], pages[i]
			pages[i+1], pages[j+1] = pages[j+1], pages[i+1]
		}
	}
	r := &memRegion{mem: mem, pages: pages, off: off, n: npages*phys.PageSize - off}
	var err error
	if r.h, err = nic.RegisterMemory(pfnsOf(pages), off, r.n, tag, attrs); err != nil {
		t.Fatal(err)
	}
	fill := make([]byte, r.n)
	rng.Read(fill)
	r.hostCopy(t, 0, fill, true)
	return r
}

// hostCopy moves buf to (write) or from the region at byte offset at,
// straight through the frames.
func (r *memRegion) hostCopy(t *testing.T, at int, buf []byte, write bool) {
	t.Helper()
	for abs := r.off + at; len(buf) > 0; {
		k := min(phys.PageSize-abs%phys.PageSize, len(buf))
		pa := r.pages[abs/phys.PageSize] + phys.Addr(abs%phys.PageSize)
		var err error
		if write {
			err = r.mem.WritePhys(pa, buf[:k])
		} else {
			err = r.mem.ReadPhys(pa, buf[:k])
		}
		if err != nil {
			t.Fatal(err)
		}
		abs, buf = abs+k, buf[k:]
	}
}

func (r *memRegion) snapshot(t *testing.T) []byte {
	t.Helper()
	b := make([]byte, r.n)
	r.hostCopy(t, 0, b, false)
	return b
}

// randSegs draws up to four segments over the regions — unaligned
// offsets, a zero-length one now and then — and returns them with their
// total length.
func randSegs(rng *rand.Rand, regions []*memRegion) ([]Segment, int) {
	var segs []Segment
	total := 0
	for k := 1 + rng.Intn(4); k > 0; k-- {
		r := regions[rng.Intn(len(regions))]
		off := rng.Intn(r.n)
		ln := rng.Intn(min(r.n-off, 3*phys.PageSize) + 1)
		if rng.Intn(6) == 0 {
			ln = 0
		}
		segs = append(segs, Segment{Handle: r.h, Offset: off, Length: ln})
		total += ln
	}
	return segs, total
}

// streamCase is one randomized transfer of TestStreamMatchesReference.
type streamCase struct {
	r          *rig
	rng        *rand.Rand
	regA, regB []*memRegion
	regPlain   *memRegion // on B, like regB but closed to RDMA
	// byHandle finds a region from a segment; handles are per NIC, so it
	// is indexed by end first (0 is A, 1 is B).
	byHandle [2]map[MemHandle]*memRegion
}

func newStreamCase(t *testing.T, seed int64) *streamCase {
	c := &streamCase{r: newRig(t), rng: rand.New(rand.NewSource(seed)),
		byHandle: [2]map[MemHandle]*memRegion{{}, {}}}
	for i := 0; i < 2; i++ {
		a := regScattered(t, c.rng, c.r.nicA, c.r.memA, 3+c.rng.Intn(4), c.rng.Intn(phys.PageSize), tagA, MemAttrs{})
		b := regScattered(t, c.rng, c.r.nicB, c.r.memB, 3+c.rng.Intn(4), c.rng.Intn(phys.PageSize), tagB,
			MemAttrs{EnableRDMAWrite: true, EnableRDMARead: true})
		c.regA, c.regB = append(c.regA, a), append(c.regB, b)
		c.byHandle[0][a.h], c.byHandle[1][b.h] = a, b
	}
	c.regPlain = regScattered(t, c.rng, c.r.nicB, c.r.memB, 7, 0, tagB, MemAttrs{})
	c.byHandle[1][c.regPlain.h] = c.regPlain
	return c
}

// gather is the host-side reference read of end's segment list.
func (c *streamCase) gather(t *testing.T, end int, segs []Segment) []byte {
	var out []byte
	for _, s := range segs {
		b := make([]byte, s.Length)
		c.byHandle[end][s.Handle].hostCopy(t, s.Offset, b, false)
		out = append(out, b...)
	}
	return out
}

// expect applies the reference scatter of payload over end's segs to
// shadow copies of every region and returns them keyed by region.
func (c *streamCase) expect(t *testing.T, end int, segs []Segment, payload []byte) map[*memRegion][]byte {
	want := map[*memRegion][]byte{}
	for _, m := range c.byHandle {
		for _, r := range m {
			want[r] = r.snapshot(t)
		}
	}
	for _, s := range segs {
		k := min(s.Length, len(payload))
		copy(want[c.byHandle[end][s.Handle]][s.Offset:], payload[:k])
		payload = payload[k:]
	}
	return want
}

func (c *streamCase) check(t *testing.T, want map[*memRegion][]byte, what string) {
	t.Helper()
	for r, w := range want {
		if got := r.snapshot(t); !bytes.Equal(got, w) {
			t.Fatalf("%s: region %d differs from the reference copy", what, r.h)
		}
	}
}

// breakSeg makes the segment fail validation on nic, the owner of its
// end, in one of four ways and names the way: a region of another
// protection domain, a released handle, a range running past its region
// (used is how many of the segment's bytes the transfer would touch) or,
// for the remote end of an RDMA operation, a region without the
// attribute.  The segment's length stays, so the payload does not change.
func (c *streamCase) breakSeg(t *testing.T, s *Segment, used int, region *memRegion, nic *NIC, mem *phys.Memory, tag ProtectionTag, rdma bool) string {
	kinds := 3
	if rdma {
		kinds = 4
	}
	switch c.rng.Intn(kinds) {
	case 0:
		s.Handle, _ = regFrames(t, nic, mem, 1, tag+79, MemAttrs{EnableRDMAWrite: true, EnableRDMARead: true})
		return "bad tag"
	case 1:
		s.Handle, _ = regFrames(t, nic, mem, 1, tag, MemAttrs{EnableRDMAWrite: true, EnableRDMARead: true})
		if err := nic.DeregisterMemory(s.Handle); err != nil {
			t.Fatal(err)
		}
		return "released handle"
	case 2:
		s.Offset = region.n - used + 1
		return "out of region"
	default:
		s.Handle, s.Offset = c.regPlain.h, 0
		return "RDMA disabled"
	}
}

// TestStreamMatchesReference is the property test of the streaming data
// path: random multi-segment source and destination lists over scattered
// frames — unaligned offsets, differing extent boundaries, zero-length
// segments, payloads shorter than the receive — deliver memory
// byte-identical to a host-side reference copy for send, RDMA write and
// RDMA read; and a validation failure at either end, anywhere in its
// list, leaves every region untouched, completes with a protection error
// and counts one tag violation on the NIC that owns the failing end.
func TestStreamMatchesReference(t *testing.T) {
	for _, op := range []Op{OpSend, OpRDMAWrite, OpRDMARead} {
		t.Run(op.String(), func(t *testing.T) {
			for seed := int64(0); seed < 150; seed++ {
				c := newStreamCase(t, seed+1000*int64(op))
				local, total := randSegs(c.rng, c.regA)
				d := NewDescriptor(op, local...)
				var rd *Descriptor
				remote := []Segment{{}}
				if op == OpSend {
					var room int
					remote, room = randSegs(c.rng, c.regB)
					for i := 0; room < total; i++ { // make the receive big enough, and sometimes bigger
						rb := c.regB[i%2]
						ln := min(total-room+c.rng.Intn(64), rb.n)
						remote, room = append(remote, Segment{Handle: rb.h, Offset: 0, Length: ln}), room+ln
					}
					rd = NewDescriptor(OpRecv, remote...)
				} else {
					rb := c.regB[c.rng.Intn(2)]
					for last := &d.Segs[len(d.Segs)-1]; total > rb.n; last = &d.Segs[len(d.Segs)-1] {
						if last.Length == 0 {
							d.Segs = d.Segs[:len(d.Segs)-1]
							continue
						}
						cut := min(last.Length, total-rb.n)
						last.Length, total = last.Length-cut, total-cut
					}
					remote[0] = Segment{Handle: rb.h, Offset: c.rng.Intn(rb.n - total + 1), Length: total}
				}
				// The ends, and the NIC, memory and tag each lives under.
				ends := [2][]Segment{d.Segs, remote}
				nics, mems, tags := [2]*NIC{c.r.nicA, c.r.nicB}, [2]*phys.Memory{c.r.memA, c.r.memB}, [2]ProtectionTag{tagA, tagB}
				src, dst := 0, 1
				if op == OpRDMARead {
					src, dst = 1, 0
				}
				// Break one payload-carrying segment of the source end, of the
				// destination end, or none.  An empty payload validates nothing.
				failEnd, what := -1, ""
				if k := c.rng.Intn(3); k < 2 && total > 0 {
					failEnd = [2]int{src, dst}[k]
					var carry, used []int
					for i, pos := 0, 0; i < len(ends[failEnd]); i++ {
						if u := min(ends[failEnd][i].Length, total-pos); u > 0 {
							carry, used, pos = append(carry, i), append(used, u), pos+u
						}
					}
					i := c.rng.Intn(len(carry))
					sg := &ends[failEnd][carry[i]]
					what = c.breakSeg(t, sg, used[i], c.byHandle[failEnd][sg.Handle], nics[failEnd], mems[failEnd], tags[failEnd],
						op != OpSend && failEnd == 1)
				}
				d.Remote = RemoteSegment{Handle: remote[0].Handle, Offset: remote[0].Offset}
				want := c.expect(t, dst, nil, nil)
				if failEnd < 0 {
					want = c.expect(t, dst, ends[dst], c.gather(t, src, ends[src]))
				}
				var viol [2]uint64
				for i, nic := range nics {
					viol[i] = nic.Stats().TagViolations
				}

				if rd != nil {
					if err := c.r.viB.PostRecv(rd); err != nil {
						t.Fatal(err)
					}
				}
				if err := c.r.viA.PostSend(d); err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("seed %d (%s)", seed, what)
				c.check(t, want, name)
				for i, nic := range nics {
					viol[i] = nic.Stats().TagViolations - viol[i]
				}
				if failEnd < 0 {
					if d.Status != StatusSuccess || d.Transferred != total || viol != [2]uint64{} {
						t.Fatalf("%s: status %v, %d of %d bytes, violations %v", name, d.Status, d.Transferred, total, viol)
					}
					if rd != nil && (rd.Status != StatusSuccess || rd.Transferred != total) {
						t.Fatalf("%s: recv status %v, %d of %d bytes", name, rd.Status, rd.Transferred, total)
					}
					continue
				}
				if d.Status != StatusProtectionError {
					t.Fatalf("%s: status %v, want protection error", name, d.Status)
				}
				if viol[failEnd] != 1 || viol[1-failEnd] != 0 {
					t.Fatalf("%s: tag violations %v, want one on NIC %d", name, viol, failEnd)
				}
				if rd != nil && failEnd == dst && rd.Status != StatusProtectionError {
					t.Fatalf("%s: matched recv status %v, want protection error", name, rd.Status)
				}
				if c.r.viA.State() != VIConnected {
					t.Fatalf("%s: a protection error faulted the VI", name)
				}
			}
		})
	}
}

// TestStreamLoopbackOverlapSnapshot writes a region onto itself, shifted,
// over one phys.Memory: the target must receive the source as it was when
// the transfer started, though every piece of a frame-to-frame walk after
// the first would read bytes the walk had already overwritten.
func TestStreamLoopbackOverlapSnapshot(t *testing.T) {
	r := newRig(t)
	v1, err := r.nicA.CreateVI(tagA)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := r.nicA.CreateVI(tagA)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.net.Connect(v1, v2); err != nil {
		t.Fatal(err)
	}
	reg := regScattered(t, rand.New(rand.NewSource(7)), r.nicA, r.memA, 6, 0, tagA, MemAttrs{EnableRDMAWrite: true})
	const n, shift = 4*phys.PageSize + 123, 100
	want := reg.snapshot(t)
	copy(want[shift:], want[:n]) // memmove semantics: a snapshot of the source
	d := NewDescriptor(OpRDMAWrite, Segment{Handle: reg.h, Offset: 0, Length: n})
	d.Remote = RemoteSegment{Handle: reg.h, Offset: shift}
	if err := v1.PostSend(d); err != nil {
		t.Fatal(err)
	}
	if d.Status != StatusSuccess {
		t.Fatalf("status %v", d.Status)
	}
	if !bytes.Equal(reg.snapshot(t), want) {
		t.Fatal("overlapping loopback write did not deliver a snapshot of its source")
	}
}

// TestStreamNoPinEnds runs send, RDMA write and RDMA read with a nopin
// source, a nopin destination and both, a page of each nopin end evicted
// before the post, under both recovery policies: the transfer stages,
// faults the pages back in and converges on the reference bytes.  The
// pinned→nopin RDMA write also runs on an engine lane with the eviction
// between post and DMA.
func TestStreamNoPinEnds(t *testing.T) {
	const pages, n = 3, 2*phys.PageSize + 500
	for _, policy := range []IOFaultPolicy{FaultRetry, FaultSpeculative} {
		for _, op := range []Op{OpSend, OpRDMAWrite, OpRDMARead} {
			for _, ends := range [][2]bool{{true, false}, {false, true}, {true, true}} {
				for _, inFlight := range []bool{false, true} {
					if inFlight && (op != OpRDMAWrite || ends != [2]bool{false, true}) {
						continue
					}
					name := fmt.Sprintf("policy%d/%v/nopinA=%v,nopinB=%v/inflight=%v", policy, op, ends[0], ends[1], inFlight)
					t.Run(name, func(t *testing.T) {
						r := newRig(t)
						rng := rand.New(rand.NewSource(11))
						a := regScattered(t, rng, r.nicA, r.memA, pages, 64, tagA, MemAttrs{NoPin: ends[0]})
						b := regScattered(t, rng, r.nicB, r.memB, pages, 32, tagB,
							MemAttrs{NoPin: ends[1], EnableRDMAWrite: true, EnableRDMARead: true})
						for _, side := range []struct {
							nic *NIC
							reg *memRegion
						}{{r.nicA, a}, {r.nicB, b}} {
							nic, reg := side.nic, side.reg
							nic.SetIOFaultPolicy(policy)
							// The host faults a page back in where it was: the
							// frame kept its bytes, as after a swap-in.
							nic.SetIOFaultHandler(func(h MemHandle, page int) error {
								return nic.RepairTPTPage(h, page, reg.pages[page])
							})
						}
						evict := func() {
							if ends[0] && !r.nicA.InvalidateTPTPage(a.h, 1) {
								t.Error("evicting a page of A failed")
							}
							if ends[1] && !r.nicB.InvalidateTPTPage(b.h, 2) {
								t.Error("evicting a page of B failed")
							}
						}
						src, dst := a, b
						if op == OpRDMARead {
							src, dst = b, a
						}
						want := dst.snapshot(t)
						copy(want[8:], src.snapshot(t)[16:16+n])

						d := NewDescriptor(op, Segment{Handle: a.h, Offset: 16, Length: n})
						d.Remote = RemoteSegment{Handle: b.h, Offset: 8}
						if op == OpRDMARead {
							d.Segs[0].Offset, d.Remote.Offset = 8, 16
						}
						if op == OpSend {
							if err := r.viB.PostRecv(NewDescriptor(OpRecv, Segment{Handle: b.h, Offset: 8, Length: n + 40})); err != nil {
								t.Fatal(err)
							}
						}
						if inFlight {
							// The lane runs the predicate after the dequeue and
							// before the DMA: exactly between post and DMA.
							inj := armRig(r, 1)
							inj.FailWhen(SiteLane, func(faultinject.Op) bool { evict(); return false }, nil)
							r.nicA.StartEngineLanes(1)
							defer r.nicA.StopEngine()
						} else {
							evict()
						}
						if err := r.viA.PostSend(d); err != nil {
							t.Fatal(err)
						}
						if st := d.Wait(); st != StatusSuccess {
							t.Fatalf("status %v (cause %v)", st, r.viA.ErrorCause())
						}
						if !bytes.Equal(dst.snapshot(t), want) {
							t.Fatal("destination differs from the reference copy")
						}
						st := sumIOFaults(r.nicA.Stats(), r.nicB.Stats())
						if st.IOPageFaults == 0 || st.FaultRetries+st.SpecRetransmits == 0 {
							t.Fatalf("no IO page fault was taken and recovered: %+v", st)
						}
					})
				}
			}
		}
	}
}

// TestStreamMixedLists puts a nopin segment between two pinned ones, so
// the transfer switches to staging in the middle of a list with part of
// it — or all of the other end — already resolved, and goes on to a
// pinned segment while staged.  The local list of the poster, the remote
// end (the matched receive's list for a send, the one remote segment of
// an RDMA operation) and both take the nopin region in turn, with its
// second page evicted (the translation faults) or not (it comes back
// inside the DMA fence), under both recovery policies; every region must
// match the host-side reference copy.
func TestStreamMixedLists(t *testing.T) {
	const P = phys.PageSize
	for _, policy := range []IOFaultPolicy{FaultRetry, FaultSpeculative} {
		for _, op := range []Op{OpSend, OpRDMAWrite, OpRDMARead} {
			for _, nopin := range [][2]bool{{true, false}, {false, true}, {true, true}} {
				for _, evict := range []bool{false, true} {
					name := fmt.Sprintf("policy%d/%v/nopinLocal=%v,nopinRemote=%v/evict=%v", policy, op, nopin[0], nopin[1], evict)
					t.Run(name, func(t *testing.T) {
						c := &streamCase{r: newRig(t), rng: rand.New(rand.NewSource(5)),
							byHandle: [2]map[MemHandle]*memRegion{{}, {}}}
						r := c.r
						// Per end: two pinned regions and a nopin one.
						var reg [2][3]*memRegion
						for end, nic := range []*NIC{r.nicA, r.nicB} {
							mem, tag := r.memA, ProtectionTag(tagA)
							if end == 1 {
								mem, tag = r.memB, tagB
							}
							for k := range reg[end] {
								attrs := MemAttrs{NoPin: k == 2, EnableRDMAWrite: end == 1, EnableRDMARead: end == 1}
								reg[end][k] = regScattered(t, c.rng, nic, mem, 4, 32*(end+1), tag, attrs)
								c.byHandle[end][reg[end][k].h] = reg[end][k]
							}
							regs := c.byHandle[end]
							nic.SetIOFaultPolicy(policy)
							nic.SetIOFaultHandler(func(h MemHandle, page int) error {
								return nic.RepairTPTPage(h, page, regs[h].pages[page])
							})
						}
						// mid picks the middle region of an end's list.
						mid := func(end int) *memRegion {
							if nopin[end] {
								return reg[end][2]
							}
							return reg[end][1]
						}
						local := []Segment{
							{Handle: reg[0][0].h, Offset: 100, Length: P + 300},
							{Handle: mid(0).h, Offset: 50, Length: 2*P + 70},
							{Handle: reg[0][0].h, Offset: 2*P + 500, Length: 900},
						}
						total := 3*P + 1270
						remote := []Segment{{Handle: mid(1).h, Offset: 33, Length: total}}
						if op == OpSend { // longer than the payload, boundaries elsewhere
							remote = []Segment{
								{Handle: reg[1][0].h, Offset: 7, Length: P + 10},
								{Handle: mid(1).h, Offset: 33, Length: P + 2000},
								{Handle: reg[1][0].h, Offset: 2*P + 600, Length: P + 1400},
							}
						}
						srcEnd, src, dst := 0, local, remote
						if op == OpRDMARead {
							srcEnd, src, dst = 1, remote, local
						}
						want := c.expect(t, 1-srcEnd, dst, c.gather(t, srcEnd, src))

						d := NewDescriptor(op, local...)
						if op == OpSend {
							if err := r.viB.PostRecv(NewDescriptor(OpRecv, remote...)); err != nil {
								t.Fatal(err)
							}
						} else {
							d.Remote = RemoteSegment{Handle: remote[0].Handle, Offset: remote[0].Offset}
						}
						if evict {
							for end, nic := range []*NIC{r.nicA, r.nicB} {
								if nopin[end] && !nic.InvalidateTPTPage(reg[end][2].h, 1) {
									t.Fatalf("evicting a page at end %d failed", end)
								}
							}
						}
						if err := r.viA.PostSend(d); err != nil {
							t.Fatal(err)
						}
						if d.Status != StatusSuccess {
							t.Fatalf("status %v (cause %v)", d.Status, r.viA.ErrorCause())
						}
						c.check(t, want, name)
						st := sumIOFaults(r.nicA.Stats(), r.nicB.Stats())
						if recovered := st.FaultRetries+st.SpecRetransmits > 0; recovered != evict || (st.IOPageFaults > 0) != evict {
							t.Fatalf("evict=%v but IO fault accounting reads %+v", evict, st)
						}
					})
				}
			}
		}
	}
}

func sumIOFaults(a, b Stats) Stats {
	a.IOPageFaults += b.IOPageFaults
	a.FaultRetries += b.FaultRetries
	a.SpecRetransmits += b.SpecRetransmits
	return a
}

// TestStreamInjectorSequence pins the order in which one send, one RDMA
// write and one RDMA read consult the injector at the NIC's four
// data-path sites — per segment SiteDMA then SiteTPT, the source end
// before the link, the destination end after it, the completion last,
// zero-length segments and the unused tail of a receive never — so seeded
// FailProb schedules draw the same numbers as before the payload
// streamed.  Frame faults still hit the first piece moved.
func TestStreamInjectorSequence(t *testing.T) {
	r := newRig(t)
	hA, _ := regFrames(t, r.nicA, r.memA, 4, tagA, MemAttrs{})
	hB, _ := regFrames(t, r.nicB, r.memB, 4, tagB, MemAttrs{EnableRDMAWrite: true, EnableRDMARead: true})
	inj := armRig(r, 1)
	var got []faultinject.Op
	for _, site := range []string{SiteDMA, SiteTPT, SiteLink, SiteCompletion} {
		inj.FailWhen(site, func(op faultinject.Op) bool { got = append(got, op); return false }, nil)
	}
	local := []Segment{{hA, 10, 5000}, {hA, 0, 0}, {hA, 9000, 300}}
	a, b, ua, ub := uint64(hA), uint64(hB), r.viA.uid, r.viB.uid
	for _, tc := range []struct {
		op   Op
		recv []Segment
		want []faultinject.Op
	}{
		{OpSend, []Segment{{hB, 100, 4000}, {hB, 0, 0}, {hB, 8000, 2000}, {hB, 12000, 64}}, []faultinject.Op{
			{Site: SiteDMA, Key: a, N: 5000}, {Site: SiteTPT, Key: a, N: 5000},
			{Site: SiteDMA, Key: a, N: 300}, {Site: SiteTPT, Key: a, N: 300},
			{Site: SiteLink, Key: ub},
			{Site: SiteDMA, Key: b, N: 4000}, {Site: SiteTPT, Key: b, N: 4000},
			{Site: SiteDMA, Key: b, N: 1300}, {Site: SiteTPT, Key: b, N: 1300},
			{Site: SiteCompletion, Key: ua},
		}},
		{OpRDMAWrite, nil, []faultinject.Op{
			{Site: SiteDMA, Key: a, N: 5000}, {Site: SiteTPT, Key: a, N: 5000},
			{Site: SiteDMA, Key: a, N: 300}, {Site: SiteTPT, Key: a, N: 300},
			{Site: SiteLink, Key: ub},
			{Site: SiteDMA, Key: b, N: 5300}, {Site: SiteTPT, Key: b, N: 5300},
			{Site: SiteCompletion, Key: ua},
		}},
		{OpRDMARead, nil, []faultinject.Op{
			{Site: SiteLink, Key: ub},
			{Site: SiteDMA, Key: b, N: 5300}, {Site: SiteTPT, Key: b, N: 5300},
			{Site: SiteDMA, Key: a, N: 5000}, {Site: SiteTPT, Key: a, N: 5000},
			{Site: SiteDMA, Key: a, N: 300}, {Site: SiteTPT, Key: a, N: 300},
			{Site: SiteCompletion, Key: ua},
		}},
	} {
		got = got[:0]
		d := NewDescriptor(tc.op, local...)
		d.Remote = RemoteSegment{Handle: hB, Offset: 64}
		if tc.recv != nil {
			if err := r.viB.PostRecv(NewDescriptor(OpRecv, tc.recv...)); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.viA.PostSend(d); err != nil {
			t.Fatal(err)
		}
		if d.Status != StatusSuccess {
			t.Fatalf("%v: status %v", tc.op, d.Status)
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%v consulted the injector as\n  %v\nwant\n  %v", tc.op, got, tc.want)
		}
	}

	// A frame fault on the first piece, read side then write side, faults
	// the descriptor as a DMA error and the VI with it.
	for _, site := range []string{phys.SiteRead, phys.SiteWrite} {
		r := newRig(t)
		hA, _ := regFrames(t, r.nicA, r.memA, 2, tagA, MemAttrs{})
		hB, _ := regFrames(t, r.nicB, r.memB, 2, tagB, MemAttrs{EnableRDMAWrite: true})
		side, mem := faultinject.New(1), r.memA
		if site == phys.SiteWrite {
			mem = r.memB
		}
		side.FailNth(site, 1, nil)
		mem.SetFaultInjector(side)
		d := NewDescriptor(OpRDMAWrite, Segment{Handle: hA, Offset: 0, Length: 2 * phys.PageSize})
		d.Remote = RemoteSegment{Handle: hB, Offset: 0}
		if err := r.viA.PostSend(d); err != nil {
			t.Fatal(err)
		}
		if d.Status != StatusDMAError || r.viA.State() != VIError || side.Injected(site) != 1 {
			t.Fatalf("%s: status %v, VI %v, %d injected", site, d.Status, r.viA.State(), side.Injected(site))
		}
		if ops := side.Stats().Ops[site]; ops != 1 {
			t.Fatalf("%s: %d pieces attempted after the first one faulted", site, ops-1)
		}
	}
}

// TestStreamLargeTransferZeroAllocs moves 320 KiB — above
// maxPooledPayload, where a staged transfer allocates its buffer —
// between pinned regions by send, RDMA write and RDMA read: zero
// allocations means no staging buffer was taken, so every payload byte
// was copied exactly once.
func TestStreamLargeTransferZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race-detector instrumentation allocates")
	}
	const pages = 80
	const n = pages * phys.PageSize
	if n <= maxPooledPayload {
		t.Fatalf("payload %d does not exceed maxPooledPayload %d", n, maxPooledPayload)
	}
	memA, memB, m, nw := phys.New(pages+8), phys.New(pages+8), simtime.NewMeter(), NewNetwork()
	nicA, nicB := NewNIC("bigA", memA, m, pages+8), NewNIC("bigB", memB, m, pages+8)
	viA, err := nicA.CreateVI(tagA)
	if err != nil {
		t.Fatal(err)
	}
	viB, err := nicB.CreateVI(tagB)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Connect(viA, viB); err != nil {
		t.Fatal(err)
	}
	hA, _ := regFrames(t, nicA, memA, pages, tagA, MemAttrs{})
	hB, _ := regFrames(t, nicB, memB, pages, tagB, MemAttrs{EnableRDMAWrite: true, EnableRDMARead: true})
	rd := NewDescriptor(OpRecv, Segment{Handle: hB, Offset: 0, Length: n})
	for _, op := range []Op{OpSend, OpRDMAWrite, OpRDMARead} {
		d := NewDescriptor(op, Segment{Handle: hA, Offset: 0, Length: n})
		d.Remote = RemoteSegment{Handle: hB, Offset: 0}
		post := func() {
			if op == OpSend {
				if err := viB.PostRecv(rd); err != nil {
					t.Fatal(err)
				}
			}
			if err := viA.PostSend(d); err != nil {
				t.Fatal(err)
			}
			if d.Status != StatusSuccess || d.Transferred != n {
				t.Fatalf("%v: status %v, %d bytes", op, d.Status, d.Transferred)
			}
			d.Reset()
			if op == OpSend {
				rd.Reset()
			}
		}
		post() // warm the stream's extent lists
		if got := testing.AllocsPerRun(20, post); got != 0 {
			t.Errorf("%v of %d KiB between pinned regions allocates %v objects, want 0", op, n>>10, got)
		}
	}
}

// TestNegativeSegmentRefused is the regression test for the NIC panic a
// negative segment length used to cause (slice bounds out of range in
// gather, fatal on an engine lane): all four post entry points refuse
// the descriptor with ErrNegativeSegment before ringing the doorbell.
func TestNegativeSegmentRefused(t *testing.T) {
	r := newRig(t)
	hA, _ := regFrames(t, r.nicA, r.memA, 1, tagA, MemAttrs{})
	bad := func(op Op) *Descriptor {
		return NewDescriptor(op, Segment{hA, 0, 64}, Segment{hA, 0, -32})
	}
	before := r.nicA.Stats().Doorbells
	for name, err := range map[string]error{
		"PostSend":            r.viA.PostSend(bad(OpSend)),
		"PostSend/rdma-write": r.viA.PostSend(bad(OpRDMAWrite)),
		"PostSend/rdma-read":  r.viA.PostSend(bad(OpRDMARead)),
		"PostSendBatch":       r.viA.PostSendBatch([]*Descriptor{NewDescriptor(OpSend, Segment{hA, 0, 8}), bad(OpSend)}),
		"PostRecv":            r.viA.PostRecv(bad(OpRecv)),
		"PostRecvBatch":       r.viA.PostRecvBatch([]*Descriptor{NewDescriptor(OpRecv, Segment{hA, 0, 8}), bad(OpRecv)}),
	} {
		if !errors.Is(err, ErrNegativeSegment) {
			t.Errorf("%s: %v, want ErrNegativeSegment", name, err)
		}
	}
	if got := r.nicA.Stats().Doorbells; got != before {
		t.Errorf("refused posts rang %d doorbells", got-before)
	}
	if n := r.viA.RecvQueueLen(); n != 0 {
		t.Errorf("a refused receive batch queued %d descriptors", n)
	}
}
