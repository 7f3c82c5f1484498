package via

import (
	"errors"
	"testing"

	"repro/internal/phys"
	"repro/internal/simtime"
)

// rig is a two-node test fabric with one connected VI pair.
type rig struct {
	net        *Network
	memA, memB *phys.Memory
	nicA, nicB *NIC
	viA, viB   *VI
}

const (
	tagA ProtectionTag = 10
	tagB ProtectionTag = 20
)

func newRig(t *testing.T) *rig {
	t.Helper()
	r := &rig{
		net:  NewNetwork(),
		memA: phys.New(256),
		memB: phys.New(256),
	}
	m := simtime.NewMeter()
	r.nicA = NewNIC("nodeA", r.memA, m, 64)
	r.nicB = NewNIC("nodeB", r.memB, m, 64)
	if err := r.net.Attach(r.nicA); err != nil {
		t.Fatal(err)
	}
	if err := r.net.Attach(r.nicB); err != nil {
		t.Fatal(err)
	}
	var err error
	if r.viA, err = r.nicA.CreateVI(tagA); err != nil {
		t.Fatal(err)
	}
	if r.viB, err = r.nicB.CreateVI(tagB); err != nil {
		t.Fatal(err)
	}
	if err := r.net.Connect(r.viA, r.viB); err != nil {
		t.Fatal(err)
	}
	return r
}

// regFrames allocates n frames on mem, registers them on nic, and
// returns the handle plus the frame addresses.
func regFrames(t *testing.T, nic *NIC, mem *phys.Memory, n int, tag ProtectionTag, attrs MemAttrs) (MemHandle, []phys.Addr) {
	t.Helper()
	pages := make([]phys.Addr, n)
	for i := range pages {
		pfn, err := mem.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		pages[i] = pfn.Addr()
	}
	h, err := nic.RegisterMemory(pfnsOf(pages), 0, n*phys.PageSize, tag, attrs)
	if err != nil {
		t.Fatal(err)
	}
	return h, pages
}

func TestRegisterDeregister(t *testing.T) {
	r := newRig(t)
	free := r.nicA.FreeTPTSlots()
	h, _ := regFrames(t, r.nicA, r.memA, 4, tagA, MemAttrs{})
	if got := r.nicA.FreeTPTSlots(); got != free-4 {
		t.Fatalf("free slots %d, want %d", got, free-4)
	}
	if got := r.nicA.Regions(); got != 1 {
		t.Fatalf("regions = %d", got)
	}
	if n, err := r.nicA.RegionLength(h); err != nil || n != 4*phys.PageSize {
		t.Fatalf("length = %d, %v", n, err)
	}
	if err := r.nicA.DeregisterMemory(h); err != nil {
		t.Fatal(err)
	}
	if got := r.nicA.FreeTPTSlots(); got != free {
		t.Fatalf("slots leaked: %d of %d", got, free)
	}
	if err := r.nicA.DeregisterMemory(h); !errors.Is(err, ErrRegionReleased) {
		t.Fatalf("double dereg err = %v", err)
	}
}

func TestTPTExhaustion(t *testing.T) {
	r := newRig(t)
	if _, err := r.nicA.RegisterMemory(make([]phys.PFN, 100), 0, 100*phys.PageSize, tagA, MemAttrs{}); !errors.Is(err, ErrTPTFull) {
		t.Fatalf("err = %v, want ErrTPTFull", err)
	}
}

func TestInvalidTagRejected(t *testing.T) {
	r := newRig(t)
	if _, err := r.nicA.CreateVI(InvalidTag); err == nil {
		t.Fatal("VI with invalid tag created")
	}
	if _, err := r.nicA.RegisterMemory([]phys.PFN{0}, 0, 8, InvalidTag, MemAttrs{}); err == nil {
		t.Fatal("registration with invalid tag accepted")
	}
}

func TestDMALocalRoundTrip(t *testing.T) {
	r := newRig(t)
	h, pages := regFrames(t, r.nicA, r.memA, 2, tagA, MemAttrs{})
	msg := []byte("locktest kernel-agent write")
	// Write crossing the page boundary.
	off := phys.PageSize - 8
	if err := r.nicA.DMAWriteLocal(h, off, msg, tagA); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := r.nicA.DMAReadLocal(h, off, got, tagA); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("got %q", got)
	}
	// Verify the bytes physically landed split across the two frames.
	head := make([]byte, 8)
	if err := r.memA.ReadPhys(pages[0]+phys.Addr(off), head); err != nil {
		t.Fatal(err)
	}
	if string(head) != string(msg[:8]) {
		t.Fatalf("first frame holds %q", head)
	}
	tail := make([]byte, len(msg)-8)
	if err := r.memA.ReadPhys(pages[1], tail); err != nil {
		t.Fatal(err)
	}
	if string(tail) != string(msg[8:]) {
		t.Fatalf("second frame holds %q", tail)
	}
}

func TestDMATagCheck(t *testing.T) {
	r := newRig(t)
	h, _ := regFrames(t, r.nicA, r.memA, 1, tagA, MemAttrs{})
	err := r.nicA.DMAWriteLocal(h, 0, []byte("x"), tagB)
	if !errors.Is(err, ErrTagMismatch) {
		t.Fatalf("err = %v, want ErrTagMismatch", err)
	}
}

func TestDMABoundsCheck(t *testing.T) {
	r := newRig(t)
	h, _ := regFrames(t, r.nicA, r.memA, 1, tagA, MemAttrs{})
	err := r.nicA.DMAWriteLocal(h, phys.PageSize-2, []byte("xyz"), tagA)
	if !errors.Is(err, ErrOutOfRegion) {
		t.Fatalf("err = %v, want ErrOutOfRegion", err)
	}
}

func TestSendRecv(t *testing.T) {
	r := newRig(t)
	hA, _ := regFrames(t, r.nicA, r.memA, 1, tagA, MemAttrs{})
	hB, bPages := regFrames(t, r.nicB, r.memB, 1, tagB, MemAttrs{})

	msg := []byte("two-sided transfer")
	if err := r.nicA.DMAWriteLocal(hA, 0, msg, tagA); err != nil {
		t.Fatal(err)
	}

	rd := NewDescriptor(OpRecv, Segment{Handle: hB, Offset: 0, Length: phys.PageSize})
	if err := r.viB.PostRecv(rd); err != nil {
		t.Fatal(err)
	}
	sd := NewDescriptor(OpSend, Segment{Handle: hA, Offset: 0, Length: len(msg)})
	if err := r.viA.PostSend(sd); err != nil {
		t.Fatal(err)
	}
	if st := sd.Wait(); st != StatusSuccess {
		t.Fatalf("send status %v", st)
	}
	if st := rd.Wait(); st != StatusSuccess {
		t.Fatalf("recv status %v", st)
	}
	if rd.Transferred != len(msg) {
		t.Fatalf("recv transferred %d", rd.Transferred)
	}
	got := make([]byte, len(msg))
	if err := r.memB.ReadPhys(bPages[0], got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("receiver memory holds %q", got)
	}
	sa, sb := r.nicA.Stats(), r.nicB.Stats()
	if sa.Sends != 1 || sb.Recvs != 1 {
		t.Fatalf("stats: %+v / %+v", sa, sb)
	}
}

func TestSendImmediateData(t *testing.T) {
	r := newRig(t)
	hB, _ := regFrames(t, r.nicB, r.memB, 1, tagB, MemAttrs{})
	rd := NewDescriptor(OpRecv, Segment{Handle: hB, Offset: 0, Length: 64})
	if err := r.viB.PostRecv(rd); err != nil {
		t.Fatal(err)
	}
	sd := NewDescriptor(OpSend)
	sd.Immediate = [4]byte{1, 2, 3, 4}
	sd.HasImmediate = true
	if err := r.viA.PostSend(sd); err != nil {
		t.Fatal(err)
	}
	if st := rd.Wait(); st != StatusSuccess {
		t.Fatalf("recv status %v", st)
	}
	if !rd.HasImmediate || rd.Immediate != [4]byte{1, 2, 3, 4} {
		t.Fatalf("immediate = %v (has=%v)", rd.Immediate, rd.HasImmediate)
	}
	if got := r.nicA.Stats().ImmediateOnly; got != 1 {
		t.Fatalf("immediate-only count = %d", got)
	}
}

func TestSendWithoutRecvBreaksConnection(t *testing.T) {
	r := newRig(t)
	hA, _ := regFrames(t, r.nicA, r.memA, 1, tagA, MemAttrs{})
	sd := NewDescriptor(OpSend, Segment{Handle: hA, Offset: 0, Length: 16})
	if err := r.viA.PostSend(sd); err != nil {
		t.Fatal(err)
	}
	if st := sd.Wait(); st != StatusConnectionError {
		t.Fatalf("send status %v, want connection error", st)
	}
	if r.viA.State() != VIError || r.viB.State() != VIError {
		t.Fatalf("states %v/%v, want error state", r.viA.State(), r.viB.State())
	}
	if got := r.nicB.Stats().RecvUnderflows; got != 1 {
		t.Fatalf("underflows = %d", got)
	}
	// Further posts fail.
	if err := r.viA.PostSend(NewDescriptor(OpSend)); !errors.Is(err, ErrVIErrorState) {
		t.Fatalf("post on errored VI err = %v", err)
	}
}

func TestSendTooLargeForRecv(t *testing.T) {
	r := newRig(t)
	hA, _ := regFrames(t, r.nicA, r.memA, 1, tagA, MemAttrs{})
	hB, _ := regFrames(t, r.nicB, r.memB, 1, tagB, MemAttrs{})
	rd := NewDescriptor(OpRecv, Segment{Handle: hB, Offset: 0, Length: 8})
	if err := r.viB.PostRecv(rd); err != nil {
		t.Fatal(err)
	}
	sd := NewDescriptor(OpSend, Segment{Handle: hA, Offset: 0, Length: 100})
	if err := r.viA.PostSend(sd); err != nil {
		t.Fatal(err)
	}
	if st := sd.Wait(); st != StatusLengthError {
		t.Fatalf("send status %v", st)
	}
	if st := rd.Wait(); st != StatusLengthError {
		t.Fatalf("recv status %v", st)
	}
}

func TestSendWrongLocalTag(t *testing.T) {
	r := newRig(t)
	// Register A's memory under tag B: the VI (tag A) must be rejected.
	hA, _ := regFrames(t, r.nicA, r.memA, 1, tagB, MemAttrs{})
	sd := NewDescriptor(OpSend, Segment{Handle: hA, Offset: 0, Length: 8})
	if err := r.viA.PostSend(sd); err != nil {
		t.Fatal(err)
	}
	if st := sd.Wait(); st != StatusProtectionError {
		t.Fatalf("status = %v", st)
	}
	if got := r.nicA.Stats().TagViolations; got != 1 {
		t.Fatalf("violations = %d", got)
	}
}

func TestRDMAWrite(t *testing.T) {
	r := newRig(t)
	hA, _ := regFrames(t, r.nicA, r.memA, 1, tagA, MemAttrs{})
	hB, bPages := regFrames(t, r.nicB, r.memB, 2, tagB, MemAttrs{EnableRDMAWrite: true})
	msg := []byte("one-sided write")
	if err := r.nicA.DMAWriteLocal(hA, 0, msg, tagA); err != nil {
		t.Fatal(err)
	}
	d := NewDescriptor(OpRDMAWrite, Segment{Handle: hA, Offset: 0, Length: len(msg)})
	d.Remote = RemoteSegment{Handle: hB, Offset: 100}
	if err := r.viA.PostSend(d); err != nil {
		t.Fatal(err)
	}
	if st := d.Wait(); st != StatusSuccess {
		t.Fatalf("status = %v", st)
	}
	got := make([]byte, len(msg))
	if err := r.memB.ReadPhys(bPages[0]+100, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("remote memory holds %q", got)
	}
	if got := r.nicA.Stats().RDMAWrites; got != 1 {
		t.Fatalf("rdma writes = %d", got)
	}
}

func TestRDMAWriteRequiresEnable(t *testing.T) {
	r := newRig(t)
	hA, _ := regFrames(t, r.nicA, r.memA, 1, tagA, MemAttrs{})
	hB, _ := regFrames(t, r.nicB, r.memB, 1, tagB, MemAttrs{}) // write NOT enabled
	d := NewDescriptor(OpRDMAWrite, Segment{Handle: hA, Offset: 0, Length: 8})
	d.Remote = RemoteSegment{Handle: hB}
	if err := r.viA.PostSend(d); err != nil {
		t.Fatal(err)
	}
	if st := d.Wait(); st != StatusProtectionError {
		t.Fatalf("status = %v", st)
	}
}

func TestRDMARead(t *testing.T) {
	r := newRig(t)
	hA, aPages := regFrames(t, r.nicA, r.memA, 1, tagA, MemAttrs{})
	hB, _ := regFrames(t, r.nicB, r.memB, 1, tagB, MemAttrs{EnableRDMARead: true})
	msg := []byte("pulled from remote")
	if err := r.nicB.DMAWriteLocal(hB, 40, msg, tagB); err != nil {
		t.Fatal(err)
	}
	d := NewDescriptor(OpRDMARead, Segment{Handle: hA, Offset: 0, Length: len(msg)})
	d.Remote = RemoteSegment{Handle: hB, Offset: 40}
	if err := r.viA.PostSend(d); err != nil {
		t.Fatal(err)
	}
	if st := d.Wait(); st != StatusSuccess {
		t.Fatalf("status = %v", st)
	}
	got := make([]byte, len(msg))
	if err := r.memA.ReadPhys(aPages[0], got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("local memory holds %q", got)
	}
}

func TestRDMAReadRequiresEnable(t *testing.T) {
	r := newRig(t)
	hA, _ := regFrames(t, r.nicA, r.memA, 1, tagA, MemAttrs{})
	hB, _ := regFrames(t, r.nicB, r.memB, 1, tagB, MemAttrs{EnableRDMAWrite: true})
	d := NewDescriptor(OpRDMARead, Segment{Handle: hA, Offset: 0, Length: 8})
	d.Remote = RemoteSegment{Handle: hB}
	if err := r.viA.PostSend(d); err != nil {
		t.Fatal(err)
	}
	if st := d.Wait(); st != StatusProtectionError {
		t.Fatalf("status = %v", st)
	}
}

func TestScatterGatherMultiSegment(t *testing.T) {
	r := newRig(t)
	hA, _ := regFrames(t, r.nicA, r.memA, 2, tagA, MemAttrs{})
	hB, _ := regFrames(t, r.nicB, r.memB, 2, tagB, MemAttrs{})
	// Source: two discontiguous segments.
	if err := r.nicA.DMAWriteLocal(hA, 0, []byte("head"), tagA); err != nil {
		t.Fatal(err)
	}
	if err := r.nicA.DMAWriteLocal(hA, phys.PageSize, []byte("tail"), tagA); err != nil {
		t.Fatal(err)
	}
	rd := NewDescriptor(OpRecv,
		Segment{Handle: hB, Offset: 10, Length: 6},
		Segment{Handle: hB, Offset: phys.PageSize, Length: 6})
	if err := r.viB.PostRecv(rd); err != nil {
		t.Fatal(err)
	}
	sd := NewDescriptor(OpSend,
		Segment{Handle: hA, Offset: 0, Length: 4},
		Segment{Handle: hA, Offset: phys.PageSize, Length: 4})
	if err := r.viA.PostSend(sd); err != nil {
		t.Fatal(err)
	}
	if st := sd.Wait(); st != StatusSuccess {
		t.Fatalf("status %v", st)
	}
	got := make([]byte, 6)
	if err := r.nicB.DMAReadLocal(hB, 10, got, tagB); err != nil {
		t.Fatal(err)
	}
	if string(got[:6]) != "headta" {
		t.Fatalf("first recv segment holds %q", got)
	}
}

func TestConnectLifecycle(t *testing.T) {
	r := newRig(t)
	// Already connected: connecting again fails.
	if err := r.net.Connect(r.viA, r.viB); !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v", err)
	}
	if err := r.net.Connect(r.viA, r.viA); !errors.Is(err, ErrSameVI) {
		t.Fatalf("err = %v", err)
	}
	// Disconnect flushes pending receives.
	hB, _ := regFrames(t, r.nicB, r.memB, 1, tagB, MemAttrs{})
	rd := NewDescriptor(OpRecv, Segment{Handle: hB, Offset: 0, Length: 8})
	if err := r.viB.PostRecv(rd); err != nil {
		t.Fatal(err)
	}
	if err := r.net.Disconnect(r.viA); err != nil {
		t.Fatal(err)
	}
	if st := rd.Wait(); st != StatusCancelled {
		t.Fatalf("flushed recv status %v", st)
	}
	if r.viA.State() != VIIdle || r.viB.State() != VIIdle {
		t.Fatal("states not idle after disconnect")
	}
	// Reconnect works.
	if err := r.net.Connect(r.viA, r.viB); err != nil {
		t.Fatal(err)
	}
}

func TestPostOnIdleVIFails(t *testing.T) {
	r := newRig(t)
	v, err := r.nicA.CreateVI(tagA)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.PostRecv(NewDescriptor(OpRecv)); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("err = %v", err)
	}
	if err := v.PostSend(NewDescriptor(OpSend)); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("err = %v", err)
	}
}

func TestWrongOpOnQueue(t *testing.T) {
	r := newRig(t)
	if err := r.viA.PostRecv(NewDescriptor(OpSend)); err == nil {
		t.Fatal("send descriptor accepted on recv queue")
	}
	if err := r.viA.PostSend(NewDescriptor(OpRecv)); err == nil {
		t.Fatal("recv descriptor accepted on send queue")
	}
}

func TestDescriptorReset(t *testing.T) {
	r := newRig(t)
	hA, _ := regFrames(t, r.nicA, r.memA, 1, tagA, MemAttrs{})
	hB, _ := regFrames(t, r.nicB, r.memB, 1, tagB, MemAttrs{})
	sd := NewDescriptor(OpSend, Segment{Handle: hA, Offset: 0, Length: 8})
	for i := 0; i < 3; i++ {
		rd := NewDescriptor(OpRecv, Segment{Handle: hB, Offset: 0, Length: 64})
		if err := r.viB.PostRecv(rd); err != nil {
			t.Fatal(err)
		}
		if err := r.viA.PostSend(sd); err != nil {
			t.Fatal(err)
		}
		if st := sd.Wait(); st != StatusSuccess {
			t.Fatalf("round %d status %v", i, st)
		}
		sd.Reset()
	}
	if got := r.nicA.Stats().Sends; got != 3 {
		t.Fatalf("sends = %d", got)
	}
}

func TestStaleTPTWritesOrphanedFrame(t *testing.T) {
	// The essence of the paper's failure mode, at NIC level: register a
	// frame, then "move" the logical page to another frame (as swap-out +
	// swap-in does) without telling the NIC.  DMA lands in the old frame.
	r := newRig(t)
	h, pages := regFrames(t, r.nicA, r.memA, 1, tagA, MemAttrs{})
	newPfn, err := r.memA.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	// The NIC keeps writing to the registration-time address.
	if err := r.nicA.DMAWriteLocal(h, 0, []byte("ghost"), tagA); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5)
	if err := r.memA.ReadPhys(newPfn.Addr(), got); err != nil {
		t.Fatal(err)
	}
	if string(got) == "ghost" {
		t.Fatal("write followed the page — impossible for DMA")
	}
	if err := r.memA.ReadPhys(pages[0], got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "ghost" {
		t.Fatalf("old frame holds %q, want ghost", got)
	}
}

func TestNetworkAttachDuplicate(t *testing.T) {
	nw := NewNetwork()
	n := NewNIC("x", phys.New(1), nil, 4)
	if err := nw.Attach(n); err != nil {
		t.Fatal(err)
	}
	if err := nw.Attach(NewNIC("x", phys.New(1), nil, 4)); !errors.Is(err, ErrDuplicateNIC) {
		t.Fatalf("err = %v", err)
	}
	if got, ok := nw.NIC("x"); !ok || got != n {
		t.Fatal("lookup failed")
	}
}

func TestVirtualTimeChargedOnTransfer(t *testing.T) {
	r := newRig(t)
	hA, _ := regFrames(t, r.nicA, r.memA, 1, tagA, MemAttrs{})
	hB, _ := regFrames(t, r.nicB, r.memB, 1, tagB, MemAttrs{})
	meter := r.nicA.meter
	before := meter.Now()
	rd := NewDescriptor(OpRecv, Segment{Handle: hB, Offset: 0, Length: 1024})
	if err := r.viB.PostRecv(rd); err != nil {
		t.Fatal(err)
	}
	sd := NewDescriptor(OpSend, Segment{Handle: hA, Offset: 0, Length: 1024})
	if err := r.viA.PostSend(sd); err != nil {
		t.Fatal(err)
	}
	elapsed := meter.Now() - before
	// Must include at least wire latency, both DMA startups and the
	// (cut-through, charged once) per-byte transfer time.
	min := meter.Costs.WireLatency + 2*meter.Costs.DMAStartup + 1024*meter.Costs.DMAPerByte
	if elapsed < min {
		t.Fatalf("elapsed %v < floor %v", elapsed, min)
	}
}

func TestDeregisterChargedPerPage(t *testing.T) {
	// Deregistration invalidates one TPT slot per page, so its cost must
	// scale with region size exactly as registration does.
	r := newRig(t)
	meter := r.nicA.meter
	for _, pages := range []int{1, 5, 16} {
		h, _ := regFrames(t, r.nicA, r.memA, pages, tagA, MemAttrs{})
		before := meter.Now()
		if err := r.nicA.DeregisterMemory(h); err != nil {
			t.Fatal(err)
		}
		want := meter.Costs.TPTUpdate * simtime.Duration(pages)
		if got := meter.Now() - before; got != want {
			t.Fatalf("dereg of %d pages charged %v, want %v", pages, got, want)
		}
	}
}
