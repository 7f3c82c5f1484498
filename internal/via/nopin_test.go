package via

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/phys"
)

// allocFrame grabs one frame and returns its physical address.
func allocFrame(t *testing.T, mem *phys.Memory) phys.Addr {
	t.Helper()
	pfn, err := mem.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	return pfn.Addr()
}

// TestNoPinTPTInvalidateRepair exercises the present-bit and epoch
// machinery at the TPT level.
func TestNoPinTPTInvalidateRepair(t *testing.T) {
	tb := newTPT(8)
	pages := []phys.Addr{0, phys.PageSize, 2 * phys.PageSize}
	h, err := tb.register(pfnsOf(pages), 0, 3*phys.PageSize, 5, MemAttrs{NoPin: true})
	if err != nil {
		t.Fatal(err)
	}
	if p, total, _ := tb.presentPages(h); p != 3 || total != 3 {
		t.Fatalf("fresh nopin region: %d/%d present", p, total)
	}
	if _, _, ep, _ := tb.pageState(h, 0); ep != 0 {
		t.Fatalf("fresh epoch = %d", ep)
	}

	if !tb.invalidatePage(h, 1) {
		t.Fatal("invalidate of present page reported false")
	}
	if tb.invalidatePage(h, 1) {
		t.Fatal("double invalidate reported true")
	}
	if tb.invalidatePage(h, 99) || tb.invalidatePage(h, -1) || tb.invalidatePage(12345, 0) {
		t.Fatal("out-of-range/unknown invalidate reported true")
	}
	if p, _, _ := tb.presentPages(h); p != 2 {
		t.Fatalf("after invalidate: %d present, want 2", p)
	}
	if _, _, ep, _ := tb.pageState(h, 0); ep != 1 {
		t.Fatalf("epoch after invalidate = %d, want 1", ep)
	}

	// Translation of the hole raises a typed IO page fault; the present
	// pages still translate.
	_, err = tb.translate(h, phys.PageSize+8, 5, nil)
	var pf *IOPageFaultError
	if !errors.As(err, &pf) || !errors.Is(err, ErrIOPageFault) {
		t.Fatalf("translate over hole: %v", err)
	}
	if pf.Handle != h || pf.Page != 1 || pf.Epoch != 1 {
		t.Fatalf("fault details = %+v", pf)
	}
	if pa, err := tb.translate(h, 8, 5, nil); err != nil || pa != 8 {
		t.Fatalf("present page translate = %#x, %v", uint64(pa), err)
	}
	// Range translation validates the whole span before moving bytes.
	if _, _, err := tb.translateRange(h, 0, 3*phys.PageSize, 5, nil, nil); !errors.Is(err, ErrIOPageFault) {
		t.Fatalf("range over hole: %v", err)
	}

	// walkRange reports the hole instead of failing.
	var walked []bool
	ep, err := tb.walkRange(h, 0, 3*phys.PageSize, 5, nil, func(pos, page int, pa phys.Addr, n int, present bool) {
		walked = append(walked, present)
	})
	if err != nil || ep != 1 {
		t.Fatalf("walkRange: epoch %d, %v", ep, err)
	}
	if len(walked) != 3 || !walked[0] || walked[1] || !walked[2] {
		t.Fatalf("walked present bits = %v", walked)
	}

	// Repair to a fresh frame: present again, new epoch, new address.
	newPA := phys.Addr(7 * phys.PageSize)
	if err := tb.repairPage(h, 1, newPA); err != nil {
		t.Fatal(err)
	}
	if _, _, ep, _ := tb.pageState(h, 0); ep != 2 {
		t.Fatalf("epoch after repair = %d, want 2", ep)
	}
	if pa, err := tb.translate(h, phys.PageSize+8, 5, nil); err != nil || pa != newPA+8 {
		t.Fatalf("repaired translate = %#x, %v", uint64(pa), err)
	}

	// Pinned regions refuse the nopin edits.
	hp, err := tb.register([]phys.PFN{3}, 0, 64, 5, MemAttrs{})
	if err != nil {
		t.Fatal(err)
	}
	if tb.invalidatePage(hp, 0) {
		t.Fatal("invalidate of pinned region reported true")
	}
	if err := tb.repairPage(hp, 0, 0); err == nil {
		t.Fatal("repair of pinned region succeeded")
	}
}

// TestNICFaultRetryPolicy: under the default policy a DMA that hits a
// non-present translation parks, raises the fault to the handler, and
// resumes after repair — and without a handler it surfaces the fault.
func TestNICFaultRetryPolicy(t *testing.T) {
	r := newRig(t)
	h, pages := regFrames(t, r.nicA, r.memA, 2, tagA, MemAttrs{NoPin: true})

	if !r.nicA.InvalidateTPTPage(h, 1) {
		t.Fatal("invalidate failed")
	}
	if p, total, err := r.nicA.PresentPages(h); err != nil || p != 1 || total != 2 {
		t.Fatalf("present = %d/%d, %v", p, total, err)
	}

	// No handler installed: the fault propagates.
	buf := make([]byte, 2*phys.PageSize)
	if err := r.nicA.DMAWriteLocal(h, 0, buf, tagA); !errors.Is(err, ErrIOPageFault) {
		t.Fatalf("unhandled fault: %v", err)
	}
	if got := r.nicA.Stats().IOPageFaults; got != 1 {
		t.Fatalf("IOPageFaults = %d", got)
	}

	// Install a handler that models the host faulting the page back in
	// at a different frame.
	newFrame := allocFrame(t, r.memA)
	var handled atomic.Int64
	r.nicA.SetIOFaultHandler(func(fh MemHandle, page int) error {
		handled.Add(1)
		return r.nicA.RepairTPTPage(fh, page, newFrame)
	})
	for i := range buf {
		buf[i] = byte(i)
	}
	if err := r.nicA.DMAWriteLocal(h, 0, buf, tagA); err != nil {
		t.Fatal(err)
	}
	if handled.Load() != 1 {
		t.Fatalf("handler ran %d times", handled.Load())
	}
	st := r.nicA.Stats()
	if st.IOPageFaults != 2 || st.FaultRetries != 1 || st.TPTRepairs != 1 || st.TPTInvalidations != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// First page landed in its original frame, second in the repaired one.
	got := make([]byte, phys.PageSize)
	if err := r.memA.ReadPhys(pages[0], got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf[:phys.PageSize]) {
		t.Fatal("page 0 content wrong")
	}
	if err := r.memA.ReadPhys(newFrame, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf[phys.PageSize:]) {
		t.Fatal("repaired page content wrong")
	}
	// The read path resumes through the repaired entry too.
	rd := make([]byte, 2*phys.PageSize)
	if err := r.nicA.DMAReadLocal(h, 0, rd, tagA); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rd, buf) {
		t.Fatal("read-back mismatch")
	}
}

// TestNICSpeculativePolicy: speculative DMA streams the present pages
// immediately and retransmits only the stale chunks after validation.
func TestNICSpeculativePolicy(t *testing.T) {
	r := newRig(t)
	const npages = 4
	h, pages := regFrames(t, r.nicA, r.memA, npages, tagA, MemAttrs{NoPin: true})

	want := make([]byte, npages*phys.PageSize)
	for i := range want {
		want[i] = byte(i * 7)
	}
	if err := r.nicA.DMAWriteLocal(h, 0, want, tagA); err != nil {
		t.Fatal(err)
	}

	// The kernel "moves" page 2: content migrates to a fresh frame and
	// the TPT entry goes non-present.
	moved := allocFrame(t, r.memA)
	pageBuf := make([]byte, phys.PageSize)
	if err := r.memA.ReadPhys(pages[2], pageBuf); err != nil {
		t.Fatal(err)
	}
	if err := r.memA.WritePhys(moved, pageBuf); err != nil {
		t.Fatal(err)
	}
	if !r.nicA.InvalidateTPTPage(h, 2) {
		t.Fatal("invalidate failed")
	}

	r.nicA.SetIOFaultPolicy(FaultSpeculative)
	defer r.nicA.SetIOFaultPolicy(FaultRetry)
	var handled atomic.Int64
	r.nicA.SetIOFaultHandler(func(fh MemHandle, page int) error {
		handled.Add(1)
		if page != 2 {
			t.Errorf("fault for page %d, want 2", page)
		}
		return r.nicA.RepairTPTPage(fh, page, moved)
	})

	got := make([]byte, npages*phys.PageSize)
	if err := r.nicA.DMAReadLocal(h, 0, got, tagA); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("speculative read returned wrong payload")
	}
	if handled.Load() != 1 {
		t.Fatalf("handler ran %d times", handled.Load())
	}
	st := r.nicA.Stats()
	if st.SpecRetransmits != 1 || st.RetransmitBytes != phys.PageSize {
		t.Fatalf("retransmit stats = %d chunks / %d bytes", st.SpecRetransmits, st.RetransmitBytes)
	}
	if st.FaultRetries != 0 {
		t.Fatalf("speculative path counted %d park-and-retry stalls", st.FaultRetries)
	}
}

// TestSendCompletesIOPageFault: with no handler installed, a descriptor
// whose payload page is non-present completes with StatusIOPageFault
// rather than hanging or corrupting.
func TestSendCompletesIOPageFault(t *testing.T) {
	r := newRig(t)
	h, _ := regFrames(t, r.nicA, r.memA, 1, tagA, MemAttrs{NoPin: true})
	hB, _ := regFrames(t, r.nicB, r.memB, 1, tagB, MemAttrs{})

	rd := NewDescriptor(OpRecv, Segment{Handle: hB, Offset: 0, Length: 64})
	if err := r.viB.PostRecv(rd); err != nil {
		t.Fatal(err)
	}
	if !r.nicA.InvalidateTPTPage(h, 0) {
		t.Fatal("invalidate failed")
	}
	sd := NewDescriptor(OpSend, Segment{Handle: h, Offset: 0, Length: 64})
	if err := r.viA.PostSend(sd); err != nil {
		t.Fatal(err)
	}
	if st := sd.Wait(); st != StatusIOPageFault {
		t.Fatalf("send status = %v, want %v", st, StatusIOPageFault)
	}
}

// TestTPTConcurrentChurnRace is the regression test for the deferred
// slot free: lock-free readers translate against whatever region they
// loaded while writers register, invalidate, repair and deregister
// regions whose slots are recycled through the grace list.  Run under
// -race; premature slot reuse shows up as a data race or as a translate
// result outside the handle's frames.
func TestTPTConcurrentChurnRace(t *testing.T) {
	const (
		slots  = 64
		npages = 4
		iters  = 400
	)
	tb := newTPT(slots)
	var cur atomic.Uint64 // latest live handle (0 = none yet)
	stop := make(chan struct{})

	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			scratch := make([]extent, 0, npages)
			for {
				select {
				case <-stop:
					return
				default:
				}
				h := MemHandle(cur.Load())
				if h == 0 {
					continue
				}
				if _, err := tb.translate(h, 8, 9, nil); err != nil &&
					!errors.Is(err, ErrRegionReleased) && !errors.Is(err, ErrIOPageFault) {
					t.Errorf("translate: %v", err)
					return
				}
				exts, fenced, err := tb.translateRange(h, 0, npages*phys.PageSize, 9, nil, scratch[:0])
				if fenced {
					tb.fence.RUnlock()
				}
				if err != nil {
					if !errors.Is(err, ErrRegionReleased) && !errors.Is(err, ErrIOPageFault) {
						t.Errorf("translateRange: %v", err)
						return
					}
					continue
				}
				n := 0
				for _, e := range exts {
					n += e.n
				}
				if n != npages*phys.PageSize {
					t.Errorf("extents cover %d bytes", n)
					return
				}
			}
		}()
	}

	// Churn writer: register → invalidate → repair → deregister.  A
	// second registration per round doubles slot-recycling pressure.
	pages := make([]phys.Addr, npages)
	for i := 0; i < iters; i++ {
		for p := range pages {
			pages[p] = phys.Addr((i*npages + p) % 1024 * phys.PageSize)
		}
		h, err := tb.register(pfnsOf(pages), 0, npages*phys.PageSize, 9, MemAttrs{NoPin: true})
		if err != nil {
			t.Fatal(err)
		}
		cur.Store(uint64(h))
		h2, err := tb.register(pfnsOf(pages), 0, npages*phys.PageSize, 9, MemAttrs{})
		if err != nil {
			t.Fatal(err)
		}
		tb.invalidatePage(h, i%npages)
		_ = tb.repairPage(h, i%npages, phys.Addr(i%512*phys.PageSize))
		if _, err := tb.deregister(h2); err != nil {
			t.Fatal(err)
		}
		if _, err := tb.deregister(h); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()

	if got := tb.freeSlots(); got != slots {
		t.Fatalf("slots leaked: %d of %d free", got, slots)
	}
	if got := tb.regionCount(); got != 0 {
		t.Fatalf("%d regions left registered", got)
	}
}
