package via

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/phys"
	"repro/internal/simtime"
)

// multiRig is a two-NIC fabric with nVIs connected VI pairs, each side
// backed by one registered page.
type multiRig struct {
	net        *Network
	memA, memB *phys.Memory
	nicA, nicB *NIC
	visA, visB []*VI
	hA, hB     []MemHandle
	cqs        []*CQ // per-VI send CQs on side A
}

func newMultiRig(t *testing.T, nVIs int, withCQ bool) *multiRig {
	t.Helper()
	frames := nVIs + 16
	r := &multiRig{
		net:  NewNetwork(),
		memA: phys.New(frames),
		memB: phys.New(frames),
	}
	m := simtime.NewMeter()
	r.nicA = NewNIC("mA", r.memA, m, frames)
	r.nicB = NewNIC("mB", r.memB, m, frames)
	if err := r.net.Attach(r.nicA); err != nil {
		t.Fatal(err)
	}
	if err := r.net.Attach(r.nicB); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nVIs; i++ {
		tag := ProtectionTag(i + 1)
		var va *VI
		var err error
		if withCQ {
			cq := r.nicA.CreateCQ(1024)
			r.cqs = append(r.cqs, cq)
			va, err = r.nicA.CreateVIWithCQ(tag, cq, nil)
		} else {
			va, err = r.nicA.CreateVI(tag)
		}
		if err != nil {
			t.Fatal(err)
		}
		vb, err := r.nicB.CreateVI(tag)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.net.Connect(va, vb); err != nil {
			t.Fatal(err)
		}
		hA, _ := regFrames(t, r.nicA, r.memA, 1, tag, MemAttrs{})
		hB, _ := regFrames(t, r.nicB, r.memB, 1, tag, MemAttrs{})
		r.visA = append(r.visA, va)
		r.visB = append(r.visB, vb)
		r.hA = append(r.hA, hA)
		r.hB = append(r.hB, hB)
	}
	return r
}

// postSends posts ds through the entry point its length selects.
func postSends(v *VI, ds []*Descriptor) error {
	if len(ds) == 1 {
		return v.PostSend(ds[0])
	}
	return v.PostSendBatch(ds)
}

// TestEngineStressRace hammers the engine from many posting goroutines
// across many VIs while StartEngine/StopEngine cycle concurrently, with
// single posts on even rounds and batches on odd ones.  No descriptor
// may be lost: every post must complete, either processed by a lane,
// inline after losing the stop race, or (never here, queues are deep
// enough) with an overflow status.  Run under -race.
func TestEngineStressRace(t *testing.T) {
	const (
		nVIs   = 8
		rounds = 200
		batch  = 3
	)
	r := newMultiRig(t, nVIs, false)

	stop := make(chan struct{})
	var cycler sync.WaitGroup
	cycler.Add(1)
	go func() {
		defer cycler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.nicA.StartEngineLanes(4)
			time.Sleep(50 * time.Microsecond)
			r.nicA.StopEngine()
		}
	}()

	var wg sync.WaitGroup
	errs := make([]error, nVIs)
	for w := 0; w < nVIs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			viA, viB := r.visA[w], r.visB[w]
			for i := 0; i < rounds; i++ {
				n := 1 + i%2*(batch-1)
				rds, sds := make([]*Descriptor, n), make([]*Descriptor, n)
				for k := range rds {
					rds[k] = NewDescriptor(OpRecv, Segment{Handle: r.hB[w], Offset: 0, Length: 64})
					sds[k] = NewDescriptor(OpSend, Segment{Handle: r.hA[w], Offset: 0, Length: 16})
				}
				var err error
				if n == 1 {
					err = viB.PostRecv(rds[0])
				} else {
					err = viB.PostRecvBatch(rds)
				}
				if err == nil {
					err = postSends(viA, sds)
				}
				if err != nil {
					errs[w] = err
					return
				}
				for k := range sds {
					if st := sds[k].Wait(); st != StatusSuccess {
						errs[w] = fmt.Errorf("round %d: send %d status %v", i, k, st)
						return
					}
					if st := rds[k].Wait(); st != StatusSuccess {
						errs[w] = fmt.Errorf("round %d: recv %d status %v", i, k, st)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	cycler.Wait()
	r.nicA.StopEngine()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if got, want := r.nicA.Stats().Sends, uint64(nVIs*rounds/2*(1+batch)); got != want {
		t.Fatalf("sends = %d, want %d", got, want)
	}
}

// TestEnginePerVIOrder asserts the multi-lane engine preserves per-VI
// completion order: each VI's send completions arrive on its CQ in
// posting order even with several lanes processing VIs concurrently.
func TestEnginePerVIOrder(t *testing.T) {
	const (
		nVIs  = 8
		sends = 100
	)
	r := newMultiRig(t, nVIs, true)
	r.nicA.StartEngineLanes(4)
	defer r.nicA.StopEngine()
	if got := r.nicA.EngineLanes(); got != 4 {
		t.Fatalf("lanes = %d", got)
	}

	posted := make([][]*Descriptor, nVIs)
	var wg sync.WaitGroup
	for w := 0; w < nVIs; w++ {
		for i := 0; i < sends; i++ {
			rd := NewDescriptor(OpRecv, Segment{Handle: r.hB[w], Offset: 0, Length: 64})
			if err := r.visB[w].PostRecv(rd); err != nil {
				t.Fatal(err)
			}
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < sends; i++ {
				sd := NewDescriptor(OpSend, Segment{Handle: r.hA[w], Offset: 0, Length: 8})
				posted[w] = append(posted[w], sd)
				if err := r.visA[w].PostSend(sd); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < nVIs; w++ {
		for _, sd := range posted[w] {
			if st := sd.Wait(); st != StatusSuccess {
				t.Fatalf("vi %d: send status %v", w, st)
			}
		}
	}
	for w := 0; w < nVIs; w++ {
		for i := 0; i < sends; i++ {
			// Wait, not Poll: a descriptor's CQ entry trails its Wait
			// wakeup by the completing lane's push.
			c, err := r.cqs[w].Wait()
			if err != nil {
				t.Fatalf("vi %d completion %d: %v", w, i, err)
			}
			if c.Desc != posted[w][i] {
				t.Fatalf("vi %d: completion %d out of order", w, i)
			}
		}
	}
}

// TestEngineQueueOverflow verifies a post that finds its lane full
// completes with StatusQueueOverflow instead of blocking the doorbell —
// every descriptor of the post, each exactly once, whether it came
// through PostSend or PostSendBatch.  The engine is built by hand with a
// one-slot lane and no worker so the queue state is deterministic.
func TestEngineQueueOverflow(t *testing.T) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("post%d", n), func(t *testing.T) {
			r := newMultiRig(t, 1, true)
			e := &engine{lanes: make([]engineLane, 1)}
			e.lanes[0].ch = make(chan engineItem, 1)
			r.nicA.mu.Lock()
			r.nicA.eng = e
			r.nicA.mu.Unlock()

			post := func() []*Descriptor {
				ds := make([]*Descriptor, n)
				for i := range ds {
					ds[i] = NewDescriptor(OpSend, Segment{Handle: r.hA[0], Offset: 0, Length: 8})
				}
				if err := postSends(r.visA[0], ds); err != nil {
					t.Fatal(err)
				}
				return ds
			}
			for i := 0; i < n; i++ {
				rd := NewDescriptor(OpRecv, Segment{Handle: r.hB[0], Offset: 0, Length: 64})
				if err := r.visB[0].PostRecv(rd); err != nil {
					t.Fatal(err)
				}
			}
			first := post() // fills the lane's one slot
			overflow := post()
			for i, d := range overflow {
				if st := d.Wait(); st != StatusQueueOverflow {
					t.Fatalf("overflow %d status = %v, want %v", i, st, StatusQueueOverflow)
				}
				c, err := r.cqs[0].Poll()
				if err != nil || c.Desc != d {
					t.Fatalf("overflow %d: completion %+v, %v; want its own, in order", i, c, err)
				}
			}
			if c, err := r.cqs[0].Poll(); err == nil {
				t.Fatalf("extra completion after the overflowed post: %+v", c)
			}
			// The queued post was never lost: drain and process it.
			r.nicA.mu.Lock()
			r.nicA.eng = nil
			r.nicA.mu.Unlock()
			item := <-e.lanes[0].ch
			r.nicA.process(item.vi, item.d)
			for _, d := range item.rest {
				r.nicA.process(item.vi, d)
			}
			for i, d := range first {
				if st := d.Wait(); st != StatusSuccess {
					t.Fatalf("first %d status = %v", i, st)
				}
			}
		})
	}
}

// TestStaleHandleReleased verifies accesses through a deregistered
// handle fail with ErrRegionReleased (tombstoned), while a handle that
// never existed still reports ErrBadHandle.
func TestStaleHandleReleased(t *testing.T) {
	r := newRig(t)
	h, _ := regFrames(t, r.nicA, r.memA, 2, tagA, MemAttrs{})
	if err := r.nicA.DMAWriteLocal(h, 0, []byte("x"), tagA); err != nil {
		t.Fatal(err)
	}
	if err := r.nicA.DeregisterMemory(h); err != nil {
		t.Fatal(err)
	}
	if err := r.nicA.DMAWriteLocal(h, 0, []byte("x"), tagA); !errors.Is(err, ErrRegionReleased) {
		t.Fatalf("write through stale handle: %v, want ErrRegionReleased", err)
	}
	if _, err := r.nicA.RegionLength(h); !errors.Is(err, ErrRegionReleased) {
		t.Fatalf("length of stale handle: %v", err)
	}
	if err := r.nicA.DeregisterMemory(h); !errors.Is(err, ErrRegionReleased) {
		t.Fatalf("double dereg: %v", err)
	}
	if _, err := r.nicA.RegionLength(MemHandle(9999)); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("unknown handle: %v", err)
	}
}

// TestStaleHandleWrap is the regression test for the tombstone-ring bug:
// with the old bounded ring (1024 entries), the 1025th deregistration
// evicted the oldest tombstone and its handle misclassified as
// ErrBadHandle — indistinguishable from a handle that never existed.
// Handles are never reused, so the exact classification (1 ≤ h < nextH
// means released) must hold no matter how many registrations have come
// and gone.
func TestStaleHandleWrap(t *testing.T) {
	tb := newTPT(4)
	oldest, err := tb.register([]phys.PFN{0}, 0, 8, 1, MemAttrs{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.deregister(oldest); err != nil {
		t.Fatal(err)
	}
	// Churn well past the old ring size of 1024.
	for i := 0; i < 1100; i++ {
		h, err := tb.register([]phys.PFN{0}, 0, 8, 1, MemAttrs{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tb.deregister(h); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.translate(oldest, 0, 1, nil); !errors.Is(err, ErrRegionReleased) {
		t.Fatalf("oldest released handle: %v, want ErrRegionReleased", err)
	}
	if _, err := tb.deregister(oldest); !errors.Is(err, ErrRegionReleased) {
		t.Fatalf("double dereg after churn: %v, want ErrRegionReleased", err)
	}
	// Never-issued handles still classify as bad, on both sides of the
	// issued range.
	if _, err := tb.translate(tb.peekNextHandle()+100, 0, 1, nil); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("future handle: %v, want ErrBadHandle", err)
	}
	if _, err := tb.translate(0, 0, 1, nil); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("zero handle: %v, want ErrBadHandle", err)
	}
}

// TestTranslateRangeExtents exercises the one-lock range translation:
// extent coalescing over adjacent frames, splitting over scattered
// frames, and whole-range validation before any data moves.
func TestTranslateRangeExtents(t *testing.T) {
	tb := newTPT(8)
	// Pages 0/1 physically adjacent, page 2 elsewhere.
	pages := []phys.Addr{4 * phys.PageSize, 5 * phys.PageSize, 9 * phys.PageSize}
	h, err := tb.register(pfnsOf(pages), 0, 3*phys.PageSize, 7, MemAttrs{})
	if err != nil {
		t.Fatal(err)
	}
	exts, _, err := tb.translateRange(h, 0, 3*phys.PageSize, 7, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []extent{
		{addr: 4 * phys.PageSize, n: 2 * phys.PageSize},
		{addr: 9 * phys.PageSize, n: phys.PageSize},
	}
	if len(exts) != len(want) {
		t.Fatalf("extents = %+v, want %+v", exts, want)
	}
	for i := range want {
		if exts[i] != want[i] {
			t.Fatalf("extent %d = %+v, want %+v", i, exts[i], want[i])
		}
	}
	// A sub-range crossing the discontinuity splits at it.
	exts, _, err = tb.translateRange(h, phys.PageSize+100, phys.PageSize, 7, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(exts) != 2 || exts[0].addr != 5*phys.PageSize+100 || exts[0].n != phys.PageSize-100 ||
		exts[1].addr != 9*phys.PageSize || exts[1].n != 100 {
		t.Fatalf("split extents = %+v", exts)
	}
	// Out-of-range is rejected up front.
	if _, _, err := tb.translateRange(h, 2*phys.PageSize, 2*phys.PageSize, 7, nil, nil); !errors.Is(err, ErrOutOfRegion) {
		t.Fatalf("out of range: %v", err)
	}
	if _, _, err := tb.translateRange(h, 0, 8, 8, nil, nil); !errors.Is(err, ErrTagMismatch) {
		t.Fatalf("wrong tag: %v", err)
	}
	// Zero length resolves to no extents.
	if exts, _, err := tb.translateRange(h, 0, 0, 7, nil, nil); err != nil || len(exts) != 0 {
		t.Fatalf("zero length: %v %+v", err, exts)
	}
}

// TestDescriptorLazyDone verifies Done works before and after
// completion and that Reset re-arms without losing completions.
func TestDescriptorLazyDone(t *testing.T) {
	d := NewDescriptor(OpSend)
	select {
	case <-d.Done():
		t.Fatal("done before completion")
	default:
	}
	d.complete(StatusSuccess, 3)
	<-d.Done() // closed now
	if st := d.Wait(); st != StatusSuccess {
		t.Fatalf("status %v", st)
	}
	d.Reset()
	select {
	case <-d.Done():
		t.Fatal("done after reset")
	default:
	}
	d.complete(StatusCancelled, 0)
	if st := d.Wait(); st != StatusCancelled {
		t.Fatalf("status %v", st)
	}
}
