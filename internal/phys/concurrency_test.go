package phys

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// lockedModel is the page map as it was before it went lock-free: plain
// fields, every operation one critical section (single-threaded here, so
// no lock).  The atomic implementation must be indistinguishable from it
// — same results, same typed errors, same messages — on any sequence of
// calls, the invalid ones included.
type lockedModel struct {
	pages []Page
	free  []PFN
	stats Stats
}

func newLockedModel(n int) *lockedModel {
	m := &lockedModel{pages: make([]Page, n)}
	for i := n - 1; i >= 0; i-- {
		m.free = append(m.free, PFN(i))
	}
	return m
}

func (m *lockedModel) page(pfn PFN) (*Page, error) {
	if int(pfn) >= len(m.pages) {
		return nil, fmt.Errorf("%w: %d (of %d)", ErrBadPFN, pfn, len(m.pages))
	}
	return &m.pages[pfn], nil
}

func (m *lockedModel) alloc() (PFN, error) {
	if len(m.free) == 0 {
		m.stats.FailedAlloc++
		return NoPFN, ErrOutOfMemory
	}
	pfn := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	m.pages[pfn] = Page{Count: 1}
	m.stats.Allocs++
	return pfn, nil
}

func (m *lockedModel) get(pfn PFN) error {
	pg, err := m.page(pfn)
	if err != nil {
		return err
	}
	if pg.Count == 0 {
		return fmt.Errorf("%w: get on pfn %d", ErrFrameFree, pfn)
	}
	pg.Count++
	return nil
}

func (m *lockedModel) put(pfn PFN) (bool, error) {
	pg, err := m.page(pfn)
	if err != nil {
		return false, err
	}
	if pg.Count <= 0 {
		return false, fmt.Errorf("%w: put on pfn %d", ErrFrameFree, pfn)
	}
	if pg.Count == 1 && pg.Pins != 0 {
		return false, fmt.Errorf("%w: pfn %d, %d pins", ErrPinnedFree, pfn, pg.Pins)
	}
	pg.Count--
	if pg.Count == 0 {
		pg.Flags = 0
		m.free = append(m.free, pfn)
		m.stats.Frees++
		return true, nil
	}
	return false, nil
}

func (m *lockedModel) pin(pfn PFN) error {
	pg, err := m.page(pfn)
	if err != nil {
		return err
	}
	if pg.Count == 0 {
		return fmt.Errorf("%w: pin on pfn %d", ErrFrameFree, pfn)
	}
	pg.Pins++
	return nil
}

func (m *lockedModel) unpin(pfn PFN) error {
	pg, err := m.page(pfn)
	if err != nil {
		return err
	}
	if pg.Pins <= 0 {
		return fmt.Errorf("%w: pfn %d", ErrNotPinned, pfn)
	}
	pg.Pins--
	return nil
}

func (m *lockedModel) setFlags(pfn PFN, set, clr PageFlags) error {
	pg, err := m.page(pfn)
	if err != nil {
		return err
	}
	pg.Flags = (pg.Flags | set) &^ clr
	return nil
}

// sameErr demands the same typed error and the same text.
func sameErr(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	for _, typed := range []error{ErrBadPFN, ErrFrameFree, ErrOutOfMemory, ErrPinnedFree, ErrNotPinned} {
		if errors.Is(got, typed) != errors.Is(want, typed) {
			return false
		}
	}
	return got.Error() == want.Error()
}

// TestPageMapMatchesLockedModel drives both implementations through
// random sequences that go out of their way to be wrong — bad frame
// numbers, operations on free frames, unpin without a pin, the last put
// with pins outstanding, double frees — and compares every result, every
// error and the whole page map after every step.
func TestPageMapMatchesLockedModel(t *testing.T) {
	const nframes = 6
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, ref := New(nframes), newLockedModel(nframes)
		for step := 0; step < 400; step++ {
			pfn := PFN(rng.Intn(nframes + 2)) // the last two are out of range
			f := PageFlags(1 << rng.Intn(5))
			var got, want error
			op := rng.Intn(7)
			switch op {
			case 0:
				var a, b PFN
				a, got = m.AllocFrame()
				b, want = ref.alloc()
				if a != b {
					t.Fatalf("seed %d step %d: alloc %d, model %d", seed, step, a, b)
				}
			case 1:
				got, want = m.Get(pfn), ref.get(pfn)
			case 2:
				var a, b bool
				a, got = m.Put(pfn)
				b, want = ref.put(pfn)
				if a != b {
					t.Fatalf("seed %d step %d: put(%d) freed=%v, model %v", seed, step, pfn, a, b)
				}
			case 3:
				got, want = m.Pin(pfn), ref.pin(pfn)
			case 4:
				got, want = m.Unpin(pfn), ref.unpin(pfn)
			case 5:
				got, want = m.SetFlags(pfn, f), ref.setFlags(pfn, f, 0)
			case 6:
				got, want = m.ClearFlags(pfn, f), ref.setFlags(pfn, 0, f)
			}
			if !sameErr(got, want) {
				t.Fatalf("seed %d step %d: op %d on pfn %d: error %q, model %q", seed, step, op, pfn, got, want)
			}
			for i := 0; i < nframes+1; i++ {
				p := PFN(i)
				info, err := m.PageInfo(p)
				refPg, refErr := ref.page(p)
				if !sameErr(err, refErr) {
					t.Fatalf("seed %d step %d: PageInfo(%d) error %q, model %q", seed, step, p, err, refErr)
				}
				if refErr != nil {
					if m.RefCount(p) != 0 || m.Pins(p) != 0 || m.Flags(p) != 0 || m.Reclaimable(p) || m.TestFlags(p, PGLocked) {
						t.Fatalf("seed %d step %d: out-of-range pfn %d reads non-zero", seed, step, p)
					}
					continue
				}
				if info != *refPg || m.RefCount(p) != refPg.Count || m.Pins(p) != refPg.Pins || m.Flags(p) != refPg.Flags {
					t.Fatalf("seed %d step %d: pfn %d is %+v, model %+v", seed, step, p, info, *refPg)
				}
				wantReclaim := refPg.Count > 0 && refPg.Pins == 0 && refPg.Flags&(PGLocked|PGReserved) == 0
				if m.Reclaimable(p) != wantReclaim {
					t.Fatalf("seed %d step %d: Reclaimable(%d) = %v with %+v", seed, step, p, !wantReclaim, *refPg)
				}
			}
			if m.FreeFrames() != len(ref.free) || m.Stats() != ref.stats {
				t.Fatalf("seed %d step %d: free %d stats %+v, model %d %+v",
					seed, step, m.FreeFrames(), m.Stats(), len(ref.free), ref.stats)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
	}
}

// TestPageMapConcurrentChurn runs alloc/get/pin/flag/unpin/put cycles
// from many goroutines at once: each on frames of its own, and all of
// them on a few shared frames the test holds a reference to, with DMA
// copies and invariant checks running alongside.  Every other cycle
// allocates with a page of the worker's own and frees by handing the
// frame's page back, as the swap path does, while the checker reads
// every frame's page reference.  Under -race this is the check that the
// lock-free page map has no unsynchronized access; without it, that no
// update is lost, no page ends up in two frames, no frame whose page was
// never materialized has its own page taken, and at the end every page —
// the frames' own and the workers' — is held exactly once.
func TestPageMapConcurrentChurn(t *testing.T) {
	const (
		workers = 8
		rounds  = 400
		shared  = 3
	)
	m := New(workers*2 + shared)
	spares := make([]*PageData, workers) // each worker's page while its frame is free
	for w := range spares {
		spares[w] = new(PageData)
	}
	foreign := append([]*PageData(nil), spares...)
	var sharedPFN [shared]PFN
	for i := range sharedPFN {
		pfn, err := m.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		sharedPFN[i] = pfn
	}

	stop := make(chan struct{})
	var checker sync.WaitGroup
	checker.Add(1)
	go func() {
		defer checker.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := m.CheckInvariants(); err != nil {
				t.Errorf("mid-churn: %v", err)
				return
			}
			if err := checkHeldOnce(m.AppendPages(nil), nil); err != nil {
				t.Errorf("mid-churn: %v", err)
				return
			}
			for _, pfn := range sharedPFN {
				if pg, _ := m.PageInfo(pfn); pg.Count < 1 || pg.Pins < 0 || pg.Pins >= pg.Count {
					t.Errorf("shared pfn %d read as %+v", pfn, pg)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 64)
			spare := spares[w]
			defer func() { spares[w] = spare }()
			for r := 0; r < rounds; r++ {
				// A frame of this worker's own: the full life cycle.
				handOff := r%2 == 1
				var own PFN
				var err error
				if handOff {
					own, spare, err = m.AllocFrameWith(spare)
				} else {
					own, err = m.AllocFrame()
				}
				if err != nil {
					t.Errorf("worker %d: alloc: %v", w, err)
					return
				}
				sh := sharedPFN[(w+r)%shared]
				for _, pfn := range []PFN{own, sh} {
					if err := m.Get(pfn); err != nil {
						t.Errorf("worker %d: get %d: %v", w, pfn, err)
					}
					if err := m.Pin(pfn); err != nil {
						t.Errorf("worker %d: pin %d: %v", w, pfn, err)
					}
				}
				_ = m.SetFlags(own, PGDirty|PGReferenced)
				_ = m.SetFlags(sh, PGReferenced)
				_ = m.ClearFlags(sh, PGDirty)
				if err := m.WritePhys(own.Addr()+Addr(w), buf); err != nil {
					t.Errorf("worker %d: write: %v", w, err)
				}
				if err := m.ReadPhys(own.Addr(), buf); err != nil {
					t.Errorf("worker %d: read: %v", w, err)
				}
				if m.Reclaimable(own) || m.Pins(own) != 1 || m.RefCount(own) != 2 {
					t.Errorf("worker %d: own pfn %d: %+v", w, own, Page{m.RefCount(own), m.Flags(own), m.Pins(own)})
				}
				for _, pfn := range []PFN{own, sh} {
					if err := m.Unpin(pfn); err != nil {
						t.Errorf("worker %d: unpin %d: %v", w, pfn, err)
					}
					if freed, err := m.Put(pfn); err != nil || freed {
						t.Errorf("worker %d: put %d: freed=%v err=%v", w, pfn, freed, err)
					}
				}
				if !handOff {
					if freed, err := m.Put(own); err != nil || !freed {
						t.Errorf("worker %d: final put %d: freed=%v err=%v", w, own, freed, err)
					}
				} else if spare, err = m.PutHandOff(own, spare); err != nil || spare == nil {
					t.Errorf("worker %d: final hand-off put %d: page %p err=%v", w, own, spare, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	checker.Wait()

	for _, pfn := range sharedPFN {
		if pg, _ := m.PageInfo(pfn); pg.Count != 1 || pg.Pins != 0 {
			t.Fatalf("shared pfn %d ended as %+v: an update was lost", pfn, pg)
		}
		if freed, err := m.Put(pfn); err != nil || !freed {
			t.Fatalf("releasing shared pfn %d: freed=%v err=%v", pfn, freed, err)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := checkHeldOnce(m.AppendPages(nil), spares); err != nil {
		t.Fatal(err)
	}
	// Exact conservation: the frames and the workers between them hold
	// every materialized own page and every page the workers brought.
	refs := m.AppendPages(nil)
	want := map[*PageData]bool{}
	for _, p := range foreign {
		want[p] = true
	}
	for _, r := range refs {
		if r.Held != nil {
			want[r.Own] = true
		}
	}
	got := map[*PageData]bool{}
	for _, r := range refs {
		if r.Held != nil {
			got[r.Held] = true
		}
	}
	for _, p := range spares {
		got[p] = true
	}
	if len(got) != len(want) {
		t.Fatalf("%d pages held after the churn, want %d", len(got), len(want))
	}
	for p := range want {
		if !got[p] {
			t.Fatalf("page %p lost in the churn", p)
		}
	}
	if got := m.FreeFrames(); got != m.NumFrames() {
		t.Fatalf("%d of %d frames free after the churn", got, m.NumFrames())
	}
	if s := m.Stats(); s.Allocs != s.Frees || s.Allocs != workers*rounds+shared {
		t.Fatalf("stats %+v, want %d allocs and as many frees", s, workers*rounds+shared)
	}
}

// checkHeldOnce is the conservation oracle for frames that exchange pages
// with holders outside the memory (the churn's workers, holding extra):
// no page is held twice, and the own page of a frame whose page was never
// materialized is held by nobody.
func checkHeldOnce(refs []PageRef, extra []*PageData) error {
	held := map[*PageData]bool{}
	for _, p := range extra {
		if held[p] {
			return fmt.Errorf("page %p held twice", p)
		}
		held[p] = true
	}
	for pfn, r := range refs {
		if r.Held == nil {
			continue
		}
		if held[r.Held] {
			return fmt.Errorf("page %p of frame %d held twice", r.Held, pfn)
		}
		held[r.Held] = true
	}
	for pfn, r := range refs {
		if r.Held == nil && r.Own != nil && held[r.Own] {
			return fmt.Errorf("frame %d's own page was never materialized, yet it is held", pfn)
		}
	}
	return nil
}
