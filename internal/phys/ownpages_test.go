package phys

import (
	"errors"
	"sync"
	"testing"
)

// TestBusMasterBoundsOverflow: every bus-master path rejects a range that
// does not lie wholly in memory with ErrBadAddr — at the end of memory, at
// 2^63 (negative as an int), just below the top of the address space, and
// where a+n wraps around — and accepts the last bytes that do fit.
func TestBusMasterBoundsOverflow(t *testing.T) {
	const frames = 4
	end := Addr(frames * PageSize)
	cases := []struct {
		name string
		a    Addr
		n    int
		ok   bool
	}{
		{"last bytes", end - 8, 8, true},
		{"empty at the end", end, 0, true},
		{"one past the end", end - 7, 8, false},
		{"at the end", end, 1, false},
		{"longer than memory", 0, int(end) + 1, false},
		{"2^63", 1 << 63, 8, false},
		{"^0-4095", ^Addr(0) - 4095, 8, false},
		{"a+n wraps", ^Addr(0) - 3, 8, false},
	}
	for _, c := range cases {
		m := New(frames)
		buf := make([]byte, c.n)
		ops := []struct {
			name string
			do   func() error
		}{
			{"ReadPhys", func() error { return m.ReadPhys(c.a, buf) }},
			{"WritePhys", func() error { return m.WritePhys(c.a, buf) }},
			{"CopyPhys dst", func() error { return m.CopyPhys(c.a, 0, c.n) }},
			{"CopyPhys src", func() error { return m.CopyPhys(0, c.a, c.n) }},
			{"CopyFrom dst", func() error { return m.CopyFrom(c.a, New(frames), 0, c.n) }},
			{"CopyFrom src", func() error { return New(frames).CopyFrom(0, m, c.a, c.n) }},
		}
		for _, op := range ops {
			err := op.do()
			if c.ok && err != nil || !c.ok && !errors.Is(err, ErrBadAddr) {
				t.Errorf("%s: %s(%#x, %d) = %v, want ok=%v", c.name, op.name, uint64(c.a), c.n, err, c.ok)
			}
		}
	}
	if err := New(frames).CopyPhys(0, PageSize, -1); !errors.Is(err, ErrBadAddr) {
		t.Errorf("negative length: %v", err)
	}
}

// TestFirstDMATouchConcurrent: goroutines that make the first bus-master
// access to a never-allocated frame at the same time all reach one page,
// the frame's own, and every write lands in it.  Run it under -race.
func TestFirstDMATouchConcurrent(t *testing.T) {
	const (
		touchers = 8
		pfn      = PFN(chunkPages + 5) // a chunk nobody has materialized
	)
	m := New(2 * chunkPages)
	pages := make([]*byte, touchers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < touchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			if err := m.WritePhys(pfn.Addr()+Addr(g), []byte{byte(g + 1)}); err != nil {
				t.Error(err)
			}
			pages[g] = &m.run(pfn.Addr(), 1)[0]
		}(g)
	}
	close(start)
	wg.Wait()
	own := m.own.Peek(int(pfn))
	if own == nil || m.data[pfn].Load() != own {
		t.Fatal("the frame does not hold its own page")
	}
	for g, p := range pages {
		if p != &own[0] {
			t.Fatalf("toucher %d reached another page", g)
		}
		if own[g] != byte(g+1) {
			t.Fatalf("toucher %d's write was lost", g)
		}
	}
	if n := chunksMaterialized(&m.own); n != 1 {
		t.Fatalf("%d chunks materialized, want 1", n)
	}
}

// TestAllocMaterializesByChunk: allocation materializes a frame's page and
// its chunk only; a fresh chunk's pages come out zero without a clear, and
// a frame that never held a page reads zero when reallocated after DMA
// wrote to it while it was free.
func TestAllocMaterializesByChunk(t *testing.T) {
	m := New(3 * chunkPages)
	if chunksMaterialized(&m.own) != 0 {
		t.Fatal("New materialized a chunk")
	}
	for i := 0; i < chunkPages+1; i++ {
		if _, err := m.AllocFrame(); err != nil {
			t.Fatal(err)
		}
	}
	if n := chunksMaterialized(&m.own); n != 2 {
		t.Fatalf("%d frames allocated, %d chunks materialized, want 2", chunkPages+1, n)
	}
	if m.data[chunkPages+1].Load() != nil {
		t.Fatal("a frame not yet allocated holds a page")
	}
	next := PFN(chunkPages + 1)
	if err := m.WritePhys(next.Addr(), []byte("stale DMA into a free frame")); err != nil {
		t.Fatal(err)
	}
	pfn, err := m.AllocFrame()
	if err != nil || pfn != next {
		t.Fatalf("pfn %d, err %v", pfn, err)
	}
	if fb, _ := m.FrameBytes(pfn); fb[0] != 0 {
		t.Fatal("a frame DMA wrote while free was not zero-filled")
	}
	if err := CheckConservation(m.AppendPages(nil), nil); err != nil {
		t.Fatal(err)
	}
}

// TestCheckConservation: the audit accepts frames and slots that hold
// their own pages, have exchanged them, or never materialized them, and
// rejects each way a page can be duplicated or come from outside — the
// hand-off that lets a nil spare through included: the entry left nil
// reads as holding its own page, which has gone to another.
func TestCheckConservation(t *testing.T) {
	type side struct {
		held []*PageData
		own  OwnPages
	}
	newSide := func(n int) *side { return &side{make([]*PageData, n), NewOwnPages(n)} }
	get := func(s *side, i int) *PageData {
		if s.held[i] == nil {
			s.held[i] = s.own.Get(i)
		}
		return s.held[i]
	}
	refs := func(s *side) (out []PageRef) {
		for i, p := range s.held {
			out = append(out, PageRef{Held: p, Own: s.own.Peek(i)})
		}
		return out
	}
	setup := func() (frames, slots *side) {
		frames, slots = newSide(chunkPages+2), newSide(3)
		get(frames, 0)
		frames.held[1], slots.held[0] = get(slots, 0), get(frames, 1) // a hand-off
		return frames, slots
	}
	if f, s := setup(); CheckConservation(refs(f), refs(s)) != nil {
		t.Fatalf("a sound exchange fails the audit: %v", CheckConservation(refs(f), refs(s)))
	}
	for _, c := range []struct {
		name    string
		corrupt func(frames, slots *side)
	}{
		{"nil spare handed to a slot", func(frames, slots *side) {
			// Frame 0's page goes to slot 1, and slot 1's page — never
			// materialized — comes back as nil.
			frames.held[0], slots.held[1] = slots.held[1], frames.held[0]
		}},
		{"nil spare handed to a frame", func(frames, slots *side) {
			frames.held[0], slots.held[2] = slots.held[2], frames.held[0]
		}},
		{"page held twice", func(frames, slots *side) {
			frames.held[0] = slots.held[0]
		}},
		{"page from outside", func(frames, slots *side) {
			frames.held[0] = new(PageData)
		}},
		{"page held without its chunk", func(frames, slots *side) {
			frames.held[chunkPages], slots.held[0] = slots.held[0], frames.held[chunkPages]
		}},
	} {
		frames, slots := setup()
		c.corrupt(frames, slots)
		if err := CheckConservation(refs(frames), refs(slots)); !errors.Is(err, ErrPageConservation) {
			t.Errorf("%s: audit = %v", c.name, err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("a frame hand-off let a nil page through")
		}
	}()
	New(2).exchange(0, nil)
}

// chunksMaterialized reports how many of o's chunks exist.
func chunksMaterialized(o *OwnPages) int {
	n := 0
	for i := range o.chunks {
		if o.chunks[i].Load() != nil {
			n++
		}
	}
	return n
}
