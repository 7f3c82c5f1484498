package handledir

import (
	"sync"
	"testing"
)

type val struct{ h uint32 }

// TestStoreLoadDelete: values are found under their handles across chunk
// boundaries, deleted handles and handles never stored load nil, and
// replacing a value publishes the new one.
func TestStoreLoadDelete(t *testing.T) {
	var d Dir[val]
	if d.Load(1) != nil || d.Delete(1) != nil {
		t.Fatal("empty directory returned a value")
	}
	vals := make([]*val, 600)
	for h := uint32(1); h < 600; h++ {
		vals[h] = &val{h}
		d.Store(h, vals[h])
	}
	for h := uint32(1); h < 600; h++ {
		if d.Load(h) != vals[h] {
			t.Fatalf("handle %d: wrong value", h)
		}
	}
	if d.Load(0) != nil || d.Load(600) != nil || d.Load(1<<30) != nil {
		t.Fatal("a handle never stored returned a value")
	}
	repl := &val{7}
	d.Store(7, repl)
	if d.Load(7) != repl {
		t.Fatal("replaced value not published")
	}
	if d.Delete(7) != repl || d.Load(7) != nil || d.Delete(7) != nil {
		t.Fatal("delete did not remove exactly once")
	}
}

// TestChunksRecycleAndIndexStaysSmall: with a few handles live at a
// time, dead chunks leave the index and full-size ones are reused, so
// the index stays a few entries long and chunks stop being made.
func TestChunksRecycleAndIndexStaysSmall(t *testing.T) {
	var d Dir[val]
	const live = 5
	made := map[*chunk[val]]bool{}
	for h := uint32(1); h < 5000; h++ {
		d.Store(h, &val{h})
		if h > live {
			if v := d.Delete(h - live); v == nil || v.h != h-live {
				t.Fatalf("delete %d returned %v", h-live, v)
			}
		}
		index := *d.index.Load()
		if len(index) > 3 {
			t.Fatalf("index holds %d chunks with %d handles live", len(index), live)
		}
		for _, e := range index {
			made[e.c] = true
		}
	}
	// 8, 16, 32, 64, 128 and two 256-handle chunks that alternate.
	if len(made) != 7 {
		t.Fatalf("%d distinct chunks made, want 7", len(made))
	}
}

// TestStaleIndexReachesRecycledChunk: a reader that loaded the index
// before a run died can, once its chunk is reused, reach a value stored
// under another handle — the case Load's callers check for.
func TestStaleIndexReachesRecycledChunk(t *testing.T) {
	var d Dir[val]
	h := uint32(1)
	for ; h <= 8+16+32+64+128; h++ { // fill the growing chunks
		d.Store(h, &val{h})
		d.Delete(h)
	}
	first := h
	d.Store(h, &val{h}) // opens the first full-size chunk
	stale := d.index.Load()
	d.Delete(h)
	for h++; h < first+256; h++ {
		d.Store(h, &val{h})
		d.Delete(h)
	}
	d.Store(h, &val{h}) // the run is dead: its chunk is reused here
	e := find(*stale, first)
	if e == nil {
		t.Fatal("stale index lost the old run")
	}
	if v := e.c.vals[first-e.first].Load(); v == nil || v.h != h {
		t.Fatalf("stale index slot of handle %d holds %v, want the value of %d", first, v, h)
	}
	if d.Load(first) != nil {
		t.Fatal("the current index still resolves a dead handle")
	}
}

// TestConcurrentReaders: loads run alongside a writer that stores and
// deletes through many recycled chunks.  A reader sees nil, the value
// of the handle it asked for, or — through a stale index whose chunk
// was reused — the value of a handle issued long after; never the value
// of another handle it was told is live.  Run under -race.
func TestConcurrentReaders(t *testing.T) {
	var d Dir[val]
	var mu sync.Mutex
	var liveLo, liveHi uint32 // handles in [liveLo, liveHi] are stored
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				lo, hi := liveLo, liveHi
				mu.Unlock()
				for h := lo; h <= hi && h > 0; h++ {
					if v := d.Load(h); v != nil && v.h != h && v.h <= hi {
						t.Errorf("handle %d loaded the value of %d", h, v.h)
						return
					}
				}
			}
		}()
	}
	for h := uint32(1); h < 3000; h++ {
		d.Store(h, &val{h})
		mu.Lock()
		liveHi = h
		if h > 4 {
			liveLo = h - 3
		} else {
			liveLo = 1
		}
		mu.Unlock()
		if h > 4 {
			d.Delete(h - 4)
		}
	}
	close(stop)
	wg.Wait()
}
