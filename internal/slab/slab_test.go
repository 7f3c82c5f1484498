package slab

import (
	"sync"
	"testing"
)

// TestCarvedRecordsAreDistinct: no record is handed out twice, even to
// concurrent callers, and a carved slice cannot grow into a neighbour.
func TestCarvedRecordsAreDistinct(t *testing.T) {
	var s Slab[int64]
	const workers, per = 4, 500
	got := make([][]*int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				got[w] = append(got[w], s.New())
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[*int64]bool)
	for _, ps := range got {
		for _, p := range ps {
			if seen[p] {
				t.Fatal("a record was carved twice")
			}
			seen[p] = true
		}
	}
	a := s.Make(3)
	b := s.Make(2)
	if cap(a) != 3 {
		t.Fatalf("cap = %d, want 3", cap(a))
	}
	a = append(a, 7)
	b[0] = 1
	if a[3] != 7 || b[0] != 1 {
		t.Fatal("append reached a neighbouring record")
	}
}

// TestBlocksGrowGeometrically: a busy slab allocates once per block,
// blocks double from a few records up to the byte cap, and a request
// larger than the cap is served whole.
func TestBlocksGrowGeometrically(t *testing.T) {
	var s Slab[[64]byte] // 64 B records: the cap is 64 per block
	allocs := testing.AllocsPerRun(1, func() {
		s = Slab[[64]byte]{}
		for i := 0; i < 4+8+16+32+64+64+64+64; i++ {
			s.New()
		}
	})
	if allocs != 8 {
		t.Fatalf("%v allocations for eight blocks' worth of records", allocs)
	}
	if big := s.Make(1000); len(big) != 1000 {
		t.Fatalf("len = %d", len(big))
	}
}
