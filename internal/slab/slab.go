// Package slab carves small records out of shared blocks, so a path
// that makes one record per operation (a registration, its TPT region,
// its frame list) costs one heap allocation per block instead of one
// per record.
//
// A carved record is never handed out twice: the slab forgets it the
// moment it is carved, and the garbage collector frees a block once no
// record in it is referenced.  That is what makes carving safe for
// records a lock-free reader or a caller may still hold after their
// owner is done with them — a stale pointer keeps pointing at the old
// record, never at a later one.
//
// Blocks start small and double up to a few KiB, so a slab that is used
// a few times costs a few records' worth of memory, a busy one allocates
// once every few dozen records, and a live record keeps at most one
// small block from being freed.
package slab

import (
	"sync"
	"unsafe"
)

const (
	// minBlock is the length of a slab's first block.
	minBlock = 4
	// maxBlockBytes caps a block's size; a request larger than that gets
	// a block of its own.
	maxBlockBytes = 4 << 10
)

// Slab carves values of type T.  The zero value is ready to use and
// safe for concurrent use.
type Slab[T any] struct {
	mu    sync.Mutex
	block []T // the uncarved rest of the current block
	next  int // length of the next block
}

// New returns a pointer to a zeroed T that no other caller will ever be
// given.
func (s *Slab[T]) New() *T { return &s.Make(1)[0] }

// Make returns n contiguous zeroed Ts that no other caller will ever be
// given.  The slice's capacity is n, so appending to it reallocates
// instead of running into a neighbour.
func (s *Slab[T]) Make(n int) []T {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.block) < n {
		if s.next < minBlock {
			s.next = minBlock
		}
		size := s.next
		var zero T
		if limit := maxBlockBytes / max(int(unsafe.Sizeof(zero)), 1); s.next < limit {
			s.next *= 2
		}
		s.block = make([]T, max(size, n))
	}
	out := s.block[:n:n]
	s.block = s.block[n:]
	return out
}
