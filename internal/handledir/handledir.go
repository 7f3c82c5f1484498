// Package handledir maps monotonically issued handles to values through
// a directory whose read side takes no lock, does no hashing and
// allocates nothing: one atomic load of a published index, a short
// search, and one atomic load of the value.
//
// The directory holds chunks of consecutive handles, minChunk long at
// first and doubling up to maxChunk, so a directory with a few handles
// costs a few pointers.  The index is an immutable snapshot of the live
// chunks, replaced whole when a chunk opens or closes.  A chunk whose
// handles have all been deleted leaves the index and, if full-size, is
// reused for a later run of handles — so a reader still holding an older
// index may reach a value stored under another handle.  Load therefore
// returns a value the caller must check carries the handle it asked for.
package handledir

import "sync/atomic"

const minChunk, maxChunk = 8, 256

// Dir is a handle directory.  Writers (Store, Delete) must be
// serialized by the caller; Load may run concurrently with them.  The
// zero value is ready to use.
type Dir[T any] struct {
	index atomic.Pointer[[]entry[T]]

	// Writer state.
	spare    []*chunk[T] // dead full-size chunks, for reuse
	chunkLen int         // length of the next chunk made fresh
}

// chunk holds the values of a run of consecutive handles.  Readers
// touch only vals; first and dead are writer state.
type chunk[T any] struct {
	vals  []atomic.Pointer[T]
	first uint32 // handle of vals[0]
	dead  int    // handles of the run deleted so far
}

type entry[T any] struct {
	first uint32
	c     *chunk[T]
}

// find returns the index entry whose run covers h, or nil.
func find[T any](index []entry[T], h uint32) *entry[T] {
	lo, hi := 0, len(index)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); index[m].first <= h {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == 0 || int(h-index[lo-1].first) >= len(index[lo-1].c.vals) {
		return nil
	}
	return &index[lo-1]
}

// Load returns the value stored under h, nil if there is none.  Racing
// with the reuse of h's chunk, it may instead return a value stored
// under a later handle; a caller whose values carry their handle must
// check it.
func (d *Dir[T]) Load(h uint32) *T {
	if p := d.index.Load(); p != nil {
		if e := find(*p, h); e != nil {
			return e.c.vals[h-e.first].Load()
		}
	}
	return nil
}

// Store publishes v under h: a handle already stored (to replace its
// value) or the first handle not yet stored.  Handles are stored in
// increasing order and each is deleted at most once.
func (d *Dir[T]) Store(h uint32, v *T) {
	var index []entry[T]
	if p := d.index.Load(); p != nil {
		index = *p
	}
	e := find(index, h)
	if e == nil {
		var c *chunk[T]
		if n := len(d.spare); n > 0 {
			c, d.spare = d.spare[n-1], d.spare[:n-1]
		} else {
			d.chunkLen = min(max(2*d.chunkLen, minChunk), maxChunk)
			c = &chunk[T]{vals: make([]atomic.Pointer[T], d.chunkLen)}
		}
		c.first, c.dead = h, 0
		next := append(append(make([]entry[T], 0, len(index)+1), index...), entry[T]{h, c})
		d.index.Store(&next)
		e = &next[len(index)]
	}
	e.c.vals[h-e.first].Store(v)
}

// Delete removes and returns the value stored under h (nil if there is
// none).  The chunk of a run whose handles are all deleted closes.
func (d *Dir[T]) Delete(h uint32) *T {
	p := d.index.Load()
	if p == nil {
		return nil
	}
	e := find(*p, h)
	if e == nil {
		return nil
	}
	c := e.c
	v := c.vals[h-c.first].Swap(nil)
	if v == nil {
		return nil
	}
	if c.dead++; c.dead == len(c.vals) {
		next := make([]entry[T], 0, len(*p)-1)
		for _, o := range *p {
			if o.c != c {
				next = append(next, o)
			}
		}
		d.index.Store(&next)
		if len(c.vals) == maxChunk {
			d.spare = append(d.spare, c)
		}
	}
	return v
}
