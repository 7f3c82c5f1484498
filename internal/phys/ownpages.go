package phys

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// chunkPages is how many pages OwnPages materializes at once: 256 KiB.
const chunkPages = 64

// chunk is the host memory of chunkPages consecutive entries' own pages.
type chunk [chunkPages << PageShift]byte

// page returns the own page of the chunk's j-th entry.
func (c *chunk) page(j int) *PageData { return (*PageData)(c[j<<PageShift:]) }

// OwnPages is the host memory behind a fixed number of page-sized entries
// — the frames of a Memory, the slots of a swap device: entry i owns page
// i, which is allocated with the rest of its chunk of chunkPages pages
// when an entry of the chunk is first used, so entries that are never
// used cost the host nothing.  Every chunk is full size, the last one
// included.
//
// The owner keeps, for each entry, a reference to the page the entry
// holds, which starts as its own and changes as hand-offs exchange pages
// between entries.  A nil reference means "the entry's own page, not yet
// materialized", never "no page", so a hand-off materializes both of its
// sides before it exchanges references.
type OwnPages struct {
	chunks []atomic.Pointer[chunk]
}

// NewOwnPages returns the own pages of n entries, none materialized.
func NewOwnPages(n int) OwnPages {
	return OwnPages{chunks: make([]atomic.Pointer[chunk], (n+chunkPages-1)/chunkPages)}
}

// Get returns entry i's own page, allocating its chunk if no entry of the
// chunk was used before.  Concurrent callers agree on one chunk through
// compare-and-swap.
func (o *OwnPages) Get(i int) *PageData {
	c := o.chunks[i/chunkPages].Load()
	if c == nil {
		c = new(chunk)
		if !o.chunks[i/chunkPages].CompareAndSwap(nil, c) {
			c = o.chunks[i/chunkPages].Load()
		}
	}
	return c.page(i % chunkPages)
}

// Peek returns entry i's own page, or nil if its chunk was never
// materialized.
func (o *OwnPages) Peek(i int) *PageData {
	if c := o.chunks[i/chunkPages].Load(); c != nil {
		return c.page(i % chunkPages)
	}
	return nil
}

// PageRef is one entry as the page-conservation audit sees it.
type PageRef struct {
	// Held is the page the entry holds; nil means its own page, never
	// materialized.
	Held *PageData
	// Own is the entry's own page; nil means its chunk was never
	// materialized.
	Own *PageData
}

// ErrPageConservation reports a page held twice or from nowhere.
var ErrPageConservation = errors.New("phys: page conservation violated")

// CheckConservation audits the pages of a node's frames and swap slots
// (Memory.AppendPages, and the swap device's): every materialized page is
// held by exactly one frame or slot, and the own page of one that holds
// none (Held == nil) is held by nobody.  It checks that each page held is
// distinct, is some frame's or slot's own page, and sits where its chunk
// exists; then the frames and slots of materialized chunks and their own
// pages are equally many, so no page can be lost either.
func CheckConservation(frames, slots []PageRef) error {
	refs := append(frames[:len(frames):len(frames)], slots...)
	name := func(i int) string {
		if i < len(frames) {
			return fmt.Sprintf("frame %d", i)
		}
		return fmt.Sprintf("slot %d", i-len(frames))
	}
	owns := make(map[*PageData]bool, len(refs))
	for _, r := range refs {
		if r.Own != nil {
			owns[r.Own] = true
		}
	}
	held := make(map[*PageData]int, len(refs))
	for i, r := range refs {
		switch {
		case r.Held == nil:
		case r.Own == nil:
			return fmt.Errorf("%w: %s holds a page but its chunk was never materialized", ErrPageConservation, name(i))
		case !owns[r.Held]:
			return fmt.Errorf("%w: %s holds a page that is no frame's or slot's own", ErrPageConservation, name(i))
		default:
			if j, dup := held[r.Held]; dup {
				return fmt.Errorf("%w: %s and %s hold the same page", ErrPageConservation, name(j), name(i))
			}
			held[r.Held] = i
		}
	}
	for i, r := range refs {
		if j, taken := held[r.Own]; r.Held == nil && r.Own != nil && taken {
			return fmt.Errorf("%w: %s holds the own page of %s, which was never materialized", ErrPageConservation, name(j), name(i))
		}
	}
	return nil
}
