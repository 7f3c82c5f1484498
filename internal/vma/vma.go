// Package vma implements virtual memory areas: the per-process list of
// address ranges with common attributes, including the VM_LOCKED flag the
// mlock-based locking approach relies on.
//
// The set supports exactly the operations do_mlock needs (paper §3.2):
// finding the areas covering a range, splitting areas at range borders so
// flags can be changed for a sub-range, and merging adjacent areas with
// identical flags back together.
package vma

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/pgtable"
)

// Flags describe one virtual memory area.
type Flags uint32

const (
	// Read permits loads.
	Read Flags = 1 << iota
	// Write permits stores.
	Write
	// Exec permits instruction fetch (tracked for completeness).
	Exec
	// Locked excludes the area from swapping (VM_LOCKED).
	Locked
	// Shared marks a shared mapping (no COW on fork).
	Shared
)

func (f Flags) String() string {
	b := []byte("-----")
	if f&Read != 0 {
		b[0] = 'r'
	}
	if f&Write != 0 {
		b[1] = 'w'
	}
	if f&Exec != 0 {
		b[2] = 'x'
	}
	if f&Locked != 0 {
		b[3] = 'L'
	} else {
		b[3] = '-'
	}
	if f&Shared != 0 {
		b[4] = 's'
	} else {
		b[4] = 'p'
	}
	return string(b)
}

// VMA is one area: pages [Start, End) share the same flags.
type VMA struct {
	Start pgtable.VPN // first page
	End   pgtable.VPN // one past the last page
	Flags Flags
}

// Pages reports the area's length in pages.
func (v VMA) Pages() int { return int(v.End - v.Start) }

// Contains reports whether the page lies inside the area.
func (v VMA) Contains(p pgtable.VPN) bool { return p >= v.Start && p < v.End }

func (v VMA) String() string {
	return fmt.Sprintf("[%#x,%#x) %s", uint64(v.Start.Addr()), uint64(v.End.Addr()), v.Flags)
}

// Set is an ordered, non-overlapping collection of VMAs.
type Set struct {
	areas []VMA // sorted by Start, pairwise disjoint
}

// Errors returned by Set operations.
var (
	ErrOverlap  = errors.New("vma: new area overlaps an existing one")
	ErrNotFound = errors.New("vma: no area covers the range")
	ErrEmpty    = errors.New("vma: empty range")
)

// Insert adds a new area.  It fails if the range overlaps any existing
// area, and merges with identical-flag neighbours.
func (s *Set) Insert(a VMA) error {
	if a.Start >= a.End {
		return ErrEmpty
	}
	i := s.lowerBound(a.Start)
	if i < len(s.areas) && s.areas[i].Start < a.End {
		return fmt.Errorf("%w: %v vs %v", ErrOverlap, a, s.areas[i])
	}
	if i > 0 && s.areas[i-1].End > a.Start {
		return fmt.Errorf("%w: %v vs %v", ErrOverlap, a, s.areas[i-1])
	}
	s.areas = append(s.areas, VMA{})
	copy(s.areas[i+1:], s.areas[i:])
	s.areas[i] = a
	s.mergeAround(i)
	return nil
}

// Remove deletes all areas wholly inside [start, end), splitting border
// areas as needed (the munmap shape).  Pages outside any area are ignored.
func (s *Set) Remove(start, end pgtable.VPN) error {
	if start >= end {
		return ErrEmpty
	}
	if err := s.splitAt(start); err != nil {
		return err
	}
	if err := s.splitAt(end); err != nil {
		return err
	}
	out := s.areas[:0]
	for _, a := range s.areas {
		if a.Start >= start && a.End <= end {
			continue
		}
		out = append(out, a)
	}
	s.areas = out
	return nil
}

// Find returns the area containing the page.
func (s *Set) Find(p pgtable.VPN) (VMA, bool) {
	i := s.lowerBound(p + 1)
	if i == 0 {
		return VMA{}, false
	}
	a := s.areas[i-1]
	if a.Contains(p) {
		return a, true
	}
	return VMA{}, false
}

// Covered reports whether every page in [start, end) belongs to some area.
func (s *Set) Covered(start, end pgtable.VPN) bool {
	p := start
	for p < end {
		a, ok := s.Find(p)
		if !ok {
			return false
		}
		p = a.End
	}
	return true
}

// SetFlags changes flag bits on exactly the range [start, end): set bits
// in set are added, bits in clear removed.  Border areas are split first
// and identical neighbours merged afterwards — the do_mlock shape.  The
// whole range must be covered by existing areas.  It returns the number
// of split operations performed (charged by the caller's cost model).
func (s *Set) SetFlags(start, end pgtable.VPN, set, clear Flags) (splits int, err error) {
	if start >= end {
		return 0, ErrEmpty
	}
	if !s.Covered(start, end) {
		return 0, fmt.Errorf("%w: [%#x,%#x)", ErrNotFound, uint64(start.Addr()), uint64(end.Addr()))
	}
	n, err := s.splitCountAt(start)
	if err != nil {
		return 0, err
	}
	splits += n
	n, err = s.splitCountAt(end)
	if err != nil {
		return splits, err
	}
	splits += n
	for i := range s.areas {
		a := &s.areas[i]
		if a.Start >= start && a.End <= end {
			a.Flags = (a.Flags | set) &^ clear
		}
	}
	s.mergeAll()
	return splits, nil
}

// Areas returns a copy of the ordered area list.
func (s *Set) Areas() []VMA {
	out := make([]VMA, len(s.areas))
	copy(out, s.areas)
	return out
}

// Len reports the number of areas.
func (s *Set) Len() int { return len(s.areas) }

// At returns the i-th area in address order (iteration without the copy
// Areas makes; the set must not be modified meanwhile).
func (s *Set) At(i int) VMA { return s.areas[i] }

// LockedPages reports the total number of pages in Locked areas
// (the RLIMIT_MEMLOCK accounting input).
func (s *Set) LockedPages() int {
	n := 0
	for _, a := range s.areas {
		if a.Flags&Locked != 0 {
			n += a.Pages()
		}
	}
	return n
}

// CheckInvariants validates ordering and disjointness.
func (s *Set) CheckInvariants() error {
	for i, a := range s.areas {
		if a.Start >= a.End {
			return fmt.Errorf("vma: empty area %v at %d", a, i)
		}
		if i > 0 && s.areas[i-1].End > a.Start {
			return fmt.Errorf("vma: overlap %v / %v", s.areas[i-1], a)
		}
		if i > 0 && s.areas[i-1].Start >= a.Start {
			return fmt.Errorf("vma: unsorted %v / %v", s.areas[i-1], a)
		}
	}
	return nil
}

// lowerBound returns the index of the first area with Start >= p.
func (s *Set) lowerBound(p pgtable.VPN) int {
	return sort.Search(len(s.areas), func(i int) bool { return s.areas[i].Start >= p })
}

// splitAt ensures no area crosses boundary p.
func (s *Set) splitAt(p pgtable.VPN) error {
	_, err := s.splitCountAt(p)
	return err
}

// splitCountAt splits the area crossing p (if any) and reports whether a
// split happened (0 or 1).
func (s *Set) splitCountAt(p pgtable.VPN) (int, error) {
	i := s.lowerBound(p + 1)
	if i == 0 {
		return 0, nil
	}
	a := s.areas[i-1]
	if !a.Contains(p) || a.Start == p {
		return 0, nil
	}
	left := VMA{Start: a.Start, End: p, Flags: a.Flags}
	right := VMA{Start: p, End: a.End, Flags: a.Flags}
	s.areas[i-1] = left
	s.areas = append(s.areas, VMA{})
	copy(s.areas[i+1:], s.areas[i:])
	s.areas[i] = right
	return 1, nil
}

// mergeAround coalesces the area at index i with identical neighbours.
func (s *Set) mergeAround(i int) {
	// Merge right first so i stays valid.
	for i+1 < len(s.areas) && s.canMerge(i, i+1) {
		s.areas[i].End = s.areas[i+1].End
		s.areas = append(s.areas[:i+1], s.areas[i+2:]...)
	}
	for i > 0 && s.canMerge(i-1, i) {
		s.areas[i-1].End = s.areas[i].End
		s.areas = append(s.areas[:i], s.areas[i+1:]...)
		i--
	}
}

// mergeAll coalesces every adjacent identical pair.
func (s *Set) mergeAll() {
	for i := 0; i+1 < len(s.areas); {
		if s.canMerge(i, i+1) {
			s.areas[i].End = s.areas[i+1].End
			s.areas = append(s.areas[:i+1], s.areas[i+2:]...)
		} else {
			i++
		}
	}
}

func (s *Set) canMerge(i, j int) bool {
	return s.areas[i].End == s.areas[j].Start && s.areas[i].Flags == s.areas[j].Flags
}
