package via

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sort"
	"testing"

	"repro/internal/phys"
)

// FuzzTranslateRange drives the TPT's range translation with arbitrary
// geometry and checks its safety invariants: a successful translation
// covers exactly the requested bytes with non-overlapping extents, each
// byte maps to the same physical address the single-byte translate
// reports, and any out-of-bounds or mistagged request fails before any
// extent is produced.
//
// Input layout: data[0] page count, data[1] region start offset,
// data[2] flags (bit 0: physically contiguous frames, bit 1: wrong
// tag), data[3:7] range offset, data[7:11] range length, and optionally
// data[11:13] the number of short-lived registrations made before the
// region, which puts its handle anywhere in the directory's growing
// chunks or in a recycled one; the last of them must stay released.
func FuzzTranslateRange(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 16, 0, 0})         // 1 page, in range
	f.Add([]byte{4, 0, 1, 0, 0, 0, 0, 0, 64, 0, 0})         // contiguous frames coalesce
	f.Add([]byte{8, 128, 0, 255, 15, 0, 0, 255, 255, 0, 0}) // offset region, big range
	f.Add([]byte{2, 0, 2, 0, 0, 0, 0, 16, 0, 0, 0})         // tag mismatch
	f.Add([]byte{2, 0, 0, 255, 255, 255, 255, 16, 0, 0, 0}) // negative offset
	f.Add([]byte{3, 77, 1, 200, 0, 0, 0, 0, 48, 0, 0})      // page-straddling range
	f.Add([]byte{1, 0, 0, 0, 16, 0, 0, 255, 255, 255, 127}) // huge length overflows region
	f.Add([]byte{1, 0, 0, 64, 0, 0, 0, 224, 255, 255, 255}) // negative length (-32), as a bad segment carries
	f.Add([]byte{2, 9, 0, 0, 0, 0, 0, 0, 32, 0, 0, 248, 0}) // first handle of a full-size chunk (249)
	f.Add([]byte{3, 0, 1, 0, 0, 0, 0, 0, 48, 0, 0, 200, 3}) // in the first recycled chunk (969)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 11 {
			t.Skip()
		}
		pageCount := int(data[0]%8) + 1
		regOff := int(data[1]) % phys.PageSize
		contiguous := data[2]&1 != 0
		wrongTag := data[2]&2 != 0
		off := int(int32(binary.LittleEndian.Uint32(data[3:7])))
		length := int(int32(binary.LittleEndian.Uint32(data[7:11])))

		tpt := newTPT(64)
		churn := 0
		if len(data) >= 13 {
			churn = int(binary.LittleEndian.Uint16(data[11:13])) % 1200
		}
		for i := 0; i < churn; i++ {
			h, err := tpt.register([]phys.PFN{phys.PFN(i)}, 0, 8, 7, MemAttrs{})
			if err == nil {
				_, err = tpt.deregister(h)
			}
			if err != nil {
				t.Fatalf("churn registration %d: %v", i, err)
			}
		}
		const base = phys.Addr(1 << 20)
		pages := make([]phys.Addr, pageCount)
		for i := range pages {
			if contiguous {
				pages[i] = base + phys.Addr(i*phys.PageSize)
			} else {
				// Gaps between frames: extents must never coalesce
				// across page boundaries.
				pages[i] = base + phys.Addr(2*i*phys.PageSize)
			}
		}
		regLen := pageCount*phys.PageSize - regOff
		const tag ProtectionTag = 7
		h, err := tpt.register(pfnsOf(pages), regOff, regLen, tag, MemAttrs{})
		if err != nil {
			t.Fatalf("register: %v", err)
		}

		if churn > 0 {
			if _, _, err := tpt.translateRange(h-1, 0, 8, 7, nil, nil); !errors.Is(err, ErrRegionReleased) {
				t.Fatalf("released handle %d: %v", h-1, err)
			}
		}

		accessTag := tag
		if wrongTag {
			accessTag = tag + 1
		}
		exts, _, err := tpt.translateRange(h, off, length, accessTag, nil, nil)

		if wrongTag || off < 0 || length < 0 || off+length > regLen {
			if err == nil {
				t.Fatalf("invalid access succeeded: off=%d len=%d regLen=%d wrongTag=%v",
					off, length, regLen, wrongTag)
			}
			return
		}
		if err != nil {
			t.Fatalf("valid access failed: off=%d len=%d regLen=%d: %v", off, length, regLen, err)
		}

		total := 0
		for _, e := range exts {
			if e.n <= 0 {
				t.Fatalf("empty extent %+v", e)
			}
			total += e.n
		}
		if total != length {
			t.Fatalf("extents cover %d bytes, want %d", total, length)
		}
		if length == 0 {
			return
		}

		// No two extents may overlap.
		sorted := append([]extent(nil), exts...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].addr < sorted[j].addr })
		for i := 1; i < len(sorted); i++ {
			if sorted[i-1].addr+phys.Addr(sorted[i-1].n) > sorted[i].addr {
				t.Fatalf("extents overlap: %+v then %+v", sorted[i-1], sorted[i])
			}
		}

		// Every extent byte must agree with the single-byte translation
		// (check extent edges plus a stride through the interior).
		cur := off
		for _, e := range exts {
			for _, rel := range sampleOffsets(e.n) {
				pa, terr := tpt.translate(h, cur+rel, tag, nil)
				if terr != nil {
					t.Fatalf("translate(%d): %v", cur+rel, terr)
				}
				if want := e.addr + phys.Addr(rel); pa != want {
					t.Fatalf("byte %d: extent says %#x, translate says %#x", cur+rel, want, pa)
				}
			}
			cur += e.n
		}
	})
}

// sampleOffsets picks the offsets within an n-byte extent to verify:
// both edges plus a coarse interior stride.
func sampleOffsets(n int) []int {
	offs := []int{0, n - 1}
	for rel := 701; rel < n-1; rel += 701 {
		offs = append(offs, rel)
	}
	return offs
}

// FuzzGatherScatter pushes an arbitrary payload through the full
// send/receive data path with fuzz-chosen gather and scatter segment
// splits and verifies the bytes arrive intact and in order, regardless
// of how the segments straddle page boundaries.
//
// Input layout: data[0:2] gather cut points, data[2:4] scatter cut
// points, data[4:] payload (capped at the 4-page region).
func FuzzGatherScatter(f *testing.F) {
	f.Add(append([]byte{0, 0, 0, 0}, []byte("hello via")...))
	f.Add(append([]byte{3, 200, 128, 9}, bytes.Repeat([]byte{0xA5}, 5000)...))
	f.Add(append([]byte{255, 1, 7, 255}, bytes.Repeat([]byte{1, 2, 3}, 4000)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			t.Skip()
		}
		const regionPages = 4
		payload := data[4:]
		if len(payload) > regionPages*phys.PageSize {
			payload = payload[:regionPages*phys.PageSize]
		}
		n := len(payload)

		r := newRig(t)
		hA, pagesA := regFrames(t, r.nicA, r.memA, regionPages, tagA, MemAttrs{})
		hB, pagesB := regFrames(t, r.nicB, r.memB, regionPages, tagB, MemAttrs{})

		// Lay the payload into A's region, page by page (the frames are
		// not necessarily physically contiguous).
		for i := 0; i < regionPages && i*phys.PageSize < n; i++ {
			end := (i + 1) * phys.PageSize
			if end > n {
				end = n
			}
			if err := r.memA.WritePhys(pagesA[i], payload[i*phys.PageSize:end]); err != nil {
				t.Fatal(err)
			}
		}

		sd := NewDescriptor(OpSend, segsFor(hA, n, data[0], data[1])...)
		rd := NewDescriptor(OpRecv, segsFor(hB, n, data[2], data[3])...)
		if err := r.viB.PostRecv(rd); err != nil {
			t.Fatal(err)
		}
		if err := r.viA.PostSend(sd); err != nil {
			t.Fatal(err)
		}
		if sd.Status != StatusSuccess {
			t.Fatalf("send status %v", sd.Status)
		}
		if rd.Status != StatusSuccess {
			t.Fatalf("recv status %v", rd.Status)
		}
		if sd.Transferred != n || rd.Transferred != n {
			t.Fatalf("transferred %d/%d bytes, want %d", sd.Transferred, rd.Transferred, n)
		}

		got := make([]byte, n)
		for i := 0; i < regionPages && i*phys.PageSize < n; i++ {
			end := (i + 1) * phys.PageSize
			if end > n {
				end = n
			}
			if err := r.memB.ReadPhys(pagesB[i], got[i*phys.PageSize:end]); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload corrupted in transit (%d bytes)", n)
		}
	})
}

// segsFor splits [0, n) of a region into up to three ordered segments
// at the two cut points (scaled into range, empty parts dropped), so a
// fuzzer can aim segment boundaries at page edges.
func segsFor(h MemHandle, n int, c1, c2 byte) []Segment {
	a, b := int(c1)*n/256, int(c2)*n/256
	if a > b {
		a, b = b, a
	}
	var segs []Segment
	for _, cut := range [][2]int{{0, a}, {a, b}, {b, n}} {
		if cut[1] > cut[0] {
			segs = append(segs, Segment{Handle: h, Offset: cut[0], Length: cut[1] - cut[0]})
		}
	}
	if len(segs) == 0 {
		// Zero-length payload: a single empty segment keeps the
		// descriptor well-formed.
		segs = []Segment{{Handle: h, Offset: 0, Length: 0}}
	}
	return segs
}
