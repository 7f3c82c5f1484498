package phys

import (
	"errors"
	"testing"

	"repro/internal/faultinject"
)

func TestInjectedFrameFaults(t *testing.T) {
	m := New(8)
	pfn, err := m.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(1)
	m.SetFaultInjector(inj)
	inj.FailNth(SiteWrite, 1, nil)
	inj.FailNth(SiteRead, 1, nil)

	buf := []byte{1, 2, 3, 4}
	if err := m.WritePhys(pfn.Addr(), buf); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("write err = %v", err)
	}
	if err := m.ReadPhys(pfn.Addr(), buf); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("read err = %v", err)
	}
	// Both Nth rules are spent: the retries succeed.
	if err := m.WritePhys(pfn.Addr(), buf); err != nil {
		t.Fatal(err)
	}
	if err := m.ReadPhys(pfn.Addr(), buf); err != nil {
		t.Fatal(err)
	}
	// Detach disables the sites with no residue.
	inj.FailEvery(SiteRead, 1, nil)
	m.SetFaultInjector(nil)
	if err := m.ReadPhys(pfn.Addr(), buf); err != nil {
		t.Fatal(err)
	}
}

// TestCopyFrom checks the cross-memory bus-master copy against
// ReadPhys+WritePhys: same bytes between two memories and within one,
// both bounds checks, and the source's SiteRead guard consulted before
// the destination's SiteWrite guard, with nothing moved when either
// fires.
func TestCopyFrom(t *testing.T) {
	src, dst := New(4), New(2)
	want := make([]byte, PageSize+100)
	for i := range want {
		want[i] = byte(i*7 + 1)
	}
	if err := src.WritePhys(50, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := dst.CopyFrom(10, src, 50, len(want)); err != nil {
		t.Fatal(err)
	}
	if err := dst.ReadPhys(10, got); err != nil || string(got) != string(want) {
		t.Fatalf("cross-memory copy delivered the wrong bytes (%v)", err)
	}
	if err := src.CopyFrom(2*PageSize, src, 50, len(want)); err != nil {
		t.Fatal(err)
	}
	if err := src.ReadPhys(2*PageSize, got); err != nil || string(got) != string(want) {
		t.Fatalf("same-memory copy delivered the wrong bytes (%v)", err)
	}
	if err := dst.CopyFrom(0, src, Addr(4*PageSize-8), 16); !errors.Is(err, ErrBadAddr) {
		t.Fatalf("source overrun: %v", err)
	}
	if err := dst.CopyFrom(Addr(2*PageSize-8), src, 0, 16); !errors.Is(err, ErrBadAddr) {
		t.Fatalf("destination overrun: %v", err)
	}

	sinj, dinj := faultinject.New(1), faultinject.New(2)
	src.SetFaultInjector(sinj)
	dst.SetFaultInjector(dinj)
	sinj.FailNth(SiteRead, 1, nil)
	dinj.FailNth(SiteWrite, 1, nil)
	before := append([]byte(nil), got...)
	for i, wantOps := range [][2]uint64{{1, 0}, {2, 1}} { // read guard first; it passes on the second try
		if err := dst.CopyFrom(10, src, 0, len(got)); !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("attempt %d: %v, want an injected fault", i, err)
		}
		if r, w := sinj.Stats().Ops[SiteRead], dinj.Stats().Ops[SiteWrite]; r != wantOps[0] || w != wantOps[1] {
			t.Fatalf("attempt %d: %d read / %d write guards consulted, want %v", i, r, w, wantOps)
		}
		if err := dst.ReadPhys(10, got); err != nil || string(got) != string(before) {
			t.Fatalf("attempt %d: a faulted copy moved bytes (%v)", i, err)
		}
	}
	if err := dst.CopyFrom(10, src, 0, len(got)); err != nil {
		t.Fatal(err)
	}
}
