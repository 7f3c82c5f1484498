package vipl

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/phys"
	"repro/internal/via"
)

// TestRegistrationPathTypedErrors: every failure of the registration
// path, from the user agent down to the page map, wraps its package's
// sentinel, so callers branch with errors.Is instead of on message text.
func TestRegistrationPathTypedErrors(t *testing.T) {
	r := newRig(t)
	agent := r.nicHA.Agent()
	k, nic := agent.Kernel(), agent.NIC()
	b, err := r.procA.Malloc(2 * phys.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := r.nicHA.RegisterMem(b, via.MemAttrs{})
	if err != nil {
		t.Fatal(err)
	}
	frame := func() phys.PFN {
		pfn, err := k.Phys().AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		return pfn
	}
	cases := []struct {
		name string
		want error
		run  func() error
	}{
		{"vipl range outside buffer", ErrOutsideBuffer, func() error {
			_, err := r.nicHA.RegisterMemRange(b, phys.PageSize, 2*phys.PageSize, via.MemAttrs{})
			return err
		}},
		{"via empty registration", via.ErrEmptyRegistration, func() error {
			_, err := nic.RegisterMemory(nil, 0, 8, r.nicHA.Tag(), via.MemAttrs{})
			return err
		}},
		{"via repair of a pinned region", via.ErrPinnedRegion, func() error {
			return nic.RepairTPTPage(pinned.Handle(), 0, 0)
		}},
		{"core empty range", core.ErrEmptyRange, func() error {
			_, err := core.MustNew(core.StrategyNone).Lock(k, r.procA.AS(), b.Addr, 0)
			return err
		}},
		{"phys last put of a pinned frame", phys.ErrPinnedFree, func() error {
			pfn := frame()
			if err := k.Phys().Pin(pfn); err != nil {
				t.Fatal(err)
			}
			_, err := k.Phys().Put(pfn)
			return err
		}},
		{"phys unpin without a pin", phys.ErrNotPinned, func() error {
			return k.Phys().Unpin(frame())
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.run()
			if !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
			if err.Error() == c.want.Error() && c.want != via.ErrEmptyRegistration {
				t.Fatalf("%v carries no detail beyond its sentinel", err)
			}
		})
	}
}
