package mm

import (
	"fmt"
	"slices"

	"repro/internal/caps"
	"repro/internal/pgtable"
	"repro/internal/vma"
)

// AddressSpace is one simulated process's memory view: VMAs, a page
// table, capabilities, and the per-process scan position the swap-out
// rotor uses.  All fields are guarded by the owning Kernel's lock; user
// code holds only the opaque handle and goes through Kernel methods.
type AddressSpace struct {
	id   int
	name string

	pt   *pgtable.Table
	vmas vma.Set
	caps caps.Set

	// mmapBase is the bump pointer for new anonymous mappings.
	mmapBase pgtable.VPN

	// swapScan is where swap_out_process resumes inside this space.
	swapScan pgtable.VPN

	// memlockLimit is RLIMIT_MEMLOCK in pages (0 = unlimited).
	memlockLimit int

	dead bool
}

// mmapStart is the first VPN handed out to anonymous mappings
// (0x4000_0000, the traditional IA-32 mmap base).
const mmapStart pgtable.VPN = 0x40000

// ID returns the process identifier.
func (as *AddressSpace) ID() int { return as.id }

// Name returns the human-readable process name.
func (as *AddressSpace) Name() string { return as.name }

func (as *AddressSpace) String() string {
	return fmt.Sprintf("proc %d (%s)", as.id, as.name)
}

// CreateProcess registers a new, empty address space.  Root grants the
// full capability set; ordinary processes start with none (so do_mlock
// fails for them, as in the paper).
func (k *Kernel) CreateProcess(name string, root bool) *AddressSpace {
	k.mu.Lock()
	defer k.mu.Unlock()
	as := &AddressSpace{
		id:       k.nextID,
		name:     name,
		pt:       pgtable.New(),
		mmapBase: mmapStart,
		swapScan: 0,
	}
	if root {
		as.caps = caps.RootSet()
	}
	k.nextID++
	k.procs = append(k.procs, as)
	return as
}

// DestroyProcess tears an address space down, releasing every resident
// frame and swap slot it owns.
func (k *Kernel) DestroyProcess(as *AddressSpace) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if as.dead {
		return ErrNoProcess
	}
	var errs []error
	as.pt.Range(0, pgtable.MaxVPN+1, func(v pgtable.VPN, e pgtable.PTE) bool {
		if e.Present() {
			k.notifyPageLocked(as, v, NotifyUnmap)
			if err := k.putMappedFrameLocked(e.PFN()); err != nil {
				errs = append(errs, err)
			}
		} else if e.Swapped() {
			if _, err := k.swap.Free(e.SwapSlot()); err != nil {
				errs = append(errs, err)
			}
		}
		return true
	})
	as.pt = pgtable.New()
	as.vmas = vma.Set{}
	as.dead = true
	if i := slices.Index(k.procs, as); i >= 0 {
		k.procs = slices.Delete(k.procs, i, i+1)
	}
	if len(errs) > 0 {
		return fmt.Errorf("mm: destroy %v: %d teardown errors, first: %w", as, len(errs), errs[0])
	}
	return nil
}

// Processes returns the live address spaces (stable order by id).
func (k *Kernel) Processes() []*AddressSpace {
	k.mu.Lock()
	defer k.mu.Unlock()
	return slices.Clone(k.procs)
}

// HasCapability reports whether the process holds the capability.
func (k *Kernel) HasCapability(as *AddressSpace, c caps.Capability) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return as.caps.Has(c)
}

// RaiseCapability grants a capability (the cap_raise workaround; only the
// in-kernel agent calls this).
func (k *Kernel) RaiseCapability(as *AddressSpace, c caps.Capability) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.charge(k.costs().CapabilityOp)
	as.caps.Raise(c)
}

// LowerCapability revokes a capability.
func (k *Kernel) LowerCapability(as *AddressSpace, c caps.Capability) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.charge(k.costs().CapabilityOp)
	as.caps.Lower(c)
}

// MMap creates an anonymous private mapping of npages and returns its
// base address.  Pages materialize lazily through demand-zero faults.
func (k *Kernel) MMap(as *AddressSpace, npages int, flags vma.Flags) (pgtable.VAddr, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if as.dead {
		return 0, ErrNoProcess
	}
	if npages <= 0 {
		return 0, fmt.Errorf("mm: mmap of %d pages", npages)
	}
	start := as.mmapBase
	end := start + pgtable.VPN(npages)
	if end > pgtable.MaxVPN {
		return 0, fmt.Errorf("mm: mmap: address space exhausted")
	}
	if err := as.vmas.Insert(vma.VMA{Start: start, End: end, Flags: flags}); err != nil {
		return 0, err
	}
	// Leave a one-page guard gap between mappings.
	as.mmapBase = end + 1
	k.charge(k.costs().KernelCall + k.costs().VMAOp)
	return start.Addr(), nil
}

// Munmap removes the mapping covering [addr, addr+npages pages), freeing
// resident frames and swap slots.
func (k *Kernel) Munmap(as *AddressSpace, addr pgtable.VAddr, npages int) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if as.dead {
		return ErrNoProcess
	}
	start := pgtable.PageOf(addr)
	end := start + pgtable.VPN(npages)
	if err := as.vmas.Remove(start, end); err != nil {
		return err
	}
	var firstErr error
	for v := start; v < end; v++ {
		e, err := as.pt.Clear(v)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if e.Present() {
			k.notifyPageLocked(as, v, NotifyUnmap)
			if err := k.putMappedFrameLocked(e.PFN()); err != nil && firstErr == nil {
				firstErr = err
			}
		} else if e.Swapped() {
			if _, err := k.swap.Free(e.SwapSlot()); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	k.charge(k.costs().KernelCall + k.costs().VMAOp)
	return firstErr
}

// VMAs returns a copy of the process's area list.
func (k *Kernel) VMAs(as *AddressSpace) []vma.VMA {
	k.mu.Lock()
	defer k.mu.Unlock()
	return as.vmas.Areas()
}

// RSS reports the process's resident set size in pages.
func (k *Kernel) RSS(as *AddressSpace) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return as.pt.Resident()
}

// LookupPTE returns the page-table entry for the page (diagnostics and
// the page-table-walking locking strategies; walking is charged).
func (k *Kernel) LookupPTE(as *AddressSpace, v pgtable.VPN) (pgtable.PTE, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.charge(k.costs().PTEWalk)
	return as.pt.Lookup(v)
}

// Fork clones the address space copy-on-write: VMAs are duplicated,
// present writable private pages become read-only in both parent and
// child sharing one frame, and swap entries are duplicated on the device.
func (k *Kernel) Fork(parent *AddressSpace, name string) (*AddressSpace, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if parent.dead {
		return nil, ErrNoProcess
	}
	child := &AddressSpace{
		id:       k.nextID,
		name:     name,
		pt:       pgtable.New(),
		caps:     parent.caps,
		mmapBase: parent.mmapBase,
	}
	k.nextID++
	for _, a := range parent.vmas.Areas() {
		if err := child.vmas.Insert(a); err != nil {
			return nil, err
		}
	}
	var firstErr error
	parent.pt.Range(0, pgtable.MaxVPN+1, func(v pgtable.VPN, e pgtable.PTE) bool {
		switch {
		case e.Present():
			a, ok := parent.vmas.Find(v)
			shared := ok && a.Flags&vma.Shared != 0
			ne := e
			if !shared && e.Writable() {
				// Break write access for COW in both spaces.
				ne = e &^ pgtable.FlagWrite
				if err := parent.pt.Set(v, ne); err != nil && firstErr == nil {
					firstErr = err
				}
			}
			if err := k.phys.Get(e.PFN()); err != nil && firstErr == nil {
				firstErr = err
			}
			if err := child.pt.Set(v, ne); err != nil && firstErr == nil {
				firstErr = err
			}
		case e.Swapped():
			if err := k.swap.Dup(e.SwapSlot()); err != nil && firstErr == nil {
				firstErr = err
			}
			if err := child.pt.Set(v, e); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return true
	})
	if firstErr != nil {
		return nil, firstErr
	}
	k.procs = append(k.procs, child)
	k.charge(k.costs().KernelCall)
	return child, nil
}
