// Package kagent implements the VI Kernel Agent: the privileged driver
// half of a VIA stack.  Its registration path is where the paper's
// question lives — it locks the user buffer with a pluggable core.Locker
// and enters the resulting physical page list into the NIC's TPT.
//
// The agent also supports the multiple registrations the VIA spec
// demands: every RegisterMem call produces an independent registration
// (its own lock, its own TPT region), even for identical ranges.
//
// The registration table is sharded so that concurrent registrations of
// independent regions never serialize on one agent-wide lock: IDs come
// from an atomic counter and each record lives in the shard its ID
// hashes to.
package kagent

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/mm"
	"repro/internal/pgtable"
	"repro/internal/phys"
	"repro/internal/slab"
	"repro/internal/trace"
	"repro/internal/via"
)

// SiteRegister guards the registration path (RegisterMem): an armed rule
// models a kernel agent refusing or failing a registration (lock denial,
// TPT allocation failure, transient driver error).
const SiteRegister = "kagent.register"

// ErrRegistrationFault is the cause wrapped around injected registration
// failures.
var ErrRegistrationFault = errors.New("kagent: injected registration failure")

// Registration is one completed memory registration.
type Registration struct {
	// ID is the agent-local registration number.
	ID int
	// Handle is the NIC memory handle for descriptors.
	Handle via.MemHandle
	// Addr and Length describe the registered user range.
	Addr   pgtable.VAddr
	Length int
	// Tag is the protection tag the region was registered under.
	Tag via.ProtectionTag

	// lock is the registration's hold on its pages: inPlace, which a
	// BatchLocker fills, or the Lock a plain Locker allocated.
	lock    *core.Lock
	inPlace core.Lock
	as      *mm.AddressSpace

	// noPin marks a pin-free (RegNoPin) registration; notifierID and
	// tracker tie it to the mm range notifier that keeps the TPT honest.
	noPin      bool
	notifierID int
	tracker    *nopinTracker
}

// NoPin reports whether this is a pin-free registration.
func (r *Registration) NoPin() bool { return r.noPin }

// Pages reports the frames recorded at registration.  Under the kiobuf
// strategy they are the kiobuf's list, which deregistration hands back
// to the kernel: nil from then on.
func (r *Registration) Pages() []phys.PFN { return r.lock.Frames }

// regShards is the number of registration-table shards.  Power of two
// so the shard index is a mask of the registration ID.
const regShards = 16

// regShard is one slice of the registration table with its own lock.
type regShard struct {
	mu   sync.Mutex
	regs map[int]*Registration
}

// Agent is one node's kernel agent.
type Agent struct {
	kernel *mm.Kernel
	nic    *via.NIC
	locker core.Locker

	// inj guards the registration path (SiteRegister); nil in
	// production.
	inj atomic.Pointer[faultinject.Injector]
	// obs is the attached observer (set through AttachObs, nil in
	// production).
	obs atomic.Pointer[agentObs]

	nextID atomic.Int64
	shards [regShards]regShard
	// records carves Registrations.  They are never reused, so a stale
	// *Registration is never mistaken for a later one.
	records slab.Slab[Registration]

	// nopinMu guards nopinRegs, the handle→registration index the NIC's
	// IO-page-fault upcall resolves against.
	nopinMu   sync.Mutex
	nopinRegs map[via.MemHandle]*Registration
}

// Errors returned by the agent.
var (
	ErrUnknownRegistration = errors.New("kagent: unknown registration")
)

// New creates a kernel agent using the given locking strategy.
func New(k *mm.Kernel, nic *via.NIC, locker core.Locker) *Agent {
	a := &Agent{kernel: k, nic: nic, locker: locker}
	for i := range a.shards {
		a.shards[i].regs = make(map[int]*Registration)
	}
	a.nopinRegs = make(map[via.MemHandle]*Registration)
	// The agent is the NIC's host: IO page faults from pin-free regions
	// come back here to be resolved.
	nic.SetIOFaultHandler(a.resolveIOFault)
	return a
}

// shard returns the shard owning a registration ID.
func (a *Agent) shard(id int) *regShard { return &a.shards[id&(regShards-1)] }

// Strategy reports the locking strategy in use.
func (a *Agent) Strategy() core.Strategy { return a.locker.Name() }

// NIC returns the agent's NIC.
func (a *Agent) NIC() *via.NIC { return a.nic }

// SetFaultInjector attaches (or, with nil, detaches) a fault injector
// guarding the registration path (SiteRegister).
func (a *Agent) SetFaultInjector(inj *faultinject.Injector) { a.inj.Store(inj) }

// Kernel returns the node kernel.
func (a *Agent) Kernel() *mm.Kernel { return a.kernel }

// RegisterMem locks [addr, addr+length) of the process and registers it
// with the NIC under the given tag and attributes.  Each call is an
// independent registration.
func (a *Agent) RegisterMem(as *mm.AddressSpace, addr pgtable.VAddr, length int, tag via.ProtectionTag, attrs via.MemAttrs) (*Registration, error) {
	st := a.regStart(trace.KindRegister, uint64(addr), length)
	// The VipRegisterMem ioctl: one kernel call regardless of strategy.
	if m := a.kernel.Meter(); m != nil {
		m.Charge(m.Costs.KernelCall)
	}
	st.mark(trace.KindRegister, uint64(addr))
	if inj := a.inj.Load(); inj != nil {
		if err := inj.Check(faultinject.Op{Site: SiteRegister, Key: uint64(addr), N: length}); err != nil {
			st.finishErr(trace.KindRegister)
			return nil, fmt.Errorf("%w: %w", ErrRegistrationFault, err)
		}
	}
	// Pin-free registrations take their own path: a notifier instead of
	// a pin, whatever locking strategy the agent was built with.
	if attrs.NoPin {
		return a.registerNoPin(as, addr, length, tag, attrs, st)
	}
	// The ioctl charge above already entered the kernel; a strategy that
	// can batch (the kiobuf one) pins the whole range on that single
	// crossing, into the registration record, instead of paying another
	// crossing inside Lock.
	reg := a.records.New()
	var err error
	if bl, ok := a.locker.(core.BatchLocker); ok {
		reg.lock = &reg.inPlace
		err = bl.LockNested(reg.lock, a.kernel, as, addr, length)
	} else {
		reg.lock, err = a.locker.Lock(a.kernel, as, addr, length)
	}
	if err != nil {
		st.finishErr(trace.KindRegister)
		return nil, fmt.Errorf("kagent: lock (%s): %w", a.locker.Name(), err)
	}
	lock := reg.lock
	st.mark(trace.KindPin, uint64(len(lock.Frames)))
	handle, err := a.nic.RegisterMemory(lock.Frames, lock.Offset, length, tag, attrs)
	if err != nil {
		_ = lock.Unlock()
		st.finishErr(trace.KindRegister)
		return nil, fmt.Errorf("kagent: TPT registration: %w", err)
	}
	st.mark(trace.KindTPTInsert, uint64(len(lock.Frames)))
	reg.ID, reg.Handle, reg.Addr, reg.Length, reg.Tag, reg.as = int(a.nextID.Add(1)), handle, addr, length, tag, as
	a.insert(reg)
	st.finishOK(trace.KindRegister, uint64(handle))
	return reg, nil
}

// insert enters a completed registration into its shard of the table.
func (a *Agent) insert(reg *Registration) {
	s := a.shard(reg.ID)
	s.mu.Lock()
	s.regs[reg.ID] = reg
	s.mu.Unlock()
}

// RegisterFrames enters kernel-owned frames into the TPT under the given
// tag — the staging area of a remap receive.  No user range backs the
// registration and no lock is taken: the caller (the message layer)
// already owns the frames through mm frame donation, so the Lock record
// carries only the frame list and unlocks as a no-op.  The registration
// is deregistered through the ordinary DeregisterMem path.
func (a *Agent) RegisterFrames(pfns []phys.PFN, length int, tag via.ProtectionTag, attrs via.MemAttrs) (*Registration, error) {
	st := a.regStart(trace.KindRegister, 0, length)
	// The staging grant ioctl: one kernel call, like RegisterMem.
	if m := a.kernel.Meter(); m != nil {
		m.Charge(m.Costs.KernelCall)
	}
	if inj := a.inj.Load(); inj != nil {
		if err := inj.Check(faultinject.Op{Site: SiteRegister, Key: uint64(len(pfns)), N: length}); err != nil {
			st.finishErr(trace.KindRegister)
			return nil, fmt.Errorf("%w: %w", ErrRegistrationFault, err)
		}
	}
	handle, err := a.nic.RegisterMemory(pfns, 0, length, tag, attrs)
	if err != nil {
		st.finishErr(trace.KindRegister)
		return nil, fmt.Errorf("kagent: TPT registration: %w", err)
	}
	st.mark(trace.KindTPTInsert, uint64(len(pfns)))
	reg := a.records.New()
	reg.lock = &reg.inPlace
	reg.inPlace.Strategy, reg.inPlace.Frames, reg.inPlace.Length = a.locker.Name(), pfns, length
	reg.ID, reg.Handle, reg.Length, reg.Tag = int(a.nextID.Add(1)), handle, length, tag
	a.insert(reg)
	st.finishOK(trace.KindRegister, uint64(handle))
	return reg, nil
}

// DeregisterMem removes the registration: TPT slots are invalidated and
// the lock is released.
func (a *Agent) DeregisterMem(reg *Registration) error {
	st := a.regStart(trace.KindDeregister, uint64(reg.Addr), reg.Length)
	// The VipDeregisterMem ioctl.
	if m := a.kernel.Meter(); m != nil {
		m.Charge(m.Costs.KernelCall)
	}
	s := a.shard(reg.ID)
	s.mu.Lock()
	if _, ok := s.regs[reg.ID]; !ok {
		s.mu.Unlock()
		st.finishErr(trace.KindDeregister)
		return fmt.Errorf("%w: %d", ErrUnknownRegistration, reg.ID)
	}
	delete(s.regs, reg.ID)
	s.mu.Unlock()
	if reg.noPin {
		// Quiesce the notifier before the TPT region goes: no more
		// invalidations can arrive for a handle being torn down.
		a.dropNoPin(reg)
	}
	if err := a.nic.DeregisterMemory(reg.Handle); err != nil {
		_ = reg.lock.Unlock()
		st.finishErr(trace.KindDeregister)
		return err
	}
	st.mark(trace.KindTPTInvalidate, uint64(len(reg.lock.Frames)))
	err := reg.lock.Unlock()
	st.finishOK(trace.KindDeregister, uint64(reg.Handle))
	return err
}

// Registrations reports how many registrations are live.
func (a *Agent) Registrations() int {
	n := 0
	for i := range a.shards {
		s := &a.shards[i]
		s.mu.Lock()
		n += len(s.regs)
		s.mu.Unlock()
	}
	return n
}

// ConsistentPages probes how many of the registration's pages are still
// backed by the frame recorded in the TPT: the process page table entry
// must be present and point at the same frame.  A reliable locking
// mechanism keeps this at 100%; the refcount strategy decays under
// pressure (experiment E10).  The probe never faults pages in.
func (a *Agent) ConsistentPages(reg *Registration) (consistent, total int, err error) {
	if reg.noPin {
		return a.consistentNoPin(reg)
	}
	start := pgtable.PageOf(reg.Addr)
	total = len(reg.lock.Frames)
	for i := 0; i < total; i++ {
		pfn, err := a.kernel.ResidentPFN(reg.as, (start + pgtable.VPN(i)).Addr())
		if err != nil {
			return consistent, total, err
		}
		if pfn != phys.NoPFN && pfn == reg.lock.Frames[i] {
			consistent++
		}
	}
	return consistent, total, nil
}
