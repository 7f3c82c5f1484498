package mm

import (
	"fmt"
	"time"

	"repro/internal/pgtable"
	"repro/internal/phys"
)

// StartKswapd launches the background reclaim daemon: whenever free
// memory sits below the FreeLow watermark it reclaims until FreeHigh is
// reached.  Direct reclaim in GetFreePage continues to work regardless;
// kswapd only smooths pressure, as in the kernel.  The interval is real
// wall time because the daemon exists for liveness, not for the virtual
// cost accounting.
func (k *Kernel) StartKswapd(interval time.Duration) {
	k.mu.Lock()
	if k.kswapdStop != nil {
		k.mu.Unlock()
		return // already running
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	kick := make(chan struct{}, 1)
	k.kswapdStop = stop
	k.kswapdDone = done
	k.kswapdKick = kick
	k.mu.Unlock()

	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			case <-kick:
			}
			k.kswapdPass()
		}
	}()
}

// KickKswapd wakes the daemon immediately (wakeup_kswapd).
func (k *Kernel) KickKswapd() {
	k.mu.Lock()
	kick := k.kswapdKick
	k.mu.Unlock()
	if kick != nil {
		select {
		case kick <- struct{}{}:
		default:
		}
	}
}

// StopKswapd terminates the daemon and waits for it to exit.
func (k *Kernel) StopKswapd() {
	k.mu.Lock()
	stop, done := k.kswapdStop, k.kswapdDone
	k.kswapdStop, k.kswapdDone, k.kswapdKick = nil, nil, nil
	k.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// kswapdPass reclaims until the high watermark or until reclaim stalls.
func (k *Kernel) kswapdPass() {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.phys.FreeFrames() >= k.cfg.FreeLow {
		return
	}
	k.stats.KswapdRuns++
	for k.phys.FreeFrames() < k.cfg.FreeHigh {
		if k.tryToFreePagesLocked() == 0 {
			return
		}
	}
}

// CheckInvariants validates cross-structure consistency: physical and
// swap accounting plus, for every process, that present PTEs reference
// allocated frames and swap PTEs reference allocated slots.  Frames may
// legitimately be allocated yet unreferenced by any PTE (page cache,
// orphans created by broken locking strategies) — those are reported by
// OrphanFrames, not here.
func (k *Kernel) CheckInvariants() error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if err := k.phys.CheckInvariants(); err != nil {
		return err
	}
	if err := k.swap.CheckInvariants(); err != nil {
		return err
	}
	// Page conservation: swap-out and swap-in move pages between frames
	// and slots, so every materialized page, free or not, is held by
	// exactly one frame or slot, and a frame or slot whose page was never
	// materialized leaves its own page to nobody.
	if err := phys.CheckConservation(k.phys.AppendPages(nil), k.swap.AppendPages(nil)); err != nil {
		return fmt.Errorf("mm: %w", err)
	}
	for pfn, slot := range k.swapCache {
		if k.phys.RefCount(pfn) <= 0 {
			return fmt.Errorf("mm: swap cache references free frame %d", pfn)
		}
		if !k.phys.TestFlags(pfn, phys.PGSwapCache) {
			return fmt.Errorf("mm: swap-cached frame %d lacks PG_SwapCache", pfn)
		}
		if k.swap.UseCount(slot) <= 0 {
			return fmt.Errorf("mm: swap cache references free slot %d", slot)
		}
	}
	for _, as := range k.procs {
		if err := as.vmas.CheckInvariants(); err != nil {
			return err
		}
		var ferr error
		as.pt.Range(0, pgtable.MaxVPN+1, func(v pgtable.VPN, e pgtable.PTE) bool {
			if e.Present() {
				if k.phys.RefCount(e.PFN()) <= 0 {
					ferr = errPTE(as, v, "present PTE references free frame")
					return false
				}
			} else if e.Swapped() {
				if k.swap.UseCount(e.SwapSlot()) <= 0 {
					ferr = errPTE(as, v, "swap PTE references free slot")
					return false
				}
			}
			return true
		})
		if ferr != nil {
			return ferr
		}
	}
	return nil
}

type pteInvariantError struct {
	proc string
	vpn  pgtable.VPN
	msg  string
}

func (e *pteInvariantError) Error() string {
	return "mm: " + e.proc + ": " + e.msg
}

func errPTE(as *AddressSpace, v pgtable.VPN, msg string) error {
	return &pteInvariantError{proc: as.String(), vpn: v, msg: msg}
}
