package sci

import (
	"errors"
	"fmt"

	"repro/internal/phys"
)

// This file implements the combined VIA/SCI protected user-level DMA of
// the companion article ("Memory Management in a Combined VIA/SCI
// Hardware", fig. 3): the bridge's DMA engine sits between two
// translation AND protection tables — upstream for local (exported)
// memory, downstream for remote (imported) memory — and a transfer is
// only performed when the initiating process's protection tag matches
// both tables.  The remote node performs no extra check ("it doesn't
// see any differences" between PIO and DMA traffic), because the
// initiator already validated both sides.

// Tag is an SCI-side protection tag (the VIA concept ported into the
// SCI architecture, as the companion proposes).
type Tag uint32

// NoTag marks untagged regions: any DMA against them is refused, PIO is
// unaffected (PIO protection comes from the host MMU).
const NoTag Tag = 0

// DMA errors.
var (
	ErrTagViolation = errors.New("sci: protection tag violation")
	ErrUntagged     = errors.New("sci: region not tagged for DMA")
)

// DMADir selects the transfer direction.
type DMADir uint8

const (
	// DMAWrite moves local (exported) memory to the remote window.
	DMAWrite DMADir = iota
	// DMARead moves remote window contents into local exported memory.
	DMARead
)

// SetTag assigns the export's protection tag (set by the kernel agent
// when the owning process registers the region for DMA use).
func (exp *Export) SetTag(t Tag) { exp.tag = t }

// Tag reports the export's protection tag.
func (exp *Export) Tag() Tag { return exp.tag }

// SetTag assigns the import window's protection tag.
func (imp *Import) SetTag(t Tag) { imp.tag = t }

// Tag reports the import window's protection tag.
func (imp *Import) Tag() Tag { return imp.tag }

// DMAStats counts the engine's activity.
type DMAStats struct {
	Transfers     uint64
	BytesMoved    uint64
	TagViolations uint64
}

// DMAStats returns a snapshot of the bridge's DMA counters.
func (b *Bridge) DMAStats() DMAStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dmaStats
}

// PostDMA runs one protected user-level DMA transfer of n bytes between
// the local export (at expOff) and the imported remote window (at
// impOff).  tag is the initiating process's protection tag; it must
// match both the upstream (export) and downstream (import) table
// entries, which is the whole protection story — no kernel call is
// needed to start the transfer.
func (b *Bridge) PostDMA(exp *Export, expOff int, imp *Import, impOff, n int, dir DMADir, tag Tag) error {
	if n <= 0 {
		return fmt.Errorf("sci: DMA of %d bytes", n)
	}
	// Initiator-side protection: both tables are checked here.
	if tag == NoTag || exp.tag == NoTag || imp.tag == NoTag {
		b.countViolation()
		return ErrUntagged
	}
	if exp.tag != tag || imp.tag != tag {
		b.countViolation()
		return fmt.Errorf("%w: export tag %d, import tag %d, access tag %d",
			ErrTagViolation, exp.tag, imp.tag, tag)
	}
	if expOff < 0 || expOff+n > exp.Pages*phys.PageSize {
		return fmt.Errorf("%w: export [%d,+%d)", ErrBounds, expOff, n)
	}
	if impOff < 0 || impOff+n > imp.Bytes() {
		return fmt.Errorf("%w: import [%d,+%d)", ErrBounds, impOff, n)
	}
	if !imp.valid {
		return ErrStaleMapping
	}

	b.charge(b.costs().DMAStartup)
	b.meter.ChargeN(b.costs().DMAPerByte, n)
	b.charge(b.costs().WireLatency)

	// Move in chunks bounded by both sides' page edges.  Local accesses
	// go through the export's recorded physical pages (the upstream
	// table); remote accesses through the import window (the downstream
	// table and the remote upstream table).
	buf := make([]byte, 0, phys.PageSize)
	done := 0
	for done < n {
		lOff := expOff + done
		chunk := phys.PageSize - lOff%phys.PageSize
		if rem := n - done; chunk > rem {
			chunk = rem
		}
		pa := exp.lock.Frames[lOff/phys.PageSize].Addr() + phys.Addr(lOff%phys.PageSize)
		buf = buf[:chunk]
		var err error
		if dir == DMAWrite {
			if err = b.kernel.Phys().ReadPhys(pa, buf); err == nil {
				err = imp.transfer(impOff+done, buf, true)
			}
		} else {
			if err = imp.transfer(impOff+done, buf, false); err == nil {
				err = b.kernel.Phys().WritePhys(pa, buf)
			}
		}
		if err != nil {
			return err
		}
		done += chunk
	}
	b.mu.Lock()
	b.dmaStats.Transfers++
	b.dmaStats.BytesMoved += uint64(n)
	b.mu.Unlock()
	return nil
}

func (b *Bridge) countViolation() {
	b.mu.Lock()
	b.dmaStats.TagViolations++
	b.mu.Unlock()
}
