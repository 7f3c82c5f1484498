package via

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/metrics"
	"repro/internal/race"
	"repro/internal/trace"
)

// inlineRoundTrip pushes one inline payload from viA to viB through a
// bare (seg-less) receive descriptor and verifies the delivered bytes.
func inlineRoundTrip(t *testing.T, r *rig, payload []byte) {
	t.Helper()
	rd := NewDescriptor(OpRecv)
	if err := r.viB.PostRecv(rd); err != nil {
		t.Fatal(err)
	}
	sd := NewDescriptor(OpSend)
	if err := sd.SetInline(payload); err != nil {
		t.Fatal(err)
	}
	if err := r.viA.PostSend(sd); err != nil {
		t.Fatal(err)
	}
	if sd.Status != StatusSuccess {
		t.Fatalf("send status %v", sd.Status)
	}
	if rd.Status != StatusSuccess || rd.Transferred != len(payload) {
		t.Fatalf("recv status %v, transferred %d (want %d)",
			rd.Status, rd.Transferred, len(payload))
	}
	if !bytes.Equal(rd.Inline(), payload) {
		t.Fatalf("inline payload corrupted over %d bytes", len(payload))
	}
}

// TestInlineDelivers smoke-tests the inline fast path end to end and
// checks it is counted as inline, not as a DMA send.
func TestInlineDelivers(t *testing.T) {
	r := newRig(t)
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	inlineRoundTrip(t, r, payload)
	st := r.nicA.Stats()
	if st.InlineSends != 1 {
		t.Fatalf("inline sends = %d, want 1", st.InlineSends)
	}
}

// TestInlineMaxBoundary sweeps the two inline ceilings at ±1: the
// descriptor image bound (MaxInlineData, enforced by SetInline) and the
// runtime NIC bound (InlineMax, enforced at post time).
func TestInlineMaxBoundary(t *testing.T) {
	r := newRig(t)

	// Descriptor image cap: MaxInlineData fits, one more byte is
	// refused before the descriptor is touched.
	d := NewDescriptor(OpSend)
	if err := d.SetInline(make([]byte, MaxInlineData)); err != nil {
		t.Fatalf("SetInline(%d) = %v, want ok", MaxInlineData, err)
	}
	d = NewDescriptor(OpSend)
	if err := d.SetInline(make([]byte, MaxInlineData+1)); !errors.Is(err, ErrInlineTooLarge) {
		t.Fatalf("SetInline(%d) = %v, want ErrInlineTooLarge", MaxInlineData+1, err)
	}
	if d.IsInline() {
		t.Fatal("refused SetInline still marked the descriptor inline")
	}

	// Full path at the default NIC cap: InlineMax-1 and InlineMax both
	// deliver.
	if got := r.nicA.InlineMax(); got != MaxInlineData {
		t.Fatalf("default InlineMax = %d, want %d", got, MaxInlineData)
	}
	inlineRoundTrip(t, r, make([]byte, MaxInlineData-1))
	inlineRoundTrip(t, r, make([]byte, MaxInlineData))

	// Lowered NIC cap: the descriptor accepts the payload (it fits the
	// image) but the post refuses it — the card's advertised InlineMax
	// is the operative bound.
	const cap = 64
	r.nicA.SetInlineMax(cap)
	inlineRoundTrip(t, r, make([]byte, cap-1))
	inlineRoundTrip(t, r, make([]byte, cap))
	over := NewDescriptor(OpSend)
	if err := over.SetInline(make([]byte, cap+1)); err != nil {
		t.Fatalf("SetInline(%d) under NIC cap %d = %v, want ok (post-time check)",
			cap+1, cap, err)
	}
	if err := r.viA.PostSend(over); !errors.Is(err, ErrInlineTooLarge) {
		t.Fatalf("PostSend(%d inline, cap %d) = %v, want ErrInlineTooLarge",
			cap+1, cap, err)
	}

	// Negative restores the hardware default.
	r.nicA.SetInlineMax(-1)
	if got := r.nicA.InlineMax(); got != MaxInlineData {
		t.Fatalf("SetInlineMax(-1) left InlineMax = %d, want %d", got, MaxInlineData)
	}
	inlineRoundTrip(t, r, make([]byte, cap+1))
}

// TestInlineZeroAllocs proves the inline fast path puts nothing on the
// heap in steady state — the whole point of carrying the payload in the
// descriptor image — with the observer detached (shipping config) and
// attached (spans and counters preallocated).
func TestInlineZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race-detector instrumentation allocates")
	}
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i)
	}
	run := func(t *testing.T, r *rig) float64 {
		t.Helper()
		rd := NewDescriptor(OpRecv)
		sd := NewDescriptor(OpSend)
		post := func() {
			if err := r.viB.PostRecv(rd); err != nil {
				t.Fatal(err)
			}
			if err := sd.SetInline(payload); err != nil {
				t.Fatal(err)
			}
			if err := r.viA.PostSend(sd); err != nil {
				t.Fatal(err)
			}
			if sd.Status != StatusSuccess || rd.Status != StatusSuccess {
				t.Fatalf("statuses %v/%v", sd.Status, rd.Status)
			}
		}
		post() // warm: recv queue, lane state
		allocs := testing.AllocsPerRun(200, func() {
			rd.Reset()
			sd.Reset()
			post()
		})
		if st := r.nicA.Stats(); st.InlineSends == 0 {
			t.Fatal("inline counter never moved — fast path not taken")
		}
		return allocs
	}

	t.Run("detached", func(t *testing.T) {
		if got := run(t, newRig(t)); got != 0 {
			t.Fatalf("detached inline path allocates %v objects/op, want 0", got)
		}
	})
	t.Run("attached", func(t *testing.T) {
		r := newRig(t)
		trc := trace.New(r.nicA.meter, 1<<10)
		reg := metrics.NewRegistry()
		r.nicA.AttachObs(trc, reg)
		r.nicB.AttachObs(trc, reg)
		if got := run(t, r); got != 0 {
			t.Fatalf("attached inline path allocates %v objects/op, want 0", got)
		}
	})
}
