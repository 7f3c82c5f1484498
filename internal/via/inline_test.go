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

// TestInlineMaxBoundary sweeps the inline ceiling MaxInlineData at ±1,
// at both places that enforce it: SetInline and the post-time check.
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

	// Full path: MaxInlineData-1 and MaxInlineData both deliver.
	inlineRoundTrip(t, r, make([]byte, MaxInlineData-1))
	inlineRoundTrip(t, r, make([]byte, MaxInlineData))

	// Post-time check: a descriptor image claiming more than the card
	// fetches is refused at the doorbell.
	over := NewDescriptor(OpSend)
	over.inlineLen = MaxInlineData + 1
	if err := r.viA.PostSend(over); !errors.Is(err, ErrInlineTooLarge) {
		t.Fatalf("PostSend(%d inline) = %v, want ErrInlineTooLarge", MaxInlineData+1, err)
	}
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
