package via

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/phys"
	"repro/internal/race"
	"repro/internal/trace"
)

// The String methods must name every defined value; the sentinel counts
// let these tests catch a constant added without a name.

func TestOpStringExhaustive(t *testing.T) {
	for o := OpSend; o < opCount; o++ {
		if s := o.String(); strings.HasPrefix(s, "op(") {
			t.Errorf("Op %d has no name", uint8(o))
		}
	}
	if got := opCount.String(); got != fmt.Sprintf("op(%d)", uint8(opCount)) {
		t.Errorf("sentinel Op String = %q", got)
	}
}

func TestStatusStringExhaustive(t *testing.T) {
	for s := StatusPending; s < statusCount; s++ {
		if got := s.String(); strings.HasPrefix(got, "status(") {
			t.Errorf("Status %d has no name", uint8(s))
		}
	}
	if got := statusCount.String(); got != fmt.Sprintf("status(%d)", uint8(statusCount)) {
		t.Errorf("sentinel Status String = %q", got)
	}
}

func TestVIStateStringExhaustive(t *testing.T) {
	for s := VIIdle; s < viStateCount; s++ {
		if got := s.String(); strings.HasPrefix(got, "state(") {
			t.Errorf("VIState %d has no name", uint8(s))
		}
	}
	if got := viStateCount.String(); got != fmt.Sprintf("state(%d)", uint8(viStateCount)) {
		t.Errorf("sentinel VIState String = %q", got)
	}
}

// obsRig is a rig with a tracer and registry attached to both NICs.
func obsRig(t *testing.T) (*rig, *trace.Tracer, *metrics.Registry) {
	t.Helper()
	r := newRig(t)
	trc := trace.New(r.nicA.meter, 1<<12)
	reg := metrics.NewRegistry()
	r.nicA.AttachObs(trc, reg)
	r.nicB.AttachObs(trc, reg)
	return r, trc, reg
}

func transferOnce(t *testing.T, r *rig, hA, hB MemHandle, n int) {
	t.Helper()
	rd := NewDescriptor(OpRecv, Segment{Handle: hB, Offset: 0, Length: n})
	sd := NewDescriptor(OpSend, Segment{Handle: hA, Offset: 0, Length: n})
	if err := r.viB.PostRecv(rd); err != nil {
		t.Fatal(err)
	}
	if err := r.viA.PostSend(sd); err != nil {
		t.Fatal(err)
	}
	if sd.Status != StatusSuccess || rd.Status != StatusSuccess {
		t.Fatalf("transfer failed: send %v recv %v", sd.Status, rd.Status)
	}
}

// TestAttachObsDescriptorSpans checks that an attached observer sees
// every descriptor as a begin/end span pair plus stage histograms, and
// that detaching stops emission without disturbing the data path.
func TestAttachObsDescriptorSpans(t *testing.T) {
	r, trc, reg := obsRig(t)
	hA, _ := regFrames(t, r.nicA, r.memA, 1, tagA, MemAttrs{})
	hB, _ := regFrames(t, r.nicB, r.memB, 1, tagB, MemAttrs{})
	transferOnce(t, r, hA, hB, 512)
	transferOnce(t, r, hA, hB, 512)

	open := map[trace.SpanID]trace.Kind{}
	ended := 0
	for _, ev := range trc.Snapshot() {
		switch ev.Phase {
		case trace.PhaseBegin:
			if _, dup := open[ev.Span]; dup {
				t.Fatalf("span %d began twice", ev.Span)
			}
			open[ev.Span] = ev.Kind
		case trace.PhaseEnd:
			k, ok := open[ev.Span]
			if !ok {
				t.Fatalf("span %d ended without a begin", ev.Span)
			}
			if k != ev.Kind {
				t.Fatalf("span %d began as %v but ended as %v", ev.Span, k, ev.Kind)
			}
			delete(open, ev.Span)
			ended++
			if Status(ev.Arg1) != StatusSuccess {
				t.Fatalf("span %d ended with status %v", ev.Span, Status(ev.Arg1))
			}
		}
	}
	if len(open) != 0 {
		t.Fatalf("%d spans never ended", len(open))
	}
	// Two sends and two receives, each a completed span.
	if ended != 4 {
		t.Fatalf("got %d completed spans, want 4", ended)
	}
	if got := reg.Histogram("via.desc.send.simns").Count(); got != 2 {
		t.Fatalf("send histogram count = %d, want 2", got)
	}
	if got := reg.Histogram("via.desc.recv.simns").Count(); got != 2 {
		t.Fatalf("recv histogram count = %d, want 2", got)
	}
	if reg.Counter("via.translate.ops").Load() == 0 {
		t.Fatal("translate counter never moved")
	}

	// Detach: the data path keeps working and nothing more is emitted.
	r.nicA.AttachObs(nil, nil)
	r.nicB.AttachObs(nil, nil)
	before := trc.Emitted()
	transferOnce(t, r, hA, hB, 512)
	if got := trc.Emitted(); got != before {
		t.Fatalf("detached transfer emitted %d events", got-before)
	}
}

// TestDataPathZeroAllocs proves the observability hooks put nothing on
// the heap: the steady-state send/receive path allocates zero bytes
// whether the observer is detached (the shipping configuration) or
// attached (ring slots and histogram buckets are preallocated).
func TestDataPathZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race-detector instrumentation allocates")
	}
	const n = 512
	run := func(t *testing.T, r *rig) float64 {
		t.Helper()
		hA, _ := regFrames(t, r.nicA, r.memA, 1, tagA, MemAttrs{})
		hB, _ := regFrames(t, r.nicB, r.memB, 1, tagB, MemAttrs{})
		rd := NewDescriptor(OpRecv, Segment{Handle: hB, Offset: 0, Length: n})
		sd := NewDescriptor(OpSend, Segment{Handle: hA, Offset: 0, Length: n})
		post := func() {
			if err := r.viB.PostRecv(rd); err != nil {
				t.Fatal(err)
			}
			if err := r.viA.PostSend(sd); err != nil {
				t.Fatal(err)
			}
			if sd.Status != StatusSuccess {
				t.Fatalf("send status %v", sd.Status)
			}
		}
		post() // warm: ring buffers, lane state
		return testing.AllocsPerRun(200, func() {
			rd.Reset()
			sd.Reset()
			post()
		})
	}

	t.Run("detached", func(t *testing.T) {
		if got := run(t, newRig(t)); got != 0 {
			t.Fatalf("detached data path allocates %v objects/op, want 0", got)
		}
	})
	t.Run("attached", func(t *testing.T) {
		r := newRig(t)
		trc := trace.New(r.nicA.meter, 1<<10)
		reg := metrics.NewRegistry()
		r.nicA.AttachObs(trc, reg)
		r.nicB.AttachObs(trc, reg)
		if got := run(t, r); got != 0 {
			t.Fatalf("attached data path allocates %v objects/op, want 0", got)
		}
	})

	// The rendezvous data path is one-sided: repeated RDMA writes into a
	// write-enabled remote region, no receive descriptor.  It must stay
	// allocation-free too, observer attached (the pipelined rendezvous
	// always runs with chunk spans on when a tracer is present).
	t.Run("rdma", func(t *testing.T) {
		r := newRig(t)
		trc := trace.New(r.nicA.meter, 1<<10)
		reg := metrics.NewRegistry()
		r.nicA.AttachObs(trc, reg)
		r.nicB.AttachObs(trc, reg)
		hA, _ := regFrames(t, r.nicA, r.memA, 1, tagA, MemAttrs{})
		hB, _ := regFrames(t, r.nicB, r.memB, 1, tagB, MemAttrs{EnableRDMAWrite: true})
		sd := NewDescriptor(OpRDMAWrite, Segment{Handle: hA, Offset: 0, Length: n})
		sd.Remote = RemoteSegment{Handle: hB, Offset: 0}
		post := func() {
			if err := r.viA.PostSend(sd); err != nil {
				t.Fatal(err)
			}
			if sd.Status != StatusSuccess {
				t.Fatalf("rdma status %v", sd.Status)
			}
		}
		post() // warm: lane state
		got := testing.AllocsPerRun(200, func() {
			sd.Reset()
			post()
		})
		if got != 0 {
			t.Fatalf("rdma data path allocates %v objects/op, want 0", got)
		}
	})
}

// TestAttachObsRegistration checks the TPT-side counters move through
// the NIC registration path too (translate errors included).
func TestAttachObsTranslateErrors(t *testing.T) {
	r, _, reg := obsRig(t)
	hA, _ := regFrames(t, r.nicA, r.memA, 1, tagA, MemAttrs{})
	hB, _ := regFrames(t, r.nicB, r.memB, 1, tagB, MemAttrs{})

	// A send whose segment overruns its region fails translation.
	rd := NewDescriptor(OpRecv, Segment{Handle: hB, Offset: 0, Length: phys.PageSize})
	sd := NewDescriptor(OpSend, Segment{Handle: hA, Offset: phys.PageSize - 8, Length: 64})
	if err := r.viB.PostRecv(rd); err != nil {
		t.Fatal(err)
	}
	if err := r.viA.PostSend(sd); err != nil {
		t.Fatal(err)
	}
	if sd.Status == StatusSuccess {
		t.Fatal("overrunning send succeeded")
	}
	if reg.Counter("via.translate.errors").Load() == 0 {
		t.Fatal("translate error counter never moved")
	}
}
