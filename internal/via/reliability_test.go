package via

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/phys"
)

// One injected DMA fault on a Reliable Reception VI is absorbed: the
// NIC runs the gather again, the send completes once, the receive once,
// the connection stays up, and the retry costs sim time.
func TestReliableReceptionAbsorbsDMAFault(t *testing.T) {
	clean := newRig(t, ReliableReception)
	start := clean.nicA.meter.Now()
	if sd, _, _ := postPair(t, clean, 64); sd.Wait() != StatusSuccess {
		t.Fatal("clean send failed")
	}
	cleanCost := clean.nicA.meter.Now() - start

	r := newRig(t, ReliableReception)
	inj := armRig(r, 1)
	inj.FailNth(SiteDMA, 1, nil)
	start = r.nicA.meter.Now()
	sd, rd, _ := postPair(t, r, 64)
	if st := sd.Wait(); st != StatusSuccess {
		t.Fatalf("send status %v, want success", st)
	}
	if st := rd.Wait(); st != StatusSuccess || rd.Transferred != 64 {
		t.Fatalf("recv status %v (%d bytes), want success with 64", st, rd.Transferred)
	}
	if got := r.nicA.meter.Now() - start; got <= cleanCost {
		t.Fatalf("retried send cost %v sim time, clean one %v: the retry was free", got, cleanCost)
	}
	st := r.nicA.Stats()
	if st.Retries != 1 || st.Faults != 0 || st.Sends != 1 || r.nicB.Stats().Recvs != 1 {
		t.Fatalf("retries %d faults %d sends %d recvs %d; want 1 0 1 1",
			st.Retries, st.Faults, st.Sends, r.nicB.Stats().Recvs)
	}
	if r.viA.State() != VIConnected {
		t.Fatalf("state %v after an absorbed fault", r.viA.State())
	}
}

// A fault that keeps firing outlasts the retries: the VI pair enters
// the error state with the typed status and cause, after exactly
// NICRetries re-runs.
func TestReliableReceptionRetriesExhausted(t *testing.T) {
	r := newRig(t, ReliableReception)
	inj := armRig(r, 2)
	inj.FailEvery(SiteDMA, 1, nil)
	sd, rd, _ := postPair(t, r, 64)
	if st := sd.Wait(); st != StatusDMAError {
		t.Fatalf("send status %v, want dma-error", st)
	}
	if st := rd.Wait(); st != StatusCancelled {
		t.Fatalf("recv status %v, want cancelled", st)
	}
	if r.viA.State() != VIError || !errors.Is(r.viA.ErrorCause(), ErrDMAFault) {
		t.Fatalf("state %v cause %v, want error / ErrDMAFault", r.viA.State(), r.viA.ErrorCause())
	}
	if st := r.nicA.Stats(); st.Retries != NICRetries || st.Faults != 1 {
		t.Fatalf("retries %d faults %d, want %d and 1", st.Retries, st.Faults, NICRetries)
	}
}

// A dropped completion write-back is written again: the receive
// completed before it and completes exactly once.
func TestReliableReceptionRewritesDroppedCompletion(t *testing.T) {
	r := newRig(t, ReliableReception)
	inj := armRig(r, 3)
	inj.FailNth(SiteCompletion, 1, nil)
	sd, rd, _ := postPair(t, r, 64)
	if st := sd.Wait(); st != StatusSuccess {
		t.Fatalf("send status %v, want success", st)
	}
	if st := rd.Wait(); st != StatusSuccess {
		t.Fatalf("recv status %v, want success", st)
	}
	if got := r.nicB.Stats().Recvs; got != 1 {
		t.Fatalf("receives completed %d times, want once", got)
	}
	if got := r.nicA.Stats().Retries; got != 1 {
		t.Fatalf("retries = %d, want 1", got)
	}
}

// Only transient faults are retried: a translation fault breaks a
// Reliable Reception VI at once, and the default level retries nothing.
func TestReliabilityLevelsRetryOnlyTransientFaults(t *testing.T) {
	r := newRig(t, ReliableReception)
	armRig(r, 4).FailNth(SiteTPT, 1, nil)
	if sd, _, _ := postPair(t, r, 64); sd.Wait() != StatusTranslationError {
		t.Fatalf("translation fault: status %v", sd.Status)
	}
	if got := r.nicA.Stats().Retries; got != 0 {
		t.Fatalf("translation fault retried %d times", got)
	}

	r = newRig(t)
	armRig(r, 5).FailNth(SiteLink, 1, nil)
	if sd, _, _ := postPair(t, r, 64); sd.Wait() != StatusLinkError {
		t.Fatalf("default level link fault: status %v", sd.Status)
	}
	if got := r.nicA.Stats().Retries; got != 0 {
		t.Fatalf("default level retried %d times", got)
	}
}

// Both ends of a connection carry one reliability level.
func TestConnectRefusesMixedReliability(t *testing.T) {
	r := newRig(t)
	a, err := r.nicA.CreateVI(tagA, ReliableReception)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.nicB.CreateVI(tagB)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.net.Connect(a, b); !errors.Is(err, ErrReliabilityMismatch) {
		t.Fatalf("err = %v, want ErrReliabilityMismatch", err)
	}
}

// A frame write that faults while the payload lands at the receiver
// surfaces as a DMA error and is retried from a clean stream: the whole
// payload arrives intact, once.
func TestReliableReceptionRetriesFaultedScatter(t *testing.T) {
	r := newRig(t, ReliableReception)
	hA, _ := regFrames(t, r.nicA, r.memA, 2, tagA, MemAttrs{})
	hB, bPages := regFrames(t, r.nicB, r.memB, 2, tagB, MemAttrs{})
	msg := bytes.Repeat([]byte("scatter-retry "), 2*phys.PageSize/14)
	if err := r.nicA.DMAWriteLocal(hA, 0, msg, tagA); err != nil {
		t.Fatal(err)
	}
	side := faultinject.New(6)
	side.FailNth(phys.SiteWrite, 1, nil)
	r.memB.SetFaultInjector(side)
	rd := NewDescriptor(OpRecv, Segment{Handle: hB, Offset: 0, Length: 2 * phys.PageSize})
	if err := r.viB.PostRecv(rd); err != nil {
		t.Fatal(err)
	}
	sd := NewDescriptor(OpSend, Segment{Handle: hA, Offset: 0, Length: len(msg)})
	if err := r.viA.PostSend(sd); err != nil {
		t.Fatal(err)
	}
	if st := sd.Wait(); st != StatusSuccess {
		t.Fatalf("send status %v, want success", st)
	}
	if st := rd.Wait(); st != StatusSuccess || rd.Transferred != len(msg) {
		t.Fatalf("recv status %v (%d bytes)", st, rd.Transferred)
	}
	if side.Stats().Total() != 1 || r.nicA.Stats().Retries != 1 {
		t.Fatalf("injected %d, retries %d; want 1 and 1", side.Stats().Total(), r.nicA.Stats().Retries)
	}
	got := make([]byte, phys.PageSize)
	for i, pa := range bPages {
		if err := r.memB.ReadPhys(pa, got); err != nil {
			t.Fatal(err)
		}
		if want := msg[i*phys.PageSize : min(len(msg), (i+1)*phys.PageSize)]; !bytes.Equal(got[:len(want)], want) {
			t.Fatalf("page %d corrupted", i)
		}
	}
}
