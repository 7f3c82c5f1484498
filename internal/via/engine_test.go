package via

import (
	"errors"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/leakcheck"
)

func TestEngineAsyncCompletion(t *testing.T) {
	leakcheck.Check(t)
	r := newRig(t)
	r.nicA.StartEngine()
	defer r.nicA.StopEngine()
	if !r.nicA.EngineRunning() {
		t.Fatal("engine not running")
	}

	hA, _ := regFrames(t, r.nicA, r.memA, 1, tagA, MemAttrs{})
	hB, _ := regFrames(t, r.nicB, r.memB, 1, tagB, MemAttrs{})

	const rounds = 10
	rds := make([]*Descriptor, rounds)
	for i := range rds {
		rds[i] = NewDescriptor(OpRecv, Segment{Handle: hB, Offset: 0, Length: 64})
		if err := r.viB.PostRecv(rds[i]); err != nil {
			t.Fatal(err)
		}
	}
	sds := make([]*Descriptor, rounds)
	for i := range sds {
		sds[i] = NewDescriptor(OpSend, Segment{Handle: hA, Offset: 0, Length: 8})
		if err := r.viA.PostSend(sds[i]); err != nil {
			t.Fatal(err)
		}
	}
	// All complete eventually, in order.
	for i, sd := range sds {
		if st := sd.Wait(); st != StatusSuccess {
			t.Fatalf("send %d: %v", i, st)
		}
	}
	for i, rd := range rds {
		if st := rd.Wait(); st != StatusSuccess {
			t.Fatalf("recv %d: %v", i, st)
		}
	}
	if got := r.nicA.Stats().Sends; got != rounds {
		t.Fatalf("sends = %d", got)
	}
}

func TestEngineStopDrainsQueue(t *testing.T) {
	leakcheck.Check(t)
	r := newRig(t)
	r.nicA.StartEngine()
	hA, _ := regFrames(t, r.nicA, r.memA, 1, tagA, MemAttrs{})
	hB, _ := regFrames(t, r.nicB, r.memB, 1, tagB, MemAttrs{})
	var sds []*Descriptor
	for i := 0; i < 5; i++ {
		rd := NewDescriptor(OpRecv, Segment{Handle: hB, Offset: 0, Length: 64})
		if err := r.viB.PostRecv(rd); err != nil {
			t.Fatal(err)
		}
		sd := NewDescriptor(OpSend, Segment{Handle: hA, Offset: 0, Length: 8})
		if err := r.viA.PostSend(sd); err != nil {
			t.Fatal(err)
		}
		sds = append(sds, sd)
	}
	r.nicA.StopEngine()
	if r.nicA.EngineRunning() {
		t.Fatal("engine still running")
	}
	// Everything posted before the stop must have been processed.
	for i, sd := range sds {
		select {
		case <-sd.Done():
		default:
			t.Fatalf("descriptor %d not drained", i)
		}
	}
	// Back in synchronous mode, traffic still works.
	rd := NewDescriptor(OpRecv, Segment{Handle: hB, Offset: 0, Length: 64})
	if err := r.viB.PostRecv(rd); err != nil {
		t.Fatal(err)
	}
	sd := NewDescriptor(OpSend, Segment{Handle: hA, Offset: 0, Length: 8})
	if err := r.viA.PostSend(sd); err != nil {
		t.Fatal(err)
	}
	if st := sd.Status; st != StatusSuccess {
		t.Fatalf("synchronous post not complete on return: %v", st)
	}
}

func TestEngineDoubleStartStop(t *testing.T) {
	r := newRig(t)
	r.nicA.StartEngine()
	r.nicA.StartEngine() // idempotent
	r.nicA.StopEngine()
	r.nicA.StopEngine() // idempotent
}

// TestDisconnectDuringEngineSends disconnects a VI while its engine
// lanes are saturated with queued sends.  The guarantee under test: no
// descriptor is ever lost.  Every posted send reaches a terminal
// status — success if it beat the disconnect, cancelled if the lane
// dequeued it afterwards — and every posted receive is either matched
// or flushed with StatusCancelled.
func TestDisconnectDuringEngineSends(t *testing.T) {
	leakcheck.Check(t)
	r := newRig(t)
	r.nicA.StartEngineLanes(2)
	defer r.nicA.StopEngine()
	// Stall every lane dequeue so a backlog is guaranteed to exist when
	// the disconnect lands mid-stream.
	inj := faultinject.New(31)
	inj.StallProb("engine.lane", 1, 100*time.Microsecond)
	r.nicA.SetFaultInjector(inj)
	defer r.nicA.SetFaultInjector(nil)

	hA, _ := regFrames(t, r.nicA, r.memA, 1, tagA, MemAttrs{})
	hB, _ := regFrames(t, r.nicB, r.memB, 1, tagB, MemAttrs{})

	const posts = 96
	rds := make([]*Descriptor, posts)
	for i := range rds {
		rds[i] = NewDescriptor(OpRecv, Segment{Handle: hB, Offset: 0, Length: 64})
		if err := r.viB.PostRecv(rds[i]); err != nil {
			t.Fatal(err)
		}
	}
	posted := make(chan []*Descriptor, 1)
	postErr := make(chan error, 1)
	backlog := make(chan struct{})
	go func() {
		var out []*Descriptor
		for i := 0; i < posts; i++ {
			if i == posts/4 {
				close(backlog)
			}
			sd := NewDescriptor(OpSend, Segment{Handle: hA, Offset: 0, Length: 8})
			if err := r.viA.PostSend(sd); err != nil {
				// The disconnect landed between posts: refusal is the
				// documented behaviour, anything else is a bug.
				if !errors.Is(err, ErrNotConnected) && !errors.Is(err, ErrVIErrorState) {
					postErr <- err
				}
				break
			}
			out = append(out, sd)
		}
		close(postErr)
		posted <- out
	}()

	<-backlog
	if err := r.net.Disconnect(r.viA); err != nil && !errors.Is(err, ErrVIErrorState) {
		t.Fatal(err)
	}
	if err, ok := <-postErr; ok && err != nil {
		t.Fatalf("post: %v", err)
	}
	sds := <-posted

	counts := make(map[Status]int)
	for i, sd := range sds {
		select {
		case <-sd.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("send %d lost after disconnect (status %v)", i, sd.Status)
		}
		switch sd.Status {
		case StatusSuccess, StatusCancelled, StatusQueueOverflow:
		case StatusConnectionError:
			// An in-flight send can race the peer's receive-queue flush
			// (recv underflow): loud and typed, not lost.
		default:
			t.Fatalf("send %d completed %v", i, sd.Status)
		}
		counts[sd.Status]++
	}
	if counts[StatusCancelled] == 0 {
		t.Fatalf("no queued send was flushed with StatusCancelled: %v", counts)
	}
	// Receives: matched by a send that won the race, or flushed by the
	// disconnect.  None may still be pending.
	for i, rd := range rds {
		select {
		case <-rd.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("recv %d never flushed (status %v)", i, rd.Status)
		}
		if st := rd.Status; st != StatusSuccess && st != StatusCancelled {
			t.Fatalf("recv %d completed %v", i, st)
		}
	}
	if got := r.nicA.Stats().DescriptorsFlushed; got == 0 {
		t.Fatal("disconnect flushed nothing")
	}
}

func TestEngineWithCQ(t *testing.T) {
	r := newRig(t)
	r.nicA.StartEngine()
	defer r.nicA.StopEngine()
	cq := r.nicA.CreateCQ(8)
	viA, err := r.nicA.CreateVIWithCQ(tagA, cq, nil)
	if err != nil {
		t.Fatal(err)
	}
	viB, err := r.nicB.CreateVI(tagB)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.net.Connect(viA, viB); err != nil {
		t.Fatal(err)
	}
	hA, _ := regFrames(t, r.nicA, r.memA, 1, tagA, MemAttrs{})
	hB, _ := regFrames(t, r.nicB, r.memB, 1, tagB, MemAttrs{})
	rd := NewDescriptor(OpRecv, Segment{Handle: hB, Offset: 0, Length: 64})
	if err := viB.PostRecv(rd); err != nil {
		t.Fatal(err)
	}
	sd := NewDescriptor(OpSend, Segment{Handle: hA, Offset: 0, Length: 8})
	if err := viA.PostSend(sd); err != nil {
		t.Fatal(err)
	}
	c, err := cq.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if c.Desc != sd || c.Desc.Status != StatusSuccess {
		t.Fatalf("completion %+v", c)
	}
}
