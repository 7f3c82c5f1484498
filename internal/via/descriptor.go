package via

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/simtime"
	"repro/internal/trace"
)

// Op is the operation a descriptor requests.
type Op uint8

// Descriptor operations.
const (
	// OpSend transmits the described buffer to the connected peer VI.
	OpSend Op = iota
	// OpRecv provides a buffer for one incoming send.
	OpRecv
	// OpRDMAWrite writes the local buffer into remote registered memory.
	OpRDMAWrite
	// OpRDMARead reads remote registered memory into the local buffer.
	OpRDMARead

	// opCount counts the operations; the String exhaustiveness test
	// iterates up to it.
	opCount
)

func (o Op) String() string {
	switch o {
	case OpSend:
		return "send"
	case OpRecv:
		return "recv"
	case OpRDMAWrite:
		return "rdma-write"
	case OpRDMARead:
		return "rdma-read"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Status is a completed descriptor's result.
type Status uint8

// Descriptor completion statuses.
const (
	// StatusPending means the descriptor has not completed yet.
	StatusPending Status = iota
	// StatusSuccess means the operation completed.
	StatusSuccess
	// StatusProtectionError means a tag or attribute check failed.
	StatusProtectionError
	// StatusLengthError means the message did not fit the buffer.
	StatusLengthError
	// StatusConnectionError means the VI was not connected or broke.
	StatusConnectionError
	// StatusCancelled means the descriptor was flushed off a queue.
	StatusCancelled
	// StatusQueueOverflow means the post found the engine's send queue
	// full; the descriptor was never processed.
	StatusQueueOverflow
	// StatusDMAError means the DMA engine faulted moving the payload
	// (frame access failure or injected DMA fault).
	StatusDMAError
	// StatusTranslationError means the TPT could not translate the
	// access on the data path (stale or faulted entry).
	StatusTranslationError
	// StatusLinkError means the wire was down or partitioned.
	StatusLinkError
	// StatusCompletionLost means the payload was placed at the peer but
	// the NIC lost the completion write-back: the data arrived, the
	// sender just cannot prove it from this descriptor alone.
	StatusCompletionLost
	// StatusIOPageFault means DMA hit a non-present nopin translation
	// and the fault could not be recovered (no handler installed, or
	// the retry/retransmit budget ran out).
	StatusIOPageFault

	// statusCount counts the statuses; the String exhaustiveness test
	// iterates up to it.
	statusCount
)

func (s Status) String() string {
	switch s {
	case StatusPending:
		return "pending"
	case StatusSuccess:
		return "success"
	case StatusProtectionError:
		return "protection-error"
	case StatusLengthError:
		return "length-error"
	case StatusConnectionError:
		return "connection-error"
	case StatusCancelled:
		return "cancelled"
	case StatusQueueOverflow:
		return "queue-overflow"
	case StatusDMAError:
		return "dma-error"
	case StatusTranslationError:
		return "translation-error"
	case StatusLinkError:
		return "link-error"
	case StatusCompletionLost:
		return "completion-lost"
	case StatusIOPageFault:
		return "io-page-fault"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Segment describes one piece of local registered memory.
type Segment struct {
	// Handle is the memory handle from registration.
	Handle MemHandle
	// Offset is the byte offset within the registered region.
	Offset int
	// Length is the segment length in bytes.
	Length int
}

// RemoteSegment names a location in the peer's registered memory for
// RDMA operations.
type RemoteSegment struct {
	// Handle is the peer's memory handle, communicated out of band.
	Handle MemHandle
	// Offset is the byte offset within the peer's region.
	Offset int
}

// ImmediateLen is the number of immediate-data bytes a descriptor can
// carry inline (the VIA spec allows four).
const ImmediateLen = 4

// MaxInlineData is the hardware bound on inline payload: the descriptor
// image the NIC fetches is one cache-line-aligned 256-byte block beyond
// the header, so a payload up to this size rides inside the descriptor
// itself — no TPT translation, no gather DMA, no staging buffer.
const MaxInlineData = 256

// ErrInlineTooLarge reports an inline payload exceeding MaxInlineData.
var ErrInlineTooLarge = errors.New("via: inline payload exceeds MaxInlineData")

// ErrInlineMisuse reports an inline payload on a descriptor that cannot
// carry one: a non-send operation, or one that has segments.
var ErrInlineMisuse = errors.New("via: inline payload on a descriptor that cannot carry one")

// Descriptor is one work request.  The process builds it in (conceptually
// registered) memory, posts it to a VI work queue and rings the doorbell;
// the NIC fills Status and Transferred on completion.
type Descriptor struct {
	// Op selects the operation.
	Op Op
	// Segs are the local buffer segments (gather on send, scatter on recv).
	Segs []Segment
	// Remote is the target of an RDMA operation.
	Remote RemoteSegment
	// Immediate carries up to four bytes inline, avoiding the data DMA
	// for tiny payloads.  Valid when HasImmediate is set.
	Immediate [ImmediateLen]byte
	// HasImmediate marks the immediate data as meaningful.
	HasImmediate bool

	// inline is the inline-payload image: a send built with SetInline
	// carries its whole payload here instead of in registered segments,
	// and an inline delivery lands the payload here on the matched
	// receive descriptor.  inlineLen is the valid byte count (0 = not
	// inline).  The array lives in the descriptor so a reused descriptor
	// never allocates for inline traffic.
	inline    [MaxInlineData]byte
	inlineLen int

	// Status is the completion result, StatusPending until then.
	Status Status
	// Transferred is the number of payload bytes moved.
	Transferred int

	// mu guards the completion state so a Reset cannot tear the tail of
	// a concurrent complete.  done is created lazily by Done/Wait: the
	// synchronous fast path (poll Status after PostSend returns) never
	// allocates a channel, so a reused descriptor costs nothing.
	mu        sync.Mutex
	completed bool
	done      chan struct{}

	// span and postSim are observability state stamped at post time
	// when an observer is attached to the NIC (zero otherwise): the
	// lifecycle span id and the virtual post timestamp.  They are owned
	// by the poster until completion, like the descriptor itself.
	span    trace.SpanID
	postSim simtime.Duration
}

// ErrDescriptorBusy reports a descriptor posted twice concurrently.
var ErrDescriptorBusy = errors.New("via: descriptor already posted")

// NewDescriptor builds a descriptor for op over the given segments.
func NewDescriptor(op Op, segs ...Segment) *Descriptor {
	return &Descriptor{Op: op, Segs: segs}
}

// TotalLength sums the segment lengths; for an inline descriptor it is
// the inline payload length (inline sends carry no segments).
func (d *Descriptor) TotalLength() int {
	if d.inlineLen > 0 {
		return d.inlineLen
	}
	n := 0
	for _, s := range d.Segs {
		n += s.Length
	}
	return n
}

// SetInline copies p into the descriptor's inline image, turning the
// descriptor into an inline send: the payload travels inside the
// descriptor, skipping TPT translation and the gather DMA entirely.
// The descriptor must carry no segments (the inline image replaces
// them).  Payloads beyond MaxInlineData are refused, here and again at
// post time.
func (d *Descriptor) SetInline(p []byte) error {
	img, err := d.InlineBuf(len(p))
	copy(img, p)
	return err
}

// InlineBuf is SetInline without the intermediate copy: it sizes the
// inline image to n bytes and returns it for the caller to fill in
// place (the programmed-I/O write of the payload into the descriptor).
// The slice aliases the descriptor and is valid until the next Reset.
func (d *Descriptor) InlineBuf(n int) ([]byte, error) {
	if n > MaxInlineData {
		return nil, fmt.Errorf("%w: %d > %d", ErrInlineTooLarge, n, MaxInlineData)
	}
	if len(d.Segs) > 0 {
		return nil, fmt.Errorf("%w: the descriptor has segments", ErrInlineMisuse)
	}
	d.inlineLen = n
	return d.inline[:n], nil
}

// Inline returns the valid inline payload (nil when the descriptor is
// not inline).  On a completed receive descriptor matched by an inline
// send it is the delivered payload; the slice aliases the descriptor
// image and is valid until the next Reset or SetInline.
func (d *Descriptor) Inline() []byte {
	if d.inlineLen == 0 {
		return nil
	}
	return d.inline[:d.inlineLen]
}

// IsInline reports whether the descriptor carries an inline payload.
func (d *Descriptor) IsInline() bool { return d.inlineLen > 0 }

// setInlineRecv is the delivery half: the NIC writes an inline send's
// payload straight into the matched receive descriptor's image.
func (d *Descriptor) setInlineRecv(p []byte) {
	d.inlineLen = copy(d.inline[:], p)
}

// complete finalizes the descriptor and reports whether this call won
// the completion.  The first completion wins; later calls are ignored.
// The winner also gets the observability stamps, read under the lock:
// once completed is set the owner may Reset and repost the descriptor.
func (d *Descriptor) complete(st Status, transferred int) (won bool, span trace.SpanID, postSim simtime.Duration) {
	d.mu.Lock()
	if d.completed {
		d.mu.Unlock()
		return false, 0, 0
	}
	span, postSim = d.span, d.postSim
	d.Status = st
	d.Transferred = transferred
	d.completed = true
	if d.done != nil {
		close(d.done)
	}
	d.mu.Unlock()
	return true, span, postSim
}

// Completed reports whether the descriptor has reached a terminal
// status since it was built or last Reset; Status and Transferred may
// be read once it returns true.
func (d *Descriptor) Completed() bool {
	d.mu.Lock()
	c := d.completed
	d.mu.Unlock()
	return c
}

// Done returns a channel closed when the descriptor completes.
func (d *Descriptor) Done() <-chan struct{} {
	d.mu.Lock()
	if d.done == nil {
		d.done = make(chan struct{})
		if d.completed {
			close(d.done)
		}
	}
	ch := d.done
	d.mu.Unlock()
	return ch
}

// Wait blocks until the descriptor completes and returns its status.
// Only a wait that actually blocks creates the done channel.
func (d *Descriptor) Wait() Status {
	if !d.Completed() {
		<-d.Done()
	}
	return d.Status
}

// Reset re-arms a completed descriptor for reuse (the descriptor-reuse
// pattern VIA encourages for persistent operations).  It neither
// allocates nor leaves a completion behind: the lock orders it after
// the final store of a concurrent complete.
func (d *Descriptor) Reset() {
	d.mu.Lock()
	if !d.completed {
		d.mu.Unlock()
		// Still pending: resetting would lose a completion.  Callers must
		// only reset finished work.
		panic("via: Reset on pending descriptor")
	}
	d.Status = StatusPending
	d.Transferred = 0
	d.completed = false
	d.done = nil
	d.span = 0
	d.postSim = 0
	d.inlineLen = 0
	d.mu.Unlock()
}
