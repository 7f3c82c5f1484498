package via

import (
	"math/bits"
	"sync"

	"repro/internal/phys"
)

// A transfer between pinned regions streams frame to frame and never
// buffers (stream.go).  Host staging buffers remain for what cannot
// stream: a transfer with a nopin end, whose buffer is the unit IO page
// fault recovery retries or retransmits; a loopback transfer whose ends
// overlap; and the msg layer's eager bounce copies, borrowed from the
// same pool so that no endpoint owns a staging buffer and the heap stays
// flat at any VI count.  Buffers up to maxPooledPayload are recycled
// through a sync.Pool, so those paths allocate nothing in steady state
// either.
const maxPooledPayload = 256 << 10

// PayloadBuf is the pool token GetPayload hands out; it wraps the byte
// slice so pool round-trips stay pointer-sized and allocation-free.
type PayloadBuf struct{ b []byte }

var payloadPool = sync.Pool{New: func() any { return new(PayloadBuf) }}

// GetPayload returns a staging buffer of length n (contents undefined)
// plus the pool token to release it with PutPayload (nil token for
// unpooled buffers).  Pooled buffers grow to the next power of two so a
// mix of sizes converges instead of reallocating on every class change.
func GetPayload(n int) ([]byte, *PayloadBuf) {
	if n == 0 {
		return nil, nil
	}
	if n > maxPooledPayload {
		return make([]byte, n), nil
	}
	pb := payloadPool.Get().(*PayloadBuf)
	if cap(pb.b) < n {
		c := 1 << bits.Len(uint(n-1))
		if c < phys.PageSize {
			c = phys.PageSize
		}
		pb.b = make([]byte, c)
	}
	return pb.b[:n], pb
}

// PutPayload returns a pooled buffer; a nil token is a no-op.  The slice
// GetPayload returned must not be used afterwards.
func PutPayload(pb *PayloadBuf) {
	if pb != nil {
		payloadPool.Put(pb)
	}
}
