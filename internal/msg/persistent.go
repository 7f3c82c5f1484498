package msg

import (
	"errors"

	"repro/internal/proc"
	"repro/internal/regcache"
	"repro/internal/via"
	"repro/internal/vipl"
)

// Persistent requests are the MPI pattern the companion articles single
// out as the natural fit for registration caching: "it is profitable to
// use registered buffers again like in the MPI persistent
// communication".  SendInit/RecvInit acquire the registration once
// (class persistent, so the cache evicts it last) and hold it across
// any number of Start calls; Free releases it.

// ErrFreed reports a Start on a freed persistent request.
var ErrFreed = errors.New("msg: persistent request freed")

// persistent is the held registration both request kinds are built on.
type persistent struct {
	ep  *Endpoint
	buf *proc.Buffer
	reg *vipl.MemRegion
}

// initPersistent registers the whole buffer once, class persistent.
func (e *Endpoint) initPersistent(b *proc.Buffer, rdmaWrite bool) (persistent, error) {
	if e.peer == nil {
		return persistent{}, ErrNotPaired
	}
	if b.Bytes <= 0 {
		return persistent{}, ErrEmptyMessage
	}
	reg, err := e.cache.Acquire(b, 0, b.Bytes, via.MemAttrs{EnableRDMAWrite: rdmaWrite}, regcache.ClassPersistent)
	return persistent{ep: e, buf: b, reg: reg}, err
}

// Free releases the held registration back to the cache.
func (p *persistent) Free() error {
	if p.reg == nil {
		return ErrFreed
	}
	reg := p.reg
	p.reg = nil
	return p.ep.cache.Release(reg)
}

// PersistentSend is a reusable zero-copy send request over one buffer.
type PersistentSend struct{ persistent }

// SendInit registers the buffer once and returns the reusable request.
func (e *Endpoint) SendInit(b *proc.Buffer) (*PersistentSend, error) {
	p, err := e.initPersistent(b, false)
	if err != nil {
		return nil, err
	}
	return &PersistentSend{p}, nil
}

// Start performs one zero-copy send of the whole buffer using the held
// registration: no kernel call, no pinning, no TPT update on this path.
func (p *PersistentSend) Start() (int, error) {
	if p.reg == nil {
		return 0, ErrFreed
	}
	return p.ep.sendRndv(p.buf, p.reg, false)
}

// PersistentRecv is a reusable zero-copy receive request.
type PersistentRecv struct{ persistent }

// RecvInit registers the buffer (RDMA-write enabled) once.
func (e *Endpoint) RecvInit(b *proc.Buffer) (*PersistentRecv, error) {
	p, err := e.initPersistent(b, true)
	if err != nil {
		return nil, err
	}
	return &PersistentRecv{p}, nil
}

// Start receives one message into the held buffer.  A rendezvous
// (ZeroCopy, Remap or a persistent send) lands in the held registration;
// anything else is received as Recv would.
func (p *PersistentRecv) Start() (int, error) {
	if p.reg == nil {
		return 0, ErrFreed
	}
	return p.ep.recv(p.buf, p.reg)
}
