// Package regcache implements registration caching: keeping user buffers
// registered "as long as possible" so that repeated zero-copy transfers
// skip the kernel call, the page pinning and the TPT update.  The paper
// names this the remedy for on-the-fly registration cost; the companion
// CHEMPI article adds the eviction rule implemented here — when TPT
// space runs out, evict the region "with the smallest probability for
// reuse", i.e. plain user buffers before persistent/library buffers.
//
// Concurrency semantics (see DESIGN.md §"Registration-cache concurrency"):
//
//   - Misses are single-flight: N concurrent Acquires of one
//     (addr, length, attrs) key perform exactly one kernel registration;
//     the other N−1 goroutines wait for it and share the region.  A
//     failed registration is propagated to every waiter.
//   - Release resolves the region through a reverse index in O(1) and
//     returns typed errors (ErrDoubleRelease, ErrUnknownRegion).
//   - Deregistration (eviction, flush) happens outside the cache lock so
//     the slow NIC/kernel path never blocks concurrent hits; eviction
//     deregistration failures are counted in Stats.EvictErrors.
package regcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/pgtable"
	"repro/internal/proc"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/via"
	"repro/internal/vipl"
)

// Class ranks a buffer's reuse probability (CHEMPI §3.2).
type Class uint8

const (
	// ClassUser is a normal user buffer, "used only once in most cases" —
	// first to be evicted.
	ClassUser Class = iota
	// ClassPersistent is memory behind an MPI persistent request.
	ClassPersistent
	// ClassLibrary is the library's own bounce/system memory — evicted
	// last.
	ClassLibrary
)

func (c Class) String() string {
	switch c {
	case ClassUser:
		return "user"
	case ClassPersistent:
		return "persistent"
	case ClassLibrary:
		return "library"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Policy selects the eviction order.
type Policy uint8

const (
	// PolicyClassLRU evicts the least-recently-used region of the lowest
	// class first (the CHEMPI rule; the default).
	PolicyClassLRU Policy = iota
	// PolicyGlobalLRU ignores classes and evicts the globally
	// least-recently-used region (the ablation baseline).
	PolicyGlobalLRU
)

// Stats counts cache behaviour.
type Stats struct {
	Hits        uint64 // Acquire satisfied from the cache (incl. waiters)
	Misses      uint64 // Acquire had to register (single-flight leaders)
	Evictions   uint64 // cached regions dropped to make room
	Failures    uint64 // registrations that failed even after eviction
	EvictErrors uint64 // evicted regions whose deregistration failed
	// ResetInvalidations counts regions flushed because the NIC
	// fault-reset (see EnableNICResetInvalidation).
	ResetInvalidations uint64
}

// key identifies a cacheable registration.
type key struct {
	addr   pgtable.VAddr
	length int
	attrs  via.MemAttrs
}

// entry is one cache slot.  While a registration is in flight the entry
// is a placeholder: region is nil and inflight is set until the
// single-flight leader settles it (err is set first on failure) and
// broadcasts the cache's settled condition.
//
// Entries are recycled through the cache's spare list once nothing can
// reach them: out of the index, their registration (if any) dropped on
// the NIC (gone), and no follower still waiting to read the outcome.
type entry struct {
	key    key
	class  Class
	region *vipl.MemRegion
	refs   int // active holders (the in-flight leader counts)

	// idle entries (refs==0) sit on their class's LRU list through
	// prev/next; evicted entries are handed to deregisterEvicted on a
	// list of their own, in eviction order; spare entries chain through
	// next.
	linked     bool
	prev, next *entry

	inflight bool  // single-flight: registration not yet settled
	waiters  int   // single-flight: followers yet to read the outcome
	err      error // single-flight: leader's failure
	gone     bool  // out of the index with its registration dropped
}

// lruList is an intrusive list of entries, oldest first: the idle
// entries of one class, or a batch of eviction victims.
type lruList struct{ head, tail *entry }

func (l *lruList) pushBack(e *entry) {
	e.linked, e.prev, e.next = true, l.tail, nil
	if l.tail != nil {
		l.tail.next = e
	} else {
		l.head = e
	}
	l.tail = e
}

func (l *lruList) remove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.linked, e.prev, e.next = false, nil, nil
}

// Cache is a registration cache for one process's NIC handle.
type Cache struct {
	nic *vipl.Nic

	// obs is the attached observer (set through AttachObs, nil in
	// production).
	obs atomic.Pointer[cacheObs]

	mu sync.Mutex
	// MaxRegions bounds the number of cached regions (a proxy for TPT
	// budget); 0 means bounded only by TPT capacity.
	maxRegions int
	policy     Policy
	entries    map[key]*entry
	// regions is the reverse index: materialized region → entry, so
	// Release is O(1) instead of scanning every entry under the lock.
	regions map[*vipl.MemRegion]*entry
	// One LRU list per class; eviction scans classes in order.  Under
	// PolicyGlobalLRU every entry lives on list 0.
	lru   [3]lruList
	stats Stats
	// settled is broadcast (on mu) whenever an in-flight registration
	// settles; spare chains recycled entries.
	settled sync.Cond
	spare   *entry
}

// Errors returned by the cache.
var (
	// ErrBusy reports an eviction attempt that found only in-use regions.
	ErrBusy = errors.New("regcache: all cached regions are in use")
	// ErrDoubleRelease reports a Release of a region that is cached but
	// has no active holders.
	ErrDoubleRelease = errors.New("regcache: release of idle region")
	// ErrUnknownRegion reports a Release of a region the cache does not
	// hold (never acquired, or already evicted).
	ErrUnknownRegion = errors.New("regcache: release of unknown region")
)

// New creates a cache over the NIC handle.  maxRegions bounds the cache
// (0 = unbounded, rely on TPT capacity).
func New(nic *vipl.Nic, maxRegions int) *Cache {
	c := &Cache{
		nic:        nic,
		maxRegions: maxRegions,
		entries:    make(map[key]*entry),
		regions:    make(map[*vipl.MemRegion]*entry),
	}
	c.settled.L = &c.mu
	return c
}

// newEntryLocked takes an entry from the spare list, or makes one.
func (c *Cache) newEntryLocked() *entry {
	e := c.spare
	if e == nil {
		return new(entry)
	}
	c.spare, e.next = e.next, nil
	return e
}

// putEntryLocked recycles e if nothing can reach it any more.
func (c *Cache) putEntryLocked(e *entry) {
	if e.gone && e.waiters == 0 {
		*e = entry{next: c.spare}
		c.spare = e
	}
}

// NewWithPolicy creates a cache with an explicit eviction policy.
func NewWithPolicy(nic *vipl.Nic, maxRegions int, p Policy) *Cache {
	c := New(nic, maxRegions)
	c.policy = p
	return c
}

// lruIndex maps an entry class to its LRU list under the active policy.
func (c *Cache) lruIndex(cl Class) int {
	if c.policy == PolicyGlobalLRU {
		return 0
	}
	return int(cl)
}

// Stats returns a snapshot of cache statistics.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len reports the number of cached regions (in use, idle, or in flight).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// holdLocked records another active holder of a materialized entry.
func (c *Cache) holdLocked(e *entry, class Class) {
	e.refs++
	if e.linked {
		c.lru[c.lruIndex(e.class)].remove(e)
	}
	// Reuse upgrades the class estimate (a reused "user" buffer behaves
	// like a persistent one).
	if class > e.class {
		e.class = class
	}
}

// Acquire returns a registration covering [off, off+length) of the
// buffer, registering it on a miss.  The caller must call Release when
// the transfer completes; the registration then stays cached for reuse
// until evicted.
//
// Concurrent misses on one key are single-flight: the first goroutine
// registers, the rest wait on the in-flight registration and share its
// region (or its error).
func (c *Cache) Acquire(b *proc.Buffer, off, length int, attrs via.MemAttrs, class Class) (*vipl.MemRegion, error) {
	k := key{addr: b.Addr + pgtable.VAddr(off), length: length, attrs: attrs}

	for {
		c.mu.Lock()
		if e, ok := c.entries[k]; ok {
			if e.inflight {
				// Registration in flight: wait for the leader.
				e.waiters++
				c.mu.Unlock()
				if obs := c.obs.Load(); obs != nil {
					obs.event(trace.KindCacheWait, uint64(k.addr), length)
				}
				c.mu.Lock()
				for e.inflight {
					c.settled.Wait()
				}
				e.waiters--
				if err := e.err; err != nil {
					c.putEntryLocked(e)
					c.mu.Unlock()
					return nil, err
				}
				if c.entries[k] == e {
					c.holdLocked(e, class)
					c.stats.Hits++
					c.mu.Unlock()
					if obs := c.obs.Load(); obs != nil {
						obs.event(trace.KindCacheHit, uint64(k.addr), length)
					}
					return e.region, nil
				}
				// Materialized and already evicted in the window before we
				// re-took the lock: start over.
				c.putEntryLocked(e)
				c.mu.Unlock()
				continue
			}
			c.holdLocked(e, class)
			c.stats.Hits++
			c.mu.Unlock()
			if obs := c.obs.Load(); obs != nil {
				obs.event(trace.KindCacheHit, uint64(k.addr), length)
			}
			return e.region, nil
		}

		// Miss: become the single-flight leader.  The placeholder keeps
		// followers out of the kernel; refs==1 keeps eviction away.
		e := c.newEntryLocked()
		e.key, e.class, e.refs, e.inflight = k, class, 1, true
		c.entries[k] = e
		c.stats.Misses++
		c.mu.Unlock()

		obs := c.obs.Load()
		var missStart simtime.Duration
		if obs != nil {
			obs.event(trace.KindCacheMiss, uint64(k.addr), length)
			missStart = obs.now()
		}
		region, err := c.registerWithEviction(b, off, length, attrs)
		if obs != nil {
			obs.missSim.Observe(int64(obs.now() - missStart))
		}

		c.mu.Lock()
		e.inflight = false
		c.settled.Broadcast()
		if err != nil {
			e.err, e.gone = err, true
			delete(c.entries, k)
			c.stats.Failures++
			c.putEntryLocked(e)
			c.mu.Unlock()
			return nil, err
		}
		e.region = region
		c.regions[region] = e
		victims := c.collectOverCapLocked()
		c.mu.Unlock()
		c.deregisterEvicted(victims)
		return region, nil
	}
}

// Release marks a transfer over the region finished.  The registration
// stays cached (idle) until capacity pressure evicts it.  Releasing a
// region twice returns ErrDoubleRelease; releasing a region the cache
// does not hold returns ErrUnknownRegion.
func (c *Cache) Release(r *vipl.MemRegion) error {
	c.mu.Lock()
	e, ok := c.regions[r]
	if !ok {
		c.mu.Unlock()
		return ErrUnknownRegion
	}
	if e.refs <= 0 {
		c.mu.Unlock()
		return ErrDoubleRelease
	}
	e.refs--
	var victims *entry
	if e.refs == 0 {
		c.lru[c.lruIndex(e.class)].pushBack(e)
		victims = c.collectOverCapLocked()
	}
	c.mu.Unlock()
	c.deregisterEvicted(victims)
	return nil
}

// Flush deregisters every idle cached region and reports how many were
// dropped.  In-use and in-flight regions are left alone.
func (c *Cache) Flush() (int, error) {
	c.mu.Lock()
	var victims lruList
	n := 0
	for idx := range c.lru {
		for c.lru[idx].head != nil {
			victims.pushBack(c.unlinkVictimLocked(idx))
			n++
		}
	}
	c.mu.Unlock()
	if obs := c.obs.Load(); obs != nil {
		obs.event(trace.KindCacheFlush, 0, n)
	}
	return n, c.deregisterEvicted(victims.head)
}

// EnableNICResetInvalidation subscribes the cache to the NIC's
// fault-reset hook: after a NIC reset every idle cached region is
// flushed, so the next Acquire re-registers through the kernel agent
// instead of reusing a registration the reset may have invalidated.
// In-use regions are left to their holders (their transfers fail with
// the VI error state and the holders release them normally).
func (c *Cache) EnableNICResetInvalidation() {
	c.nic.Agent().NIC().OnReset(func() {
		n, _ := c.Flush()
		if n > 0 {
			c.mu.Lock()
			c.stats.ResetInvalidations += uint64(n)
			c.mu.Unlock()
		}
	})
}

// registerWithEviction registers the range, evicting idle cached regions
// (cheapest class first) when the TPT is full.
func (c *Cache) registerWithEviction(b *proc.Buffer, off, length int, attrs via.MemAttrs) (*vipl.MemRegion, error) {
	for {
		region, err := c.nic.RegisterMemRange(b, off, length, attrs)
		if err == nil {
			return region, nil
		}
		if !errors.Is(err, via.ErrTPTFull) {
			return nil, err
		}
		if evictErr := c.evictAny(); evictErr != nil {
			return nil, fmt.Errorf("%w (original: %v)", evictErr, err)
		}
	}
}

// evictAny evicts one idle region, preferring the lowest class.  The
// deregistration happens outside the cache lock.
func (c *Cache) evictAny() error {
	c.mu.Lock()
	var victim *entry
	for idx := range c.lru {
		if c.lru[idx].head != nil {
			victim = c.unlinkVictimLocked(idx)
			break
		}
	}
	c.mu.Unlock()
	if victim == nil {
		return ErrBusy
	}
	return c.deregisterEvicted(victim)
}

// collectOverCapLocked unlinks idle regions beyond maxRegions (cheapest
// class first) and returns them, chained through next, for
// deregistration outside the lock.
func (c *Cache) collectOverCapLocked() *entry {
	if c.maxRegions <= 0 {
		return nil
	}
	var victims lruList
	for len(c.entries) > c.maxRegions {
		unlinked := false
		for idx := range c.lru {
			if c.lru[idx].head != nil {
				victims.pushBack(c.unlinkVictimLocked(idx))
				unlinked = true
				break
			}
		}
		if !unlinked {
			break // everything in use or in flight; nothing to trim
		}
	}
	return victims.head
}

// unlinkVictimLocked removes the least-recently-used idle entry of the
// list from all indices.  The caller deregisters the region afterwards,
// outside the lock.
func (c *Cache) unlinkVictimLocked(idx int) *entry {
	e := c.lru[idx].head
	c.lru[idx].remove(e)
	delete(c.entries, e.key)
	delete(c.regions, e.region)
	c.stats.Evictions++
	if obs := c.obs.Load(); obs != nil {
		obs.event(trace.KindCacheEvict, uint64(e.key.addr), e.key.length)
	}
	return e
}

// deregisterEvicted drops a chain of evicted regions on the NIC, counting
// failures in Stats.EvictErrors and returning the first, then recycles
// the entries.  The deregistrations run outside the cache lock.
func (c *Cache) deregisterEvicted(victims *entry) error {
	if victims == nil {
		return nil
	}
	var failed uint64
	var firstErr error
	for v := victims; v != nil; v = v.next {
		if err := c.nic.DeregisterMem(v.region); err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	c.mu.Lock()
	c.stats.EvictErrors += failed
	for v := victims; v != nil; {
		next := v.next
		v.gone = true
		c.putEntryLocked(v)
		v = next
	}
	c.mu.Unlock()
	return firstErr
}
