package via

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCQBatchPushDrainRace hammers concurrent pushes against a mixed
// crowd of Poll/PollBatch/Len consumers and checks the exactly-once
// contract: every pushed completion is drained by exactly one consumer,
// nothing is lost, nothing is seen twice, and the queue ends empty.
// Run under -race this also pins the lock discipline of push against
// popMany's bulk drains.
func TestCQBatchPushDrainRace(t *testing.T) {
	const (
		producers = 4
		perProd   = 900
		consumers = 4
	)
	total := producers * perProd
	q := NewCQ(total) // depth = total: overflow can never race the count
	descs := make([]Descriptor, total)
	index := make(map[*Descriptor]int, total)
	for i := range descs {
		index[&descs[i]] = i
	}
	// Distinct VI uids spread the completions across every shard.
	vis := make([]*VI, 32)
	for i := range vis {
		vis[i] = &VI{uid: uint64(i)}
	}
	seen := make([]atomic.Int32, total)

	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			for i := p * perProd; i < (p+1)*perProd; i++ {
				q.push(Completion{VI: vis[i%len(vis)], Desc: &descs[i]})
			}
		}(p)
	}

	var drained atomic.Int64
	var cwg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func(c int) {
			defer cwg.Done()
			buf := make([]Completion, 16)
			for drained.Load() < int64(total) {
				_ = q.Len() // hammer the size snapshot alongside the drains
				if c%2 == 0 {
					n, err := q.PollBatch(buf)
					if err != nil {
						runtime.Gosched()
						continue
					}
					for _, cc := range buf[:n] {
						seen[index[cc.Desc]].Add(1)
					}
					drained.Add(int64(n))
				} else {
					cc, err := q.Poll()
					if err != nil {
						runtime.Gosched()
						continue
					}
					seen[index[cc.Desc]].Add(1)
					drained.Add(1)
				}
			}
		}(c)
	}
	pwg.Wait()
	cwg.Wait()

	if d := q.Dropped(); d != 0 {
		t.Fatalf("dropped %d completions with depth == total", d)
	}
	for i := range seen {
		if n := seen[i].Load(); n != 1 {
			t.Fatalf("completion %d drained %d times, want exactly once", i, n)
		}
	}
	if n := q.Len(); n != 0 {
		t.Fatalf("Len = %d after full drain, want 0", n)
	}
	if _, err := q.Poll(); !errors.Is(err, ErrCQEmpty) {
		t.Fatalf("Poll on drained queue = %v, want ErrCQEmpty", err)
	}
}

// TestCQLenPollConsistency pins the Len/Poll snapshot fix: with a SOLE
// consumer, a positive Len can never be followed by ErrCQEmpty — the
// rescan loop retries shards a racing push filled behind the scan
// front.  Before the fix this interleaving returned ErrCQEmpty against
// a non-empty queue.
func TestCQLenPollConsistency(t *testing.T) {
	const total = 5000
	q := NewCQ(total)
	descs := make([]Descriptor, total)
	vis := make([]*VI, 16)
	for i := range vis {
		vis[i] = &VI{uid: uint64(i)}
	}
	var pwg sync.WaitGroup
	pwg.Add(1)
	go func() {
		defer pwg.Done()
		for i := range descs {
			q.push(Completion{VI: vis[i%len(vis)], Desc: &descs[i]})
		}
	}()
	for got := 0; got < total; {
		if q.Len() == 0 {
			runtime.Gosched()
			continue
		}
		if _, err := q.Poll(); err != nil {
			t.Fatalf("Len > 0 but Poll returned %v after %d drains", err, got)
		}
		got++
	}
	pwg.Wait()
}
