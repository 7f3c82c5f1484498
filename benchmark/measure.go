package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/simtime"
)

// quantile returns the nearest-rank q-quantile of the samples
// (0 < q ≤ 1): the smallest sample with at least q of the samples at or
// below it.  It sorts a copy.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rankIndex(len(s), q)]
}

// rankIndex is the nearest-rank index of the q-quantile among n sorted
// samples.
func rankIndex(n int, q float64) int {
	i := int(q*float64(n)+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// median returns the middle sample (the mean of the two middle ones for
// an even count).  It sorts a copy.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fastest is the minimum of the samples.
func fastest(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	m := samples[0]
	for _, v := range samples[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// simHist counts per-op simulated durations by value.  Per-op sim-time
// takes few distinct values, so the exact median and p99 of millions of
// ops fit in a small map and the op loop does not grow a sample slice.
type simHist struct {
	counts map[simtime.Duration]uint64
	n      uint64
	sum    simtime.Duration
}

func newSimHist() *simHist { return &simHist{counts: make(map[simtime.Duration]uint64)} }

func (h *simHist) add(d simtime.Duration) {
	h.counts[d]++
	h.n++
	h.sum += d
}

func (h *simHist) reset() {
	clear(h.counts)
	h.n, h.sum = 0, 0
}

// quantile is the exact nearest-rank quantile of the recorded values.
func (h *simHist) quantile(q float64) simtime.Duration {
	if h.n == 0 {
		return 0
	}
	keys := make([]simtime.Duration, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	target := uint64(rankIndex(int(h.n), q)) + 1
	var seen uint64
	for _, k := range keys {
		seen += h.counts[k]
		if seen >= target {
			return k
		}
	}
	return keys[len(keys)-1]
}

// Span names.  The benchmark records its own spans around every public
// call an op makes; spans inside the program are a later change.
type spanName uint8

const (
	spOp spanName = iota
	spStamp
	spSwapOut
	spSend
	spRecv
	spPeerRecv
	spPeerSend
	spAllreduce
	spVerify
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spOp:        "op",
	spStamp:     "proc.Buffer.Write",
	spSwapOut:   "mm.Kernel.SwapOut",
	spSend:      "msg.Endpoint.Send",
	spRecv:      "msg.Endpoint.Recv",
	spPeerRecv:  "peer/msg.Endpoint.Recv",
	spPeerSend:  "peer/msg.Endpoint.Send",
	spAllreduce: "mpi.Rank.Allreduce",
	spVerify:    "verify",
}

// span is one recorded interval on both clocks.
type span struct {
	name   spanName
	op     uint64
	parent int32 // index of the causing span, -1 for a root
	h0, h1 int64 // host ns since the recorder's epoch
	s0, s1 simtime.Duration
}

// spanRec keeps spans in a preallocated slice.  Slots are claimed with
// one atomic add, so the driving goroutine, the echo peer and the 64
// rank goroutines record without a lock and without allocating.  All
// methods are no-ops on a nil recorder: the untraced sections pay one
// nil check per call site.
type spanRec struct {
	meter   *simtime.Meter
	epoch   time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

func newSpanRec(meter *simtime.Meter, capacity int) *spanRec {
	return &spanRec{meter: meter, epoch: time.Now(), spans: make([]span, capacity)}
}

func (r *spanRec) begin(name spanName, parent int32, op uint64) int32 {
	if r == nil {
		return -1
	}
	i := r.next.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return -1
	}
	r.spans[i] = span{name: name, op: op, parent: parent,
		h0: int64(time.Since(r.epoch)), s0: r.meter.Now()}
	return int32(i)
}

func (r *spanRec) end(id int32) {
	if r == nil || id < 0 {
		return
	}
	s := &r.spans[id]
	s.h1 = int64(time.Since(r.epoch))
	s.s1 = r.meter.Now()
}

// recorded returns the spans written so far.
func (r *spanRec) recorded() []span {
	if r == nil {
		return nil
	}
	n := r.next.Load()
	if n > int64(len(r.spans)) {
		n = int64(len(r.spans))
	}
	return r.spans[:n]
}

// hostUS and simUS are a span's duration in µs on each clock.
func (s *span) hostUS() float64 { return float64(s.h1-s.h0) / 1e3 }
func (s *span) simUS() float64  { return (s.s1 - s.s0).Micros() }

// durations returns the duration, on the clock given, of every span of
// the name.
func durations(spans []span, name spanName, clock func(*span) float64) []float64 {
	var out []float64
	for i := range spans {
		if spans[i].name == name {
			out = append(out, clock(&spans[i]))
		}
	}
	return out
}

// spanSummary is one row of the self-time table.
type spanSummary struct {
	Name       string
	Count      int
	HostUS     float64 // total host time
	SelfHostUS float64 // host time not covered by child spans
	SimUS      float64
}

// summarize totals each span name.  A span's self time is its duration
// minus the part of its interval its children cover: children may run
// on another goroutine (the echo peer, the ranks) and overlap each
// other, so it is the union of their intervals that is subtracted.
func summarize(spans []span) []spanSummary {
	type interval struct{ lo, hi int64 }
	children := make(map[int32][]interval)
	for i := range spans {
		if p := spans[i].parent; p >= 0 && int(p) < len(spans) {
			lo, hi := max(spans[i].h0, spans[p].h0), min(spans[i].h1, spans[p].h1)
			if hi > lo {
				children[p] = append(children[p], interval{lo, hi})
			}
		}
	}
	rows := make([]spanSummary, numSpanNames)
	for i := range rows {
		rows[i].Name = spanNames[i]
	}
	for i := range spans {
		s := &spans[i]
		r := &rows[s.name]
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return kids[a].lo < kids[b].lo })
		var covered, end int64
		for _, k := range kids {
			if k.hi > end {
				covered += k.hi - max(k.lo, end)
				end = k.hi
			}
		}
		r.Count++
		r.HostUS += s.hostUS()
		r.SelfHostUS += float64(s.h1-s.h0-covered) / 1e3
		r.SimUS += s.simUS()
	}
	out := rows[:0]
	for _, r := range rows {
		if r.Count > 0 {
			out = append(out, r)
		}
	}
	return out
}

// writeSpans writes the spans as one JSON array (one object per span).
func writeSpans(w io.Writer, workload string, spans []span) error {
	type rec struct {
		Workload string `json:"workload"`
		ID       int    `json:"id"`
		Parent   int32  `json:"parent"`
		Op       uint64 `json:"op"`
		Name     string `json:"name"`
		HostNS0  int64  `json:"host_start_ns"`
		HostNS1  int64  `json:"host_end_ns"`
		SimNS0   int64  `json:"sim_start_ns"`
		SimNS1   int64  `json:"sim_end_ns"`
	}
	if _, err := fmt.Fprintln(w, "["); err != nil {
		return err
	}
	for i := range spans {
		s := &spans[i]
		b, err := json.Marshal(rec{workload, i, s.parent, s.op, spanNames[s.name], s.h0, s.h1, int64(s.s0), int64(s.s1)})
		if err != nil {
			return err
		}
		sep := ","
		if i == len(spans)-1 {
			sep = ""
		}
		if _, err := fmt.Fprintf(w, "%s%s\n", b, sep); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "]")
	return err
}
