package msg

import (
	"testing"

	"repro/internal/core"
)

// TestChooseBoundaries pins the Auto protocol switch points at their
// exact edges under the default thresholds.
func TestChooseBoundaries(t *testing.T) {
	cases := []struct {
		size int
		want Protocol
	}{
		{1, Eager},
		{EagerMax - 1, Eager},
		{EagerMax, Eager},
		{EagerMax + 1, OneCopy},
		{OneCopyMax - 1, OneCopy},
		{OneCopyMax, OneCopy},
		{OneCopyMax + 1, ZeroCopy},
		{1 << 20, ZeroCopy},
	}
	for _, c := range cases {
		if got := Choose(c.size); got != c.want {
			t.Errorf("Choose(%d) = %v, want %v", c.size, got, c.want)
		}
	}
}

// TestOptionsChooseCustom checks the thresholds move with the options,
// again at the exact edges.
func TestOptionsChooseCustom(t *testing.T) {
	o := Options{EagerMax: 256, OneCopyMax: 4096}
	cases := []struct {
		size int
		want Protocol
	}{
		{256, Eager},
		{257, OneCopy},
		{4096, OneCopy},
		{4097, ZeroCopy},
	}
	for _, c := range cases {
		if got := o.Choose(c.size); got != c.want {
			t.Errorf("Options%+v.Choose(%d) = %v, want %v", o, c.size, got, c.want)
		}
	}
}

// TestOptionsWithDefaults checks zero fields pick up the package
// defaults while set fields survive.
func TestOptionsWithDefaults(t *testing.T) {
	d := Options{}.withDefaults()
	want := Options{
		EagerMax:      EagerMax,
		OneCopyMax:    OneCopyMax,
		PipelineDepth: DefaultPipelineDepth,
		PipelineChunk: DefaultPipelineChunk,
		RingSlots:     RingSlots,
		SlotBytes:     SlotSize,
	}
	if d != want {
		t.Errorf("Options{}.withDefaults() = %+v, want %+v", d, want)
	}
	set := Options{EagerMax: 1, OneCopyMax: 2, PipelineDepth: 1,
		PipelineChunk: 4096, RingSlots: 2, SlotBytes: 4096}
	if got := set.withDefaults(); got != set {
		t.Errorf("withDefaults clobbered set fields: %+v → %+v", set, got)
	}
}

// TestEndpointOptionsSteerAuto proves a configured endpoint routes Auto
// sends by its own thresholds, not the package defaults: with
// OneCopyMax pulled below a message that would default to OneCopy, the
// send goes zero-copy (and, being multi-chunk with the default depth,
// pipelined).
func TestEndpointOptionsSteerAuto(t *testing.T) {
	c := newCluster(t, core.StrategyKiobuf, 0, Options{
		EagerMax:   512,
		OneCopyMax: 64 * 1024,
	})
	c.transfer(t, 1024, Auto, 1) // default: eager; here: one-copy
	c.transfer(t, 96*1024, Auto, 2)
	st := c.epA.Stats()
	if st.EagerSends != 0 {
		t.Errorf("eager sends = %d, want 0 (EagerMax lowered to 512)", st.EagerSends)
	}
	if st.OneCopies != 1 {
		t.Errorf("one-copy sends = %d, want 1", st.OneCopies)
	}
	if st.ZeroCopies != 1 {
		t.Errorf("zero-copy sends = %d, want 1", st.ZeroCopies)
	}
}

// TestEndpointOptionsPipelineChunk checks a custom chunk size drives
// the chunk count, down to the single grant of a chunk that covers the
// whole message.
func TestEndpointOptionsPipelineChunk(t *testing.T) {
	for _, tc := range []struct{ chunk, want int }{
		{32 * 1024, 8},
		{256 * 1024, 1},
		{1 << 20, 1},
	} {
		c := newCluster(t, core.StrategyKiobuf, 0, Options{PipelineChunk: tc.chunk})
		c.transfer(t, 256*1024, ZeroCopy, 4)
		st := c.epA.Stats()
		if st.ZeroCopies != 1 || st.PipelinedSends != 1 {
			t.Fatalf("chunk %d: zero-copy sends = %d, pipelined = %d, want 1 and 1",
				tc.chunk, st.ZeroCopies, st.PipelinedSends)
		}
		if st.PipelineChunks != uint64(tc.want) {
			t.Errorf("chunk %d: pipeline chunks = %d, want %d", tc.chunk, st.PipelineChunks, tc.want)
		}
		// One registration per grant on each side.
		if m := c.epB.Cache().Stats().Misses; m != uint64(tc.want) {
			t.Errorf("chunk %d: receiver registrations = %d, want %d", tc.chunk, m, tc.want)
		}
	}
}
