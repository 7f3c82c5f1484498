package bench

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/msg"
	"repro/internal/phys"
)

// TestChaosScribbleClass runs the E17 scribble class standalone: both
// policies, the aimed writer, the DMA fault schedule, the frame-ledger
// and leak checks.  The scoreboard must show live rounds on every axis;
// a DMA fault the NIC absorbed by retrying fired as much as one that
// made a round loud.
func TestChaosScribbleClass(t *testing.T) {
	res, err := chaosScribble()
	if err != nil {
		t.Fatal(err)
	}
	if res.ok == 0 || res.loud+int(res.nic.Retries) == 0 || res.injected == 0 {
		t.Fatalf("scoreboard %+v: a dead schedule slipped past the runner", res)
	}
}

func TestRemapOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("full E23 sweep")
	}
	var w strings.Builder
	if err := Remap(&w); err != nil {
		t.Fatal(err)
	}
	out := w.String()
	for _, want := range []string{"E23", "remap-tail+37", "onecopy-swapcold", "64KiB", "4MiB"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// TestRemapCrossoverShape pins the E23 acceptance shape: for page-aligned
// payloads of 64 KiB and up, the frame-exchange receive beats the
// one-copy protocol in simulated time.
func TestRemapCrossoverShape(t *testing.T) {
	for _, size := range []int{64 << 10, 256 << 10, 1 << 20} {
		oc, err := remapPoint(size, msg.OneCopy, false)
		if err != nil {
			t.Fatal(err)
		}
		rm, err := remapPoint(size, msg.Remap, false)
		if err != nil {
			t.Fatal(err)
		}
		if rm <= oc {
			t.Errorf("size %d: remap %.2f MB/s <= onecopy %.2f MB/s — crossover shape broken", size, rm, oc)
		}
	}
	// Swap-backed, remap's advantage widens: delivery adopts frames
	// instead of paging the destination in.
	oc, err := remapPoint(256<<10, msg.OneCopy, true)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := remapPoint(256<<10, msg.Remap, true)
	if err != nil {
		t.Fatal(err)
	}
	if rm <= oc {
		t.Errorf("swap-cold: remap %.2f MB/s <= onecopy %.2f MB/s", rm, oc)
	}
}

// BenchmarkRemapReceive measures the wall-clock cost of the remap
// receive path end to end — donation, grant, DMA into staging, and the
// per-page adopt — over a warm 256 KiB transfer.
func BenchmarkRemapReceive(b *testing.B) {
	c, err := cluster.New(protocolClusterConfig())
	if err != nil {
		b.Fatal(err)
	}
	ea, eb, err := c.EndpointPair(0, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	size := 64 * phys.PageSize
	src, err := ea.Process().Malloc(size)
	if err != nil {
		b.Fatal(err)
	}
	dst, err := eb.Process().Malloc(size)
	if err != nil {
		b.Fatal(err)
	}
	if err := src.FillPattern(0x51); err != nil {
		b.Fatal(err)
	}
	if err := dst.Touch(); err != nil {
		b.Fatal(err)
	}
	if _, err := transferOnce(c.Meter, ea, eb, src, dst, msg.Remap); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transferOnce(c.Meter, ea, eb, src, dst, msg.Remap); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := eb.Stats().RemapRecvs; got < uint64(b.N) {
		b.Fatalf("only %d of %d transfers took the remap path", got, b.N)
	}
}
