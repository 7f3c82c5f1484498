// Pingpong: a NetPIPE-style sweep over the message-passing stack — the
// measurement methodology of the companion article "Comparing MPI
// Performance of SCI and VIA".  For each message size a ping-pong pair
// is timed on the virtual clock and the table reports half-round-trip
// latency and bandwidth per protocol.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/proc"
	"repro/internal/report"
	"repro/internal/simtime"
)

func main() {
	c := cluster.MustNew(cluster.Config{Nodes: 2, Strategy: core.StrategyKiobuf, TPTSlots: 8192})
	a, b, err := c.EndpointPair(0, 1, 0)
	if err != nil {
		log.Fatal(err)
	}

	s := report.Series{
		Title:  "pingpong: half-round-trip latency (sim µs) and bandwidth (sim MB/s)",
		XLabel: "size",
		Lines:  []string{"eager µs", "eager MB/s", "auto µs", "auto MB/s"},
	}
	for _, size := range []int{64, 1024, 8 * 1024, 64 * 1024, 512 * 1024} {
		eagerLat, eagerBW, err := pingpong(c, a, b, size, msg.Eager)
		if err != nil {
			log.Fatal(err)
		}
		autoLat, autoBW, err := pingpong(c, a, b, size, msg.Auto)
		if err != nil {
			log.Fatal(err)
		}
		s.AddPoint(report.Bytes(size), eagerLat, eagerBW, autoLat, autoBW)
	}
	s.Fprint(os.Stdout)
	fmt.Println("done; protocols switch at",
		report.Bytes(msg.EagerMax), "and", report.Bytes(msg.OneCopyMax))
}

// pingpong runs 4 warm rounds of A→B→A and returns the mean one-way
// latency (µs) and bandwidth (MB/s).
func pingpong(c *cluster.Cluster, a, b *msg.Endpoint, size int, p msg.Protocol) (latUs, mbs float64, err error) {
	bufA, err := a.Process().Malloc(size)
	if err != nil {
		return 0, 0, err
	}
	bufB, err := b.Process().Malloc(size)
	if err != nil {
		return 0, 0, err
	}
	if err := bufA.Touch(); err != nil {
		return 0, 0, err
	}
	if err := bufB.Touch(); err != nil {
		return 0, 0, err
	}
	const rounds = 4
	var total simtime.Duration
	for i := 0; i <= rounds; i++ {
		start := c.Meter.Now()
		if err := oneWay(a, b, bufA, bufB, p); err != nil {
			return 0, 0, err
		}
		if err := oneWay(b, a, bufB, bufA, p); err != nil {
			return 0, 0, err
		}
		if i > 0 { // round 0 warms the registration caches
			total += c.Meter.Now() - start
		}
	}
	oneWayTime := float64(total) / float64(2*rounds)
	latUs = oneWayTime / float64(simtime.Microsecond)
	mbs = float64(size) / (oneWayTime / float64(simtime.Second)) / 1e6
	return latUs, mbs, nil
}

func oneWay(from, to *msg.Endpoint, src, dst *proc.Buffer, p msg.Protocol) error {
	errc := make(chan error, 1)
	go func() {
		_, err := from.Send(src, p)
		errc <- err
	}()
	if _, err := to.Recv(dst); err != nil {
		return err
	}
	return <-errc
}
