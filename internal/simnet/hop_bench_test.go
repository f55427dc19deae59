package simnet

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/topology"
)

// countSink counts deliveries and keeps nothing, so a benchmark can
// send the same packets again.
type countSink struct{ n int }

func (c *countSink) HandlePacket(*packet.Packet, int) { c.n++ }

// BenchmarkLinkHopSizes carries bursts of 128 packets across one
// 10 Gb/s link between two trivial handlers, per packet. On one-size
// every packet has the size of the one before it, so the direction's
// serialization memo always hits; on alternating the size flips on
// every packet, so it always misses and the hop divides, as every hop
// did before the memo.
func BenchmarkLinkHopSizes(b *testing.B) {
	for _, c := range []struct {
		name  string
		sizes []int
	}{
		{"one-size", []int{250}},
		{"alternating", []int{250, 64}},
	} {
		b.Run(c.name, func(b *testing.B) {
			g := topology.New("pair")
			if _, err := g.AddCore("A", 7); err != nil {
				b.Fatal(err)
			}
			if _, err := g.AddCore("B", 11); err != nil {
				b.Fatal(err)
			}
			if _, err := g.Connect("A", "B", topology.WithRateMbps(10_000), topology.WithQueuePackets(256)); err != nil {
				b.Fatal(err)
			}
			n := New(g)
			a, _ := g.Node("A")
			bn, _ := g.Node("B")
			recv := &countSink{}
			n.Bind(a, &countSink{})
			n.Bind(bn, recv)
			port, _ := a.PortToward("B")
			const burst = 128
			pkts := make([]packet.Packet, burst)
			for i := range pkts {
				pkts[i].Size = c.sizes[i%len(c.sizes)]
			}
			b.ResetTimer()
			for sent := 0; sent < b.N; sent += burst {
				for i := range min(burst, b.N-sent) {
					n.Send(a, port, &pkts[i])
				}
				n.RunUntil(n.Scheduler().Now() + 10*time.Millisecond)
			}
			if recv.n < b.N {
				b.Fatalf("delivered %d of %d packets", recv.n, b.N)
			}
		})
	}
}
