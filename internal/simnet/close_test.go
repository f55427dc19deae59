package simnet

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/topology"
)

// TestCloseReturnsInFlight: a world closed mid-flight is the last owner
// of what it still holds. Net15 hosts send bursts for 8 ms, relayed at
// random by every switch (shard_test.go's fabricRelay), and the run
// stops at 3 ms with packets on every kind of holder the plane has:
// batched train members (shards 1), those plus queued cut-link
// deliveries (shards 2), queued deliveries only (the scalar plane).
// Close must hand exactly the packets the kar_net_* counters put in
// flight to the packet depot, and every direction's ring, cleared, to
// the ring depots, leaving nothing pending.
func TestCloseReturnsInFlight(t *testing.T) {
	for _, c := range []struct {
		shards int
		scalar bool
	}{{1, false}, {2, false}, {1, true}} {
		t.Run(fmt.Sprintf("shards=%d/scalar=%v", c.shards, c.scalar), func(t *testing.T) {
			g, err := topology.Net15()
			if err != nil {
				t.Fatal(err)
			}
			opts := []Option{WithShards(c.shards)}
			if c.scalar {
				opts = append(opts, WithScalarDataPlane())
			}
			n := New(g, opts...)
			notes := make([]laneNote, len(n.lanes))
			for i := range notes {
				notes[i].goroutines = map[int]bool{}
			}
			for _, node := range g.Nodes() {
				n.Bind(node, &fabricRelay{n: n, node: node, clk: n.ClockOf(node), notes: notes})
			}
			for h, host := range g.EdgeNodes() {
				host, clk := host, n.ClockOf(host)
				seq := uint64(h) << 32
				var tick func()
				tick = func() {
					for i := 0; i < 6; i++ {
						p := clk.NewPacket()
						p.Size, p.TTL, p.Seq = 1000, 9, seq
						seq++
						n.Send(host, 0, p)
					}
					if clk.Now() < 8*time.Millisecond {
						clk.After(200*time.Microsecond, tick)
					}
				}
				clk.At(time.Duration(h)*7*time.Microsecond, tick)
			}
			n.RunUntil(3 * time.Millisecond)

			m := n.Metrics()
			linkDrops := m.SumCounter("kar_net_drops_total") -
				m.SumCounter("kar_net_drops_total", "reason", DropTTL.String()) -
				m.SumCounter("kar_net_drops_total", "reason", DropNoViablePort.String())
			inFlight := m.SumCounter("kar_net_sends_total") - m.SumCounter("kar_net_delivered_total") - linkDrops
			inTrains, cut := 0, false
			rings := map[*trainMember]bool{}
			for i := range n.lines {
				for d := range n.lines[i].dirs {
					ds := &n.lines[i].dirs[d]
					if tr := &ds.train; !ds.noBatch {
						inTrains += tr.tail - tr.head
					}
					cut = cut || ds.lane != ds.dstLane
					if r := ds.train.members; r != nil {
						rings[&r[0]] = true
					}
				}
			}
			inQueues := int(inFlight) - inTrains
			if inTrains == 0 && !c.scalar || inQueues == 0 && (c.scalar || cut) {
				t.Fatalf("%d packets in flight, %d of them in trains: the row must stop with packets on each of its holders", inFlight, inTrains)
			}

			t.Logf("%d packets in flight, %d in trains; %d rings", inFlight, inTrains, len(rings))
			emptyDepots()
			n.Close()

			if p := n.Pending(); p != 0 {
				t.Errorf("Pending() = %d after Close, want 0", p)
			}
			if got := packet.DepotLen(); got != int(inFlight) {
				t.Errorf("Close handed %d packets to the depot, want the %d in flight", got, inFlight)
			}
			for i := range n.lines {
				for d := range n.lines[i].dirs {
					if n.lines[i].dirs[d].train.members != nil {
						t.Errorf("%s dir %d kept its ring", n.lines[i].link.Name(), d)
					}
				}
			}
			for _, r := range depotRings() {
				delete(rings, &r[0])
				for j := range r {
					if r[j] != (trainMember{}) {
						t.Fatalf("a recycled ring of %d slots holds %+v in slot %d", len(r), r[j], j)
					}
				}
			}
			if len(rings) != 0 {
				t.Errorf("%d directions' rings are not in the depots", len(rings))
			}
		})
	}
}
