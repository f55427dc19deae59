package simnet

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/topology"
)

func TestFailRepairIdempotent(t *testing.T) {
	n, a, _, sk := twoNodeNet(t)
	aNode, _ := n.Topology().Node("A")
	link, _ := aNode.PortLink(0)

	n.FailLink(link)
	n.FailLink(link) // double fail: no-op
	if n.PortUp(aNode, 0) {
		t.Error("port up after FailLink")
	}
	n.RepairLink(link)
	n.RepairLink(link) // double repair: no-op
	if !n.PortUp(aNode, 0) {
		t.Error("port down after RepairLink")
	}
	// Send strictly after the failure instant: a transmission starting
	// at the exact failure time is treated as caught by it.
	n.Scheduler().At(time.Millisecond, func() {
		n.Send(a, 0, &packet.Packet{Size: 100, TTL: 8})
	})
	n.Scheduler().RunUntil(time.Second)
	if len(sk.pkts) != 1 {
		t.Errorf("delivered %d packets after repair, want 1", len(sk.pkts))
	}
}

func TestRepeatedFailureCycles(t *testing.T) {
	n, a, _, sk := twoNodeNet(t)
	aNode, _ := n.Topology().Node("A")
	link, _ := aNode.PortLink(0)

	// Alternate 10 ms down / 10 ms up; send one packet per ms.
	for i := 0; i < 10; i++ {
		n.ScheduleFailure(link, time.Duration(i)*20*time.Millisecond, 10*time.Millisecond)
	}
	sent := 0
	for i := 0; i < 200; i++ {
		i := i
		n.Scheduler().At(time.Duration(i)*time.Millisecond, func() {
			n.Send(a, 0, &packet.Packet{Size: 100, TTL: 8, Seq: uint64(i)})
			sent++
		})
	}
	n.Scheduler().RunUntil(time.Second)
	if sent != 200 {
		t.Fatalf("sent %d, want 200", sent)
	}
	// Roughly half the sends hit down windows.
	if len(sk.pkts) < 80 || len(sk.pkts) > 120 {
		t.Errorf("delivered %d of 200 across 50%% downtime, want ~100", len(sk.pkts))
	}
	delivered := int64(len(sk.pkts))
	if n.Delivered() != delivered {
		t.Errorf("Delivered() = %d, sink saw %d", n.Delivered(), delivered)
	}
	if n.Delivered()+n.Metrics().SumCounter("kar_net_drops_total") != 200 {
		t.Errorf("conservation: delivered %d + dropped %d != 200", n.Delivered(), n.Metrics().SumCounter("kar_net_drops_total"))
	}
}

func TestLineStatsAccumulate(t *testing.T) {
	n, a, b, _ := twoNodeNet(t)
	aNode, _ := n.Topology().Node("A")
	link, _ := aNode.PortLink(0)
	// Bind a sink on A too so B→A traffic is countable.
	skA := &sink{sched: n.Scheduler()}
	n.Bind(aNode, skA)

	n.Send(a, 0, &packet.Packet{Size: 1000, TTL: 8})
	bNode, _ := n.Topology().Node("B")
	_ = bNode
	n.Send(b, 0, &packet.Packet{Size: 500, TTL: 8})
	n.Scheduler().RunUntil(time.Second)

	st := n.LineStats(link)
	if st.SentPackets != 2 || st.SentBytes != 1500 {
		t.Errorf("line stats = %+v, want 2 packets / 1500 bytes over both directions", st)
	}
}

func TestSendOnRepairedLinkAfterLongDowntime(t *testing.T) {
	// Regression guard for the in-flight kill rule: a failure long in
	// the past must not affect packets transmitted entirely after the
	// repair.
	n, a, _, sk := twoNodeNet(t, topology.WithDelay(500*time.Microsecond))
	aNode, _ := n.Topology().Node("A")
	link, _ := aNode.PortLink(0)
	n.ScheduleFailure(link, 0, time.Millisecond)
	for i := 0; i < 50; i++ {
		i := i
		n.Scheduler().At(time.Duration(10+i)*time.Millisecond, func() {
			n.Send(a, 0, &packet.Packet{Size: 100, TTL: 8, Seq: uint64(i)})
		})
	}
	n.Scheduler().RunUntil(time.Second)
	if len(sk.pkts) != 50 {
		t.Errorf("delivered %d of 50 post-repair packets", len(sk.pkts))
	}
}
