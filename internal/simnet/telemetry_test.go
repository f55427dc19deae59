package simnet

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/topology"
)

// TestDropsByReasonSumToTotal exercises every drop path and asserts the
// per-reason kar_net_drops_total series sum exactly to the family's
// total — there is no separate total counter that could drift out of
// sync.
func TestDropsByReasonSumToTotal(t *testing.T) {
	n, a, _, sk := twoNodeNet(t,
		topology.WithRateMbps(100), topology.WithDelay(time.Millisecond), topology.WithQueuePackets(2))
	log := logDrops(n)

	// Queue drops: 4 back-to-back sends against a 2-packet queue.
	for i := 0; i < 4; i++ {
		n.Send(a, 0, &packet.Packet{Size: 1250, TTL: 64, Sampled: true})
	}
	n.Scheduler().RunUntil(20 * time.Millisecond)

	// In-flight drop: fail the link while a packet is on the wire.
	n.Send(a, 0, &packet.Packet{Size: 1250, TTL: 64, Sampled: true})
	aNode, _ := n.Topology().Node("A")
	link, _ := aNode.PortLink(0)
	n.Scheduler().RunUntil(20*time.Millisecond + 500*time.Microsecond)
	n.FailLink(link)

	// Link-down drop: send while the link is failed.
	n.Send(a, 0, &packet.Packet{Size: 1250, TTL: 64, Sampled: true})

	// No-port drop: send on a port with no link attached.
	n.Send(a, 5, &packet.Packet{Size: 1250, TTL: 64, Sampled: true})

	// TTL and policy drops are reported by switches through Drop().
	n.Drop(&packet.Packet{TTL: 0, Sampled: true}, DropTTL, a)
	n.Drop(&packet.Packet{TTL: 3, Sampled: true}, DropNoViablePort, a)
	n.Scheduler().RunUntil(40 * time.Millisecond)

	wantByReason := map[DropReason]int64{
		DropQueueFull:    2,
		DropInFlight:     1,
		DropLinkDown:     1,
		DropNoPort:       1,
		DropTTL:          1,
		DropNoViablePort: 1,
	}
	var sum int64
	for r := DropReason(1); r < dropReasonCount; r++ {
		got := n.metrics.SumCounter("kar_net_drops_total", "reason", r.String())
		sum += got
		if got != wantByReason[r] {
			t.Errorf("drops{reason=%s} = %d, want %d", r, got, wantByReason[r])
		}
	}
	total := n.Metrics().SumCounter("kar_net_drops_total")
	if sum != total {
		t.Errorf("sum over reasons = %d, family total = %d — bookkeeping diverged", sum, total)
	}
	if total != int64(len(log.drops)) {
		t.Errorf("family total = %d, the trace sink saw %d", total, len(log.drops))
	}

	// Delivered() must read through the registry too.
	if len(sk.pkts) == 0 {
		t.Fatal("no packets delivered")
	}
	if n.Delivered() != int64(len(sk.pkts)) {
		t.Errorf("Delivered() = %d, sink saw %d", n.Delivered(), len(sk.pkts))
	}
	if got := n.metrics.CounterValue("kar_net_delivered_total"); got != n.Delivered() {
		t.Errorf("registry delivered = %d, Delivered() = %d", got, n.Delivered())
	}

	// Conservation: every send is delivered, dropped, or still queued —
	// here the schedule has fully drained, so sends = delivered + drops
	// that consumed a send (queue, in-flight, link-down, no-port).
	sends := n.metrics.CounterValue("kar_net_sends_total")
	consumed := n.Delivered() +
		n.metrics.SumCounter("kar_net_drops_total", "reason", DropQueueFull.String()) +
		n.metrics.SumCounter("kar_net_drops_total", "reason", DropInFlight.String()) +
		n.metrics.SumCounter("kar_net_drops_total", "reason", DropLinkDown.String()) +
		n.metrics.SumCounter("kar_net_drops_total", "reason", DropNoPort.String())
	if sends != consumed {
		t.Errorf("sends = %d, delivered+send-path drops = %d", sends, consumed)
	}
}

// TestLinkFailureEventsRecorded asserts fail/repair land in the
// control-plane event log with virtual-clock timestamps.
func TestLinkFailureEventsRecorded(t *testing.T) {
	n, _, _, _ := twoNodeNet(t)
	aNode, _ := n.Topology().Node("A")
	link, _ := aNode.PortLink(0)
	n.Scheduler().RunUntil(3 * time.Millisecond)
	n.FailLink(link)
	n.Scheduler().RunUntil(7 * time.Millisecond)
	n.RepairLink(link)

	evs := n.Events().Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2: %v", len(evs), evs)
	}
	if evs[0].Kind != "link_fail" || evs[0].At != 3*time.Millisecond {
		t.Errorf("event 0 = %s at %v, want link_fail at 3ms", evs[0].Kind, evs[0].At)
	}
	if evs[1].Kind != "link_repair" || evs[1].At != 7*time.Millisecond {
		t.Errorf("event 1 = %s at %v, want link_repair at 7ms", evs[1].Kind, evs[1].At)
	}
	if got := n.metrics.Gauge("kar_link_up", "link", link.Name()).Value(); got != 1 {
		t.Errorf("kar_link_up = %v after repair, want 1", got)
	}
}
