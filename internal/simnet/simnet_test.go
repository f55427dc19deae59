package simnet

import (
	"slices"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/topology"
)

func TestSchedulerOrdering(t *testing.T) {
	var s Scheduler
	var got []int
	s.At(3*time.Millisecond, func() { got = append(got, 3) })
	s.At(time.Millisecond, func() { got = append(got, 1) })
	s.At(2*time.Millisecond, func() { got = append(got, 2) })
	s.RunUntil(10 * time.Millisecond)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("execution order = %v, want [1 2 3]", got)
	}
	if s.Now() != 10*time.Millisecond {
		t.Errorf("Now = %v, want 10ms", s.Now())
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	var s Scheduler
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Millisecond, func() { got = append(got, i) })
	}
	s.RunUntil(time.Millisecond)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant order = %v, want FIFO", got)
		}
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	var s Scheduler
	var fired []time.Duration
	s.At(time.Millisecond, func() {
		s.After(time.Millisecond, func() { fired = append(fired, s.Now()) })
	})
	s.RunUntil(5 * time.Millisecond)
	if len(fired) != 1 || fired[0] != 2*time.Millisecond {
		t.Errorf("nested event fired at %v, want [2ms]", fired)
	}
	if s.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", s.Pending())
	}
}

func TestSchedulerPastEventClamped(t *testing.T) {
	var s Scheduler
	s.RunUntil(5 * time.Millisecond)
	fired := time.Duration(-1)
	s.At(time.Millisecond, func() { fired = s.Now() })
	s.RunUntil(5 * time.Millisecond)
	if fired != 5*time.Millisecond {
		t.Errorf("past event fired at %v, want clamped to 5ms", fired)
	}
}

func TestSchedulerRunUntilBoundary(t *testing.T) {
	var s Scheduler
	fired := 0
	s.At(time.Millisecond, func() { fired++ })
	s.At(time.Millisecond+1, func() { fired++ })
	s.RunUntil(time.Millisecond)
	if fired != 1 {
		t.Errorf("fired = %d after RunUntil(1ms), want 1 (inclusive boundary)", fired)
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", s.Pending())
	}
}

// sink collects delivered packets.
type sink struct {
	pkts  []*packet.Packet
	ports []int
	times []time.Duration
	sched *Scheduler
}

func (s *sink) HandlePacket(pkt *packet.Packet, inPort int) {
	s.pkts = append(s.pkts, pkt)
	s.ports = append(s.ports, inPort)
	s.times = append(s.times, s.sched.Now())
}

func twoNodeNet(t *testing.T, opts ...topology.LinkOption) (*Network, *topology.Node, *topology.Node, *sink) {
	t.Helper()
	g := topology.New("pair")
	if _, err := g.AddEdge("A"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge("B"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect("A", "B", opts...); err != nil {
		t.Fatal(err)
	}
	n := New(g)
	a, _ := g.Node("A")
	b, _ := g.Node("B")
	sk := &sink{sched: n.Scheduler()}
	n.Bind(b, sk)
	return n, a, b, sk
}

func TestSendDeliversWithSerializationAndDelay(t *testing.T) {
	// 100 Mb/s, 5 ms delay: a 1250-byte packet serialises in 100 µs.
	n, a, _, sk := twoNodeNet(t, topology.WithRateMbps(100), topology.WithDelay(5*time.Millisecond))
	pkt := &packet.Packet{Size: 1250, TTL: 64}
	n.Send(a, 0, pkt)
	n.Scheduler().RunUntil(10 * time.Millisecond)
	if len(sk.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(sk.pkts))
	}
	want := 100*time.Microsecond + 5*time.Millisecond
	if sk.times[0] != want {
		t.Errorf("delivery at %v, want %v", sk.times[0], want)
	}
	if sk.pkts[0].Hops != 1 {
		t.Errorf("hops = %d, want 1", sk.pkts[0].Hops)
	}
	if sk.ports[0] != 0 {
		t.Errorf("inPort = %d, want 0", sk.ports[0])
	}
}

func TestSendSerializesBackToBack(t *testing.T) {
	// Two packets sent at t=0 serialise one after the other.
	n, a, _, sk := twoNodeNet(t, topology.WithRateMbps(100), topology.WithDelay(time.Millisecond))
	for i := 0; i < 2; i++ {
		n.Send(a, 0, &packet.Packet{Size: 1250, TTL: 64})
	}
	n.Scheduler().RunUntil(10 * time.Millisecond)
	if len(sk.times) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(sk.times))
	}
	if gap := sk.times[1] - sk.times[0]; gap != 100*time.Microsecond {
		t.Errorf("inter-delivery gap = %v, want 100µs (serialization)", gap)
	}
}

// TestSerializationFollowsEachSize: a link direction remembers the last
// packet size's serialization time, so a size change must recompute it,
// and each direction remembers its own. At 100 Mb/s, 1250 B serialize in
// 100 µs, 64 B in 5.12 µs and 0 B in no time.
func TestSerializationFollowsEachSize(t *testing.T) {
	n, a, b, sk := twoNodeNet(t, topology.WithRateMbps(100), topology.WithDelay(time.Millisecond))
	back := &sink{sched: n.Scheduler()}
	n.Bind(a, back)
	n.Send(b, 0, &packet.Packet{Size: 64, TTL: 64})
	for _, size := range []int{1250, 1250, 64, 0, 1250} {
		n.Send(a, 0, &packet.Packet{Size: size, TTL: 64})
	}
	n.Send(b, 0, &packet.Packet{Size: 1250, TTL: 64})
	n.Scheduler().RunUntil(10 * time.Millisecond)
	us := func(f float64) time.Duration { return time.Millisecond + time.Duration(f*1000) }
	for _, c := range []struct {
		name string
		got  []time.Duration
		want []time.Duration
	}{
		{"A→B", sk.times, []time.Duration{us(100), us(200), us(205.12), us(205.12), us(305.12)}},
		{"B→A", back.times, []time.Duration{us(5.12), us(105.12)}},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s deliveries at %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestQueueTailDrop(t *testing.T) {
	n, a, _, sk := twoNodeNet(t,
		topology.WithRateMbps(100), topology.WithDelay(time.Millisecond), topology.WithQueuePackets(3))
	for i := 0; i < 5; i++ {
		n.Send(a, 0, &packet.Packet{Size: 1250, TTL: 64})
	}
	n.Scheduler().RunUntil(20 * time.Millisecond)
	if len(sk.pkts) != 3 {
		t.Errorf("delivered %d packets, want 3 (queue capacity)", len(sk.pkts))
	}
	if n.Metrics().SumCounter("kar_net_drops_total") != 2 || dropsBy(n, DropQueueFull) != 2 {
		t.Fatalf("dropped %d packets, %d of them queue-full, want 2 and 2", n.Metrics().SumCounter("kar_net_drops_total"), dropsBy(n, DropQueueFull))
	}
	aNode, _ := n.Topology().Node("A")
	link, _ := aNode.PortLink(0)
	st := n.LineStats(link)
	if st.QueueDrops != 2 || st.SentPackets != 3 {
		t.Errorf("line stats = %+v, want 2 queue drops, 3 sent", st)
	}
}

func TestFailLinkDropsAndRepairRestores(t *testing.T) {
	n, a, _, sk := twoNodeNet(t)
	aNode, _ := n.Topology().Node("A")
	link, _ := aNode.PortLink(0)

	n.ScheduleFailure(link, 5*time.Millisecond, 5*time.Millisecond)
	// One packet before the failure (delivered), one during (dropped at
	// send), one after repair (delivered).
	send := func(at time.Duration) {
		n.Scheduler().At(at, func() { n.Send(a, 0, &packet.Packet{Size: 100, TTL: 64}) })
	}
	send(0)
	send(7 * time.Millisecond)
	send(12 * time.Millisecond)
	n.Scheduler().RunUntil(30 * time.Millisecond)

	if len(sk.pkts) != 2 {
		t.Errorf("delivered %d packets, want 2", len(sk.pkts))
	}
	if n.Metrics().SumCounter("kar_net_drops_total") != 1 || dropsBy(n, DropLinkDown) != 1 {
		t.Errorf("dropped %d packets, %d of them link-down, want one link-down drop", n.Metrics().SumCounter("kar_net_drops_total"), dropsBy(n, DropLinkDown))
	}
	if !n.PortUp(aNode, 0) {
		t.Error("port reported down after repair")
	}
}

func TestFailLinkKillsInFlight(t *testing.T) {
	// 10 ms delay: a packet sent at t=0 arrives at ~10 ms; failing the
	// link at 5 ms must kill it.
	n, a, _, sk := twoNodeNet(t, topology.WithDelay(10*time.Millisecond))
	aNode, _ := n.Topology().Node("A")
	link, _ := aNode.PortLink(0)

	n.Send(a, 0, &packet.Packet{Size: 100, TTL: 64})
	n.Scheduler().At(5*time.Millisecond, func() { n.FailLink(link) })
	n.Scheduler().RunUntil(30 * time.Millisecond)

	if len(sk.pkts) != 0 {
		t.Errorf("delivered %d packets, want 0 (in-flight kill)", len(sk.pkts))
	}
	if n.Metrics().SumCounter("kar_net_drops_total") != 1 || dropsBy(n, DropInFlight) != 1 {
		t.Fatalf("dropped %d packets, %d of them in flight, want one in-flight drop", n.Metrics().SumCounter("kar_net_drops_total"), dropsBy(n, DropInFlight))
	}
	if st := n.LineStats(link); st.InFlightDrops != 1 {
		t.Errorf("InFlightDrops = %d, want 1", st.InFlightDrops)
	}
}

func TestInFlightSurvivesOldFailure(t *testing.T) {
	// A failure that ended BEFORE the packet's transmission began must
	// not kill it.
	n, a, _, sk := twoNodeNet(t, topology.WithDelay(2*time.Millisecond))
	aNode, _ := n.Topology().Node("A")
	link, _ := aNode.PortLink(0)
	n.ScheduleFailure(link, time.Millisecond, time.Millisecond)
	n.Scheduler().At(5*time.Millisecond, func() {
		n.Send(a, 0, &packet.Packet{Size: 100, TTL: 64})
	})
	n.Scheduler().RunUntil(30 * time.Millisecond)
	if len(sk.pkts) != 1 {
		t.Errorf("delivered %d packets, want 1 (failure predates send)", len(sk.pkts))
	}
}

func TestPortUpAndInvalidSends(t *testing.T) {
	n, a, _, _ := twoNodeNet(t)
	aNode, _ := n.Topology().Node("A")
	if !n.PortUp(aNode, 0) {
		t.Error("port 0 should be up")
	}
	if n.PortUp(aNode, 1) {
		t.Error("port 1 does not exist, PortUp must be false")
	}
	n.Send(a, 5, &packet.Packet{Size: 100, TTL: 64})
	if n.Metrics().SumCounter("kar_net_drops_total") != 1 || dropsBy(n, DropNoPort) != 1 {
		t.Errorf("dropped %d packets, %d of them no-port, want one no-port drop", n.Metrics().SumCounter("kar_net_drops_total"), dropsBy(n, DropNoPort))
	}
}

func TestUnboundNodeDrops(t *testing.T) {
	g := topology.New("pair")
	if _, err := g.AddEdge("A"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge("B"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect("A", "B"); err != nil {
		t.Fatal(err)
	}
	n := New(g)
	a, _ := g.Node("A")
	n.Send(a, 0, &packet.Packet{Size: 100, TTL: 64})
	n.Scheduler().RunUntil(time.Second)
	if n.Delivered() != 0 {
		t.Error("packet delivered to an unbound node")
	}
	if n.Metrics().SumCounter("kar_net_drops_total") != 1 {
		t.Errorf("Dropped = %d, want 1", n.Metrics().SumCounter("kar_net_drops_total"))
	}
}

// TestBindNilUnbinds: endpoints live in a slice over Node.Index() whose
// nil handlers mean "unbound", so binding nil takes a node back to the
// no-port drop — over the wire (the direction's endpoint) and on a
// direct deliver — instead of calling a nil handler.
func TestBindNilUnbinds(t *testing.T) {
	n, a, b, sk := twoNodeNet(t)
	n.Bind(b, nil)
	n.Send(a, 0, &packet.Packet{Size: 100, TTL: 64})
	n.Scheduler().RunUntil(time.Second)
	n.deliver(&n.ends[b.Index()], n.laneOf(b), &packet.Packet{Size: 100, TTL: 64}, 0, 0, false)
	if n.Metrics().SumCounter("kar_net_drops_total") != 2 || dropsBy(n, DropNoPort) != 2 {
		t.Errorf("dropped %d packets, %d of them no-port, want two no-port drops", n.Metrics().SumCounter("kar_net_drops_total"), dropsBy(n, DropNoPort))
	}
	if len(sk.pkts) != 0 || n.Delivered() != 0 {
		t.Errorf("%d packets reached the unbound handler, Delivered = %d", len(sk.pkts), n.Delivered())
	}
}

func TestTransmissionTime(t *testing.T) {
	tests := []struct {
		bytes int
		rate  float64
		want  time.Duration
	}{
		{1250, 100, 100 * time.Microsecond},
		{1500, 200, 60 * time.Microsecond},
		{125, 1000, time.Microsecond},
	}
	for _, tt := range tests {
		if got := transmissionTime(tt.bytes, tt.rate); got != tt.want {
			t.Errorf("transmissionTime(%d, %v) = %v, want %v", tt.bytes, tt.rate, got, tt.want)
		}
	}
}
