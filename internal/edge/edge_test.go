package edge

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/rns"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// threeNode builds E1 - SW7 - E2 with a pass-through switch handler.
func threeNode(t *testing.T) (*simnet.Network, *topology.Graph) {
	t.Helper()
	g := topology.New("edges")
	if _, err := g.AddEdge("E1"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge("E2"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddCore("SW7", 7); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect("SW7", "E1"); err != nil { // SW7 port 0 -> E1
		t.Fatal(err)
	}
	if _, err := g.Connect("SW7", "E2"); err != nil { // SW7 port 1 -> E2
		t.Fatal(err)
	}
	net := simnet.New(g)
	sw, _ := g.Node("SW7")
	net.Bind(sw, modSwitch{net: net, node: sw})
	return net, g
}

// modSwitch is a minimal modulo-only switch for edge tests.
type modSwitch struct {
	net  *simnet.Network
	node *topology.Node
}

func (m modSwitch) HandlePacket(pkt *packet.Packet, inPort int) {
	m.net.Send(m.node, int(pkt.RouteID.Mod(m.node.ID())), pkt)
}

// fixedReencoder returns a canned route ID.
type fixedReencoder struct {
	id      rns.RouteID
	port    int
	err     error
	calls   int
	lastSrc string
	lastDst string
}

func (f *fixedReencoder) ReencodeRouteAt(_ time.Duration, from, dst string) (rns.RouteID, int, error) {
	f.calls++
	f.lastSrc, f.lastDst = from, dst
	return f.id, f.port, f.err
}

func TestEdgeEncapDecap(t *testing.T) {
	net, g := threeNode(t)
	e1n, _ := g.Node("E1")
	e2n, _ := g.Node("E2")
	e1 := New(net, e1n, nil)
	e2 := New(net, e2n, nil)

	// Route E1→E2: at SW7 we need port 1, so R mod 7 = 1, e.g. R=8.
	e1.InstallRoute("E2", rns.RouteIDFromUint64(8), 0)
	flow := packet.FlowID{Src: "E1", Dst: "E2"}
	var got []*packet.Packet
	e2.Attach(flow, ReceiverFunc(func(p *packet.Packet) { got = append(got, p) }))

	p := &packet.Packet{Flow: flow, Kind: packet.KindData, Size: 1000}
	if err := e1.Inject(p); err != nil {
		t.Fatalf("Inject: %v", err)
	}
	net.Scheduler().RunUntil(time.Second)

	if len(got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(got))
	}
	if rid := got[0].RouteID; !rid.Equal(rns.RouteID{}) {
		t.Errorf("route ID not stripped at egress: %v", rid)
	}
	if got[0].TTL <= 0 || got[0].TTL > packet.DefaultTTL {
		t.Errorf("TTL = %d, want stamped near %d", got[0].TTL, packet.DefaultTTL)
	}
	st := e1.Stats()
	if st.Encapped != 1 {
		t.Errorf("ingress stats = %+v, want 1 encapped", st)
	}
	if st2 := e2.Stats(); st2.Delivered != 1 {
		t.Errorf("egress stats = %+v, want 1 delivered", st2)
	}
}

func TestEdgeInjectWithoutRoute(t *testing.T) {
	net, g := threeNode(t)
	e1n, _ := g.Node("E1")
	e1 := New(net, e1n, nil)
	p := &packet.Packet{Flow: packet.FlowID{Src: "E1", Dst: "E2"}, Size: 100}
	if err := e1.Inject(p); err == nil {
		t.Fatal("Inject succeeded without an installed route")
	}
	if st := e1.Stats(); st.NoRoute != 1 {
		t.Errorf("NoRoute = %d, want 1", st.NoRoute)
	}
}

// TestEdgeMisdeliveryReencode: a packet for E2 that lands on E1 is
// re-encoded via the controller after the control-plane delay and then
// delivered — the paper's second approach.
func TestEdgeMisdeliveryReencode(t *testing.T) {
	net, g := threeNode(t)
	e1n, _ := g.Node("E1")
	e2n, _ := g.Node("E2")
	// Re-encoder: fresh route toward E2 is R=8 out of E1's port 0.
	re := &fixedReencoder{id: rns.RouteIDFromUint64(8), port: 0}
	e1 := New(net, e1n, re, WithReencodeDelay(3*time.Millisecond))
	e2 := New(net, e2n, nil)

	flow := packet.FlowID{Src: "E9", Dst: "E2"}
	var deliveredAt time.Duration
	var got []*packet.Packet
	e2.Attach(flow, ReceiverFunc(func(p *packet.Packet) {
		got = append(got, p)
		deliveredAt = net.Scheduler().Now()
	}))

	// Simulate a deflected packet arriving at the wrong edge E1.
	stray := &packet.Packet{
		Flow: flow, Kind: packet.KindData, Size: 1000, TTL: 9,
		RouteID: rns.RouteIDFromUint64(3), Deflected: true,
	}
	sw, _ := g.Node("SW7")
	net.Send(sw, 0, stray) // SW7 port 0 leads to E1
	net.Scheduler().RunUntil(time.Second)

	if len(got) != 1 {
		t.Fatalf("delivered %d packets, want 1 after re-encode", len(got))
	}
	if re.calls != 1 || re.lastSrc != "E1" || re.lastDst != "E2" {
		t.Errorf("re-encoder called %d times with (%s, %s), want 1 with (E1, E2)", re.calls, re.lastSrc, re.lastDst)
	}
	if got[0].Deflected {
		t.Error("re-encoded packet still flagged deflected; it is back on an encoded path")
	}
	if got[0].TTL != packet.DefaultTTL {
		t.Errorf("TTL = %d, want refreshed to %d (test switch does not decrement)", got[0].TTL, packet.DefaultTTL)
	}
	if deliveredAt < 3*time.Millisecond {
		t.Errorf("delivered at %v, before the 3ms control-plane delay", deliveredAt)
	}
	if st := e1.Stats(); st.Misdelivered != 1 || st.Reencoded != 1 {
		t.Errorf("E1 stats = %+v, want 1 misdelivered, 1 reencoded", st)
	}
}

func TestEdgeMisdeliveryWithoutController(t *testing.T) {
	net, g := threeNode(t)
	e1n, _ := g.Node("E1")
	New(net, e1n, nil)
	stray := &packet.Packet{Flow: packet.FlowID{Src: "X", Dst: "E2"}, Size: 100, TTL: 5}
	sw, _ := g.Node("SW7")
	net.Send(sw, 0, stray)
	net.Scheduler().RunUntil(time.Second)
	if drops := net.Metrics().SumCounter("kar_net_drops_total"); drops != 1 {
		t.Fatalf("drops = %d, want 1 (no controller to re-encode)", drops)
	}
}

func TestEdgeMisdeliveryReencodeFails(t *testing.T) {
	net, g := threeNode(t)
	e1n, _ := g.Node("E1")
	re := &fixedReencoder{err: errors.New("no path")}
	e1 := New(net, e1n, re)
	stray := &packet.Packet{Flow: packet.FlowID{Src: "X", Dst: "E2"}, Size: 100, TTL: 5}
	sw, _ := g.Node("SW7")
	net.Send(sw, 0, stray)
	net.Scheduler().RunUntil(time.Second)
	if drops := net.Metrics().SumCounter("kar_net_drops_total"); drops != 1 {
		t.Fatalf("drops = %d, want 1 (re-encode failed)", drops)
	}
	if st := e1.Stats(); st.Reencoded != 0 {
		t.Errorf("Reencoded = %d, want 0", st.Reencoded)
	}
}

func TestEdgeUnclaimedFlow(t *testing.T) {
	net, g := threeNode(t)
	e2n, _ := g.Node("E2")
	e2 := New(net, e2n, nil)
	// Addressed to E2, but no receiver attached for the flow.
	p := &packet.Packet{Flow: packet.FlowID{Src: "E1", Dst: "E2"}, Size: 100, TTL: 5}
	sw, _ := g.Node("SW7")
	net.Send(sw, 1, p)
	net.Scheduler().RunUntil(time.Second)
	if st := e2.Stats(); st.Unclaimed != 1 {
		t.Errorf("Unclaimed = %d, want 1", st.Unclaimed)
	}
}

// TestEdgeReencodesInArrivalOrder: misdeliveries wait out the
// control-plane delay in the edge's FIFO, drained by one timer callback
// per packet. Interleaved packets of two flows — some arriving at the
// same instant — must come back re-encoded in arrival order, each
// exactly once, and the drained FIFO must pin none of them.
func TestEdgeReencodesInArrivalOrder(t *testing.T) {
	net, g := threeNode(t)
	e1n, _ := g.Node("E1")
	e2n, _ := g.Node("E2")
	re := &fixedReencoder{id: rns.RouteIDFromUint64(8), port: 0}
	e1 := New(net, e1n, re, WithReencodeDelay(3*time.Millisecond))
	e2 := New(net, e2n, nil)

	type arrival struct {
		flow packet.FlowID
		seq  uint64
	}
	flows := []packet.FlowID{{Src: "X", Dst: "E2"}, {Src: "Y", Dst: "E2"}}
	var got []arrival
	for _, f := range flows {
		e2.Attach(f, ReceiverFunc(func(p *packet.Packet) { got = append(got, arrival{p.Flow, p.Seq}) }))
	}
	const n = 40
	var want []arrival
	for i := 0; i < n; i++ {
		a := arrival{flows[i/3%2], uint64(i)}
		want = append(want, a)
		// First half: pairs sharing an instant, 1 ms apart, so the FIFO
		// backs up behind the 3 ms delay. Second half: 5 ms apart, so it
		// runs empty between packets.
		at := time.Duration(i/2) * time.Millisecond
		if i >= n/2 {
			at = time.Duration(100+5*i) * time.Millisecond
		}
		net.Scheduler().At(at, func() {
			e1.HandlePacket(&packet.Packet{Flow: a.flow, Seq: a.seq, Size: 100, TTL: 5, Deflected: true}, 0)
		})
	}
	net.Scheduler().RunUntil(time.Second)

	if !reflect.DeepEqual(got, want) {
		t.Errorf("re-encoded packets delivered as\n%v\nwant arrival order\n%v", got, want)
	}
	if st := e1.Stats(); st.Misdelivered != n || st.Reencoded != n || re.calls != n {
		t.Errorf("E1 stats = %+v, controller calls = %d, want %d misdelivered, re-encoded and asked", st, re.calls, n)
	}
	if len(e1.pending) != 0 || e1.pendHead != 0 {
		t.Errorf("FIFO not empty after the run: len %d head %d", len(e1.pending), e1.pendHead)
	}
	for i, p := range e1.pending[:cap(e1.pending)] {
		if p != nil {
			t.Errorf("drained FIFO still pins a packet in slot %d", i)
		}
	}
}

// TestEdgeReencodeErrorReleases: when the controller has no route the
// queued packet is dropped as no-viable-port and handed back to the
// pool, and the FIFO moves on to the next one.
func TestEdgeReencodeErrorReleases(t *testing.T) {
	net, g := threeNode(t)
	e1n, _ := g.Node("E1")
	re := &fixedReencoder{err: errors.New("no path")}
	e1 := New(net, e1n, re)
	flow := packet.FlowID{Src: "X", Dst: "E2"}
	src := net.ClockOf(e1n)
	pkts := []*packet.Packet{src.NewPacket(), src.NewPacket()}
	for _, p := range pkts {
		p.Flow, p.Size, p.TTL = flow, 100, 5
		e1.HandlePacket(p, 0)
	}
	net.Scheduler().RunUntil(time.Second)
	if noPort := net.Metrics().SumCounter("kar_net_drops_total", "reason", simnet.DropNoViablePort.String()); net.Metrics().SumCounter("kar_net_drops_total") != 2 || noPort != 2 {
		t.Fatalf("dropped %d packets, %d of them no-viable-port, want 2 and 2", net.Metrics().SumCounter("kar_net_drops_total"), noPort)
	}
	for i, p := range pkts {
		if p.Flow != (packet.FlowID{}) { // recycling zeroes a pool-owned packet
			t.Errorf("packet %d was not released to the pool", i)
		}
	}
	if st := e1.Stats(); st.Misdelivered != 2 || st.Reencoded != 0 || len(e1.pending) != 0 {
		t.Errorf("E1 stats = %+v, %d pending, want 2 misdelivered, none re-encoded or pending", st, len(e1.pending))
	}
}

// TestEdgeReencodeAllocatesNothing: the misdelivery path posts a method
// value bound at construction, not a closure per packet.
func TestEdgeReencodeAllocatesNothing(t *testing.T) {
	net, g := threeNode(t)
	e1n, _ := g.Node("E1")
	e2n, _ := g.Node("E2")
	re := &fixedReencoder{id: rns.RouteIDFromUint64(8), port: 0}
	e1 := New(net, e1n, re)
	e2 := New(net, e2n, nil)
	flow := packet.FlowID{Src: "X", Dst: "E2"}
	e2.Attach(flow, ReceiverFunc(func(*packet.Packet) {}))
	pkt := &packet.Packet{Flow: flow, Size: 100}
	sched := net.Scheduler()
	misdeliver := func() {
		pkt.TTL, pkt.Hops = 5, 0
		e1.HandlePacket(pkt, 0)
		sched.RunUntil(sched.Now() + 20*time.Millisecond)
	}
	misdeliver() // first re-encode of the flow: event-log record, queue records
	if allocs := testing.AllocsPerRun(100, misdeliver); allocs != 0 {
		t.Errorf("a re-encode allocates %.1f objects in steady state, want 0", allocs)
	}
	if st := e1.Stats(); st.Reencoded != 102 {
		t.Errorf("Reencoded = %d, want 102", st.Reencoded)
	}
}
