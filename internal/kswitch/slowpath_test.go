package kswitch

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/deflect"
	"repro/internal/packet"
	"repro/internal/rns"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// sinkHandler swallows what reaches a neighbour of the switch under test.
type sinkHandler struct{}

func (sinkHandler) HandlePacket(*packet.Packet, int) {}

// gapWorld builds SW7 with ports 0, 1 and 3 attached (2 is a gap in the
// numbering, span 4) to three sink neighbours, and installs the switch.
func gapWorld(t *testing.T, policy deflect.Policy, opts ...simnet.Option) (*simnet.Network, *Switch, *topology.Graph) {
	t.Helper()
	g := topology.New("gap")
	if _, err := g.AddCore("SW7", 7); err != nil {
		t.Fatal(err)
	}
	for _, nb := range []struct {
		name string
		id   uint64
		port int
	}{{"SW11", 11, 0}, {"SW13", 13, 1}, {"SW17", 17, 3}} {
		if _, err := g.AddCore(nb.name, nb.id); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Connect("SW7", nb.name, topology.WithPorts(nb.port, 0)); err != nil {
			t.Fatalf("link to %s: %v", nb.name, err)
		}
	}
	net := simnet.New(g, opts...)
	for _, n := range g.CoreNodes() {
		net.Bind(n, sinkHandler{})
	}
	node, _ := g.Node("SW7")
	return net, New(net, node, policy, 1), g
}

// TestViewPortUpMatchesNetwork: the switch answers "is port i up?" from
// its per-port line cache; the answer must be Network.PortUp's for
// every index around the port space — below it, the gap, past the span
// — in every detected state of a link under detection lag.
func TestViewPortUpMatchesNetwork(t *testing.T) {
	net, sw, g := gapWorld(t, deflect.NotInputPort{}, simnet.WithDetectionDelay(5*time.Millisecond, 5*time.Millisecond))
	node := sw.Node()
	if node.PortSpan() != 4 {
		t.Fatalf("port span %d, want 4 (ports 0, 1, 3)", node.PortSpan())
	}
	link, _ := g.LinkBetween("SW7", "SW11")
	sched := net.Scheduler()
	sched.At(10*time.Millisecond, func() { net.FailLink(link) })
	sched.At(30*time.Millisecond, func() { net.RepairLink(link) })
	for _, phase := range []struct {
		name    string
		at      time.Duration
		port0Up bool
	}{
		{"up", 5 * time.Millisecond, true},
		{"down, undetected", 12 * time.Millisecond, true},
		{"down, detected", 20 * time.Millisecond, false},
		{"repaired, undetected", 32 * time.Millisecond, false},
		{"repaired, detected", 40 * time.Millisecond, true},
	} {
		sched.RunUntil(phase.at)
		if got := (view{sw}).PortUp(0); got != phase.port0Up {
			t.Errorf("%s: view.PortUp(0) = %v, want %v", phase.name, got, phase.port0Up)
		}
		for i := -1; i <= node.PortSpan()+1; i++ {
			if got, want := (view{sw}).PortUp(i), net.PortUp(node, i); got != want {
				t.Errorf("%s: view.PortUp(%d) = %v, Network.PortUp = %v", phase.name, i, got, want)
			}
		}
	}
}

// TestDeflectedForwardAllocatesNothing: with the encoded port's link
// down, a forward through decide — policy scan, cause classification,
// counters, the cached line's send — is allocation-free in steady state
// for both of the paper's randomising techniques.
func TestDeflectedForwardAllocatesNothing(t *testing.T) {
	for _, policy := range []deflect.Policy{deflect.NotInputPort{}, deflect.AnyValidPort{}} {
		t.Run(policy.Name(), func(t *testing.T) {
			net, sw, g := gapWorld(t, policy)
			link, _ := g.LinkBetween("SW7", "SW11")
			net.FailLink(link)
			sched := net.Scheduler()
			// 7 mod 7 = 0: the encoded port is the failed one.
			pkt := &packet.Packet{Flow: packet.FlowID{Src: "A", Dst: "B"}, RouteID: rns.RouteIDFromUint64(7), Size: 1500}
			forward := func() {
				pkt.TTL, pkt.Deflected = packet.DefaultTTL, false
				sw.HandlePacket(pkt, 1)
				sched.RunUntil(sched.Now() + 10*time.Millisecond)
			}
			// Grow every candidate port's queue record and log the first
			// deflection before measuring.
			for i := 0; i < 64; i++ {
				forward()
			}
			before := sw.Stats().Deflections
			if allocs := testing.AllocsPerRun(200, forward); allocs != 0 {
				t.Errorf("a deflected forward allocates %.1f objects, want 0", allocs)
			}
			if got := sw.Stats().Deflections - before; got != 201 { // AllocsPerRun warms up once
				t.Errorf("%d deflections over 201 forwards: the slow path was not taken", got)
			}
		})
	}
}

// portPolicy always decides on one fixed port, attached or not.
type portPolicy int

func (portPolicy) Name() string         { return "fixed-port" }
func (portPolicy) Shape() deflect.Shape { return deflect.Shape{} }
func (p portPolicy) Decide(deflect.SwitchView, rns.RouteID, int, bool, *rand.Rand) deflect.Decision {
	return deflect.Decision{Port: int(p)}
}

// TestDecisionOnPortWithoutLink: a policy may name a port the switch
// does not have; the cached-line exit must end where Network.Send does
// — one send counted, one no-port drop — for the gap, the index past
// the span and a negative index.
func TestDecisionOnPortWithoutLink(t *testing.T) {
	for _, port := range []int{2, 4, -1} {
		net, sw, _ := gapWorld(t, portPolicy(port))
		sw.HandlePacket(&packet.Packet{RouteID: rns.RouteIDFromUint64(7), TTL: 8, Size: 100}, 1)
		net.Scheduler().RunUntil(time.Second)
		if drops := net.Dropped(); drops != 1 {
			t.Errorf("port %d: %d drops, want one (no-port, read below)", port, drops)
		}
		reg := net.Metrics()
		if got := reg.CounterValue("kar_net_sends_total"); got != 1 {
			t.Errorf("port %d: kar_net_sends_total = %d, want 1", port, got)
		}
		if got := reg.CounterValue("kar_net_drops_total", "reason", "no-port"); got != 1 {
			t.Errorf("port %d: kar_net_drops_total{reason=no-port} = %d, want 1", port, got)
		}
		if st := sw.Stats(); st.Forwarded != 1 {
			t.Errorf("port %d: forwarded = %d, want 1 (counted before the send, as ever)", port, st.Forwarded)
		}
	}
}
