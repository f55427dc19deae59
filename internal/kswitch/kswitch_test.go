// Package kswitch's tests double as the first full-stack integration
// tests: edge → core switches → edge over the simulated network,
// replaying the paper's Fig. 1 scenarios packet by packet.
package kswitch

import (
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/deflect"
	"repro/internal/edge"
	"repro/internal/packet"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// world wires a complete Fig. 1 KAR network.
type world struct {
	net      *simnet.Network
	ctrl     *controller.Controller
	switches map[string]*Switch
	edges    map[string]*edge.Edge
	received []*packet.Packet
	recvAt   []time.Duration
}

func newWorld(t *testing.T, policy deflect.Policy, protected bool) *world {
	return newWorldOpts(t, policy, protected)
}

// newWorldOpts is newWorld with extra network options (the batch
// identity test passes simnet.WithScalarDataPlane).
func newWorldOpts(t *testing.T, policy deflect.Policy, protected bool, opts ...simnet.Option) *world {
	t.Helper()
	g, err := topology.Fig1()
	if err != nil {
		t.Fatalf("Fig1: %v", err)
	}
	w := &world{net: simnet.New(g, opts...)}
	w.ctrl = controller.New(g)
	w.switches = InstallAll(w.net, policy, 1)
	w.edges = make(map[string]*edge.Edge)
	for _, n := range g.EdgeNodes() {
		w.edges[n.Name()] = edge.New(w.net, n, w.ctrl)
	}

	var protection [][2]string
	if protected {
		protection = [][2]string{{"SW5", "SW11"}}
	}
	hops, err := hopsFromPairs(w.ctrl, protection)
	if err != nil {
		t.Fatalf("protection hops: %v", err)
	}
	route, err := w.ctrl.InstallRoute("S", "D", hops)
	if err != nil {
		t.Fatalf("InstallRoute: %v", err)
	}
	port, err := w.ctrl.IngressPort(route)
	if err != nil {
		t.Fatalf("IngressPort: %v", err)
	}
	w.edges["S"].InstallRoute("D", route.ID, port)

	flow := packet.FlowID{Src: "S", Dst: "D"}
	w.edges["D"].Attach(flow, edge.ReceiverFunc(func(p *packet.Packet) {
		w.received = append(w.received, p)
		w.recvAt = append(w.recvAt, w.net.Scheduler().Now())
	}))
	return w
}

func hopsFromPairs(c *controller.Controller, pairs [][2]string) ([]core.Hop, error) {
	return core.HopsFromPairs(c.Graph(), pairs)
}

func (w *world) inject(n int) {
	for i := 0; i < n; i++ {
		p := &packet.Packet{
			Flow: packet.FlowID{Src: "S", Dst: "D"},
			Kind: packet.KindData,
			Seq:  uint64(i),
			Size: 1500,
		}
		if err := w.edges["S"].Inject(p); err != nil {
			panic(err)
		}
	}
}

func (w *world) run(until time.Duration) { w.net.Scheduler().RunUntil(until) }

func TestFig1HealthyDelivery(t *testing.T) {
	for _, policy := range deflect.All() {
		t.Run(policy.Name(), func(t *testing.T) {
			w := newWorld(t, policy, false)
			w.inject(10)
			w.run(time.Second)
			if len(w.received) != 10 {
				t.Fatalf("delivered %d packets, want 10", len(w.received))
			}
			// Healthy path S-SW4-SW7-SW11-D: 4 link hops.
			for _, p := range w.received {
				if p.Hops != 4 {
					t.Errorf("packet took %d hops, want 4", p.Hops)
				}
				if p.Deflected {
					t.Error("packet deflected on a healthy network")
				}
			}
			// No deflections counted at any switch.
			for name, sw := range w.switches {
				if st := sw.Stats(); st.Deflections != 0 {
					t.Errorf("switch %s recorded %d deflections on a healthy network", name, st.Deflections)
				}
			}
		})
	}
}

func TestFig1FailureNoDeflectionDropsAll(t *testing.T) {
	w := newWorld(t, deflect.None{}, false)
	link, _ := w.net.Topology().LinkBetween("SW7", "SW11")
	w.net.FailLink(link)
	w.inject(20)
	w.run(time.Second)
	if len(w.received) != 0 {
		t.Fatalf("delivered %d packets across a failed link with no deflection, want 0", len(w.received))
	}
	if st := w.switches["SW7"].Stats(); st.PolicyDrops != 20 {
		t.Errorf("SW7 policy drops = %d, want 20", st.PolicyDrops)
	}
}

// TestFig1DrivenDeflectionNIP reproduces the paper's Fig. 1(b)
// behaviour: with SW5 encoded (R=660) and NIP deflection, every packet
// deflected at SW7 is driven SW5→SW11 and delivered — zero loss,
// exactly one extra hop. (In Fig. 1, NIP's input-port exclusion leaves
// SW5 as SW7's only deflection candidate, so the deviation is
// deterministic.)
func TestFig1DrivenDeflectionNIP(t *testing.T) {
	policy, _ := deflect.ByName("nip")
	w := newWorld(t, policy, true)
	link, _ := w.net.Topology().LinkBetween("SW7", "SW11")
	w.net.FailLink(link)
	w.inject(50)
	w.run(time.Second)
	if len(w.received) != 50 {
		t.Fatalf("delivered %d packets, want all 50 (hitless)", len(w.received))
	}
	for _, p := range w.received {
		if p.Hops != 5 {
			t.Errorf("packet took %d hops, want 5 (S-SW4-SW7-SW5-SW11-D)", p.Hops)
		}
		if !p.Deflected {
			t.Error("packet not marked deflected despite failure")
		}
	}
	if st := w.switches["SW7"].Stats(); st.Deflections != 50 {
		t.Errorf("SW7 deflections = %d, want 50", st.Deflections)
	}
}

// TestFig1DrivenDeflectionAVP: AVP may bounce packets back out of the
// input port (toward SW4), so paths stretch beyond 5 hops — the very
// behaviour NIP was proposed to avoid. Everything must still be
// delivered, and every delivery ends through the driven SW5→SW11 hop.
func TestFig1DrivenDeflectionAVP(t *testing.T) {
	policy, _ := deflect.ByName("avp")
	w := newWorld(t, policy, true)
	link, _ := w.net.Topology().LinkBetween("SW7", "SW11")
	w.net.FailLink(link)
	w.inject(50)
	w.run(2 * time.Second)
	if len(w.received) != 50 {
		t.Fatalf("delivered %d packets, want all 50", len(w.received))
	}
	bounced := false
	for _, p := range w.received {
		if p.Hops < 5 {
			t.Errorf("packet took %d hops, minimum possible is 5", p.Hops)
		}
		if p.Hops > 5 {
			bounced = true
		}
	}
	if !bounced {
		t.Error("AVP never bounced a packet toward SW4; with 50 packets at 50/50 odds that is implausible")
	}
	if st := w.switches["SW7"].Stats(); st.Deflections < 50 {
		t.Errorf("SW7 deflections = %d, want >= 50 (re-deflections on bounce-backs)", st.Deflections)
	}
}

// TestFig1UnprotectedNIPDeterministic: without SW5 in the route ID
// (R=44), NIP still delivers everything in Fig. 1 — at SW5, 44 mod 5 =
// 4 is invalid and the input port is excluded, leaving SW11 as the
// only candidate. Deterministic 5-hop delivery.
func TestFig1UnprotectedNIPDeterministic(t *testing.T) {
	policy, _ := deflect.ByName("nip")
	w := newWorld(t, policy, false)
	link, _ := w.net.Topology().LinkBetween("SW7", "SW11")
	w.net.FailLink(link)
	w.inject(100)
	w.run(2 * time.Second)
	if len(w.received) != 100 {
		t.Fatalf("delivered %d packets, want 100 (NIP keeps them alive)", len(w.received))
	}
	for _, p := range w.received {
		if p.Hops != 5 {
			t.Errorf("packet took %d hops, want 5", p.Hops)
		}
	}
}

// TestFig1UnprotectedAVP5050 checks the paper's §2.1 claim directly:
// "without any Driven Deflection Forwarding Paths, a packet arriving
// at SW5 has 50% probability to go to SW11". AVP allows the bounce
// back to SW7, so roughly half the packets take extra hops.
func TestFig1UnprotectedAVP5050(t *testing.T) {
	policy, _ := deflect.ByName("avp")
	w := newWorld(t, policy, false)
	link, _ := w.net.Topology().LinkBetween("SW7", "SW11")
	w.net.FailLink(link)
	// Paced injection: 400 at once would tail-drop at the ingress queue.
	for i := 0; i < 400; i++ {
		i := i
		w.net.Scheduler().At(time.Duration(i)*500*time.Microsecond, func() {
			p := &packet.Packet{
				Flow: packet.FlowID{Src: "S", Dst: "D"},
				Kind: packet.KindData, Seq: uint64(i), Size: 1500,
			}
			_ = w.edges["S"].Inject(p)
		})
	}
	w.run(5 * time.Second)
	if len(w.received) != 400 {
		t.Fatalf("delivered %d packets, want 400", len(w.received))
	}
	direct := 0
	for _, p := range w.received {
		if p.Hops == 5 {
			direct++
		}
	}
	// The direct 5-hop delivery needs two coin flips: SW7 deflects to
	// SW5 (1/2, the bounce to SW4 allowed) and SW5 forwards to SW11
	// (1/2, the paper's claim). Expect ~1/4 in a generous band.
	frac := float64(direct) / 400
	if frac < 0.15 || frac > 0.35 {
		t.Errorf("direct 5-hop fraction = %.2f, want ~0.25 (two 50%% draws)", frac)
	}
}

// TestFig1HotPotatoEventuallyDelivers: HP random walks either deliver
// or die by TTL; nothing loops forever.
func TestFig1HotPotatoEventuallyDelivers(t *testing.T) {
	policy, _ := deflect.ByName("hp")
	w := newWorld(t, policy, true)
	link, _ := w.net.Topology().LinkBetween("SW7", "SW11")
	w.net.FailLink(link)
	w.inject(100)
	w.run(5 * time.Second)
	if w.net.Pending() != 0 {
		t.Errorf("%d events still pending; packets must terminate", w.net.Pending())
	}
	delivered := len(w.received)
	var ttlDrops int64
	for _, sw := range w.switches {
		ttlDrops += sw.Stats().TTLDrops
	}
	if delivered+int(ttlDrops) < 90 {
		t.Errorf("delivered %d + ttl drops %d; packets unaccounted for", delivered, ttlDrops)
	}
	if delivered == 0 {
		t.Error("hot potato delivered nothing; random walks should reach D sometimes")
	}
}

// TestFailureMidFlight: packets already on the failed link die, later
// packets deflect — the hitless property only covers packets that
// reach the failure point after detection.
func TestFailureMidFlight(t *testing.T) {
	policy, _ := deflect.ByName("nip")
	w := newWorld(t, policy, true)
	link, _ := w.net.Topology().LinkBetween("SW7", "SW11")
	// Inject continuously; fail the link mid-stream.
	for i := 0; i < 100; i++ {
		i := i
		w.net.Scheduler().At(time.Duration(i)*time.Millisecond, func() {
			p := &packet.Packet{
				Flow: packet.FlowID{Src: "S", Dst: "D"},
				Kind: packet.KindData, Seq: uint64(i), Size: 1500,
			}
			_ = w.edges["S"].Inject(p)
		})
	}
	w.net.Scheduler().At(50*time.Millisecond+500*time.Microsecond, func() { w.net.FailLink(link) })
	w.run(2 * time.Second)
	lost := 100 - len(w.received)
	if lost > 3 {
		t.Errorf("lost %d packets at failure onset, want at most the in-flight handful", lost)
	}
	if lost == 0 {
		t.Log("no packet was in flight at failure onset (acceptable, timing-dependent)")
	}
}

func TestSwitchTTLExpiry(t *testing.T) {
	w := newWorld(t, deflect.None{}, false)
	p := &packet.Packet{
		Flow: packet.FlowID{Src: "S", Dst: "D"},
		Kind: packet.KindData, Size: 1500, TTL: 2, // expires at the 2nd switch
	}
	route, _ := w.ctrl.Route("S", "D")
	p.RouteID = route.ID
	sNode, _ := w.net.Topology().Node("S")
	w.net.Send(sNode, 0, p) // bypass Inject to keep the small TTL
	w.run(time.Second)
	if len(w.received) != 0 {
		t.Fatal("TTL-expired packet was delivered")
	}
	if st := w.switches["SW7"].Stats(); st.TTLDrops != 1 {
		t.Errorf("SW7 TTL drops = %d, want 1", st.TTLDrops)
	}
}
