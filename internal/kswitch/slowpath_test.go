package kswitch

import (
	"fmt"
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
func gapWorld(t testing.TB, policy deflect.Policy, opts ...simnet.Option) (*simnet.Network, *Switch, *topology.Graph) {
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
	return net, &install(net, []*topology.Node{node}, policy, 1)[0], g
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
	sched.At(10*time.Millisecond, func() { net.AcquireLinkDown(link) })
	sched.At(30*time.Millisecond, func() { net.ReleaseLinkDown(link) })
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
// for both of the paper's randomising techniques; so is a policy drop
// (every link down) once its flow has been logged.
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
	t.Run("policy-drop", func(t *testing.T) {
		net, sw, g := gapWorld(t, deflect.NotInputPort{})
		for _, nb := range []string{"SW11", "SW13", "SW17"} {
			link, _ := g.LinkBetween("SW7", nb)
			net.FailLink(link)
		}
		pkt := &packet.Packet{Flow: packet.FlowID{Src: "A", Dst: "B"}, RouteID: rns.RouteIDFromUint64(7), Size: 1500}
		drop := func() {
			pkt.TTL, pkt.Deflected = packet.DefaultTTL, false
			sw.HandlePacket(pkt, 1)
		}
		drop() // logs the flow's first drop
		if allocs := testing.AllocsPerRun(200, drop); allocs != 0 {
			t.Errorf("a policy drop allocates %.1f objects, want 0", allocs)
		}
		if got := sw.Stats().PolicyDrops; got != 202 {
			t.Errorf("%d policy drops over 202 packets", got)
		}
	})
}

// recorder notes the name of the neighbour a packet reached.
type recorder struct {
	name string
	got  *string
}

func (r recorder) HandlePacket(*packet.Packet, int) { *r.got = r.name }

// TestSwitchDecisionMatchesPolicy: the switch splits a decision its own
// way — the encoded port reduced once, accepted on cached lines, a
// shaped fallback drawn straight from its xrand source — and must still
// decide what the policy's Decide decides on the switch's view with a
// math/rand generator of the same seed: the same port or drop, the same
// deflection cause, and the same draws, so both generators agree on the
// next value. Every policy, and one with no shape, through both entry
// points, over encoded ports that are accepted, down, a gap, invalid
// (past the span) and the input port (down or up), for both deflection
// flags and a local or attached input port, with and without a failed
// link.
func TestSwitchDecisionMatchesPolicy(t *testing.T) {
	policies := append(deflect.All(), portPolicy(3))
	neighbour := map[int]string{0: "SW11", 1: "SW13", 3: "SW17"}
	var seen [3]int
	for _, policy := range policies {
		for _, batched := range []bool{false, true} {
			net, sw, g := gapWorld(t, policy)
			var got string
			for _, n := range g.CoreNodes() {
				if n.Name() != "SW7" {
					net.Bind(n, recorder{name: n.Name(), got: &got})
				}
			}
			sched := net.Scheduler()
			src := &countingSource{Source64: rand.NewSource(1).(rand.Source64)} // gapWorld seeds the switch with 1
			ref := rand.New(src)
			cases := 0
			for _, failed := range []bool{false, true} {
				if failed {
					link, _ := g.LinkBetween("SW7", "SW11")
					net.FailLink(link)
					sched.RunUntil(sched.Now() + time.Millisecond)
				}
				for _, residue := range []int{0, 1, 2, 3, 4, 6} { // SW7: ports 0, 1, 3 of span 4
					for _, inPort := range []int{-1, 0, 1, 3} {
						for _, deflected := range []bool{false, true} {
							rid := rns.RouteIDFromUint64(uint64(7*cases + residue))
							want := policy.Decide(view{sw}, rid, inPort, deflected, ref)
							wantCause := -1
							if want.Deflected {
								switch {
								case residue >= 4:
									wantCause = causeIdxInvalidPort
								case residue == 2 || failed && residue == 0:
									wantCause = causeIdxPortDown
								case residue == inPort:
									wantCause = causeIdxInputPort
								default:
									wantCause = causeIdxRandomWalk
								}
							}
							var before [causeCount]int64
							for c := range before {
								before[c] = sw.deflections[c].Value()
							}
							drops := sw.Stats().PolicyDrops
							got = ""
							pkt := &packet.Packet{Flow: packet.FlowID{Src: "A", Dst: "B"}, RouteID: rid, TTL: 8, Size: 100, Deflected: deflected}
							if batched {
								sw.HandleBatchPacket(pkt, inPort, uint16(residue))
							} else {
								sw.HandlePacket(pkt, inPort)
							}
							sched.RunUntil(sched.Now() + 10*time.Millisecond)
							where := fmt.Sprintf("%s batched=%v failed=%v residue=%d in=%d deflected=%v", policy.Name(), batched, failed, residue, inPort, deflected)
							if want.Drop {
								if sw.Stats().PolicyDrops != drops+1 || got != "" {
									t.Errorf("%s: policy drops, the switch sent to %q", where, got)
								}
							} else if got != neighbour[want.Port] {
								t.Errorf("%s: policy forwards on port %d (%s), the switch sent to %q", where, want.Port, neighbour[want.Port], got)
							}
							for c := range before {
								w := int64(0)
								if c == wantCause {
									w = 1
								}
								if d := sw.deflections[c].Value() - before[c]; d != w {
									t.Errorf("%s: %s deflections +%d, want cause %d", where, causeNames[c], d, wantCause)
								}
							}
							switch {
							case want.Drop:
								seen[2]++
							case want.Deflected:
								seen[1]++
							default:
								seen[0]++
							}
							cases++
						}
					}
				}
			}
			if policy.Shape().Random() != (src.draws > 0) {
				t.Errorf("%s: %d draws over %d cases", policy.Name(), src.draws, cases)
			}
			if g, w := sw.rng.Int63(), ref.Int63(); g != w {
				t.Errorf("%s batched=%v: after %d cases the switch's next draw is %d, the policy's %d", policy.Name(), batched, cases, g, w)
			}
		}
	}
	// Non-vacuous: every outcome occurred.
	for k := 0; k < 3; k++ {
		if seen[k] == 0 {
			t.Errorf("no case had outcome %d (0 forward, 1 deflect, 2 drop)", k)
		}
	}
}

// countingSource counts the draws made through it.
type countingSource struct {
	rand.Source64
	draws int
}

func (c *countingSource) Int63() int64 { c.draws++; return c.Source64.Int63() }

// portPolicy always decides on one fixed port, attached or not.
type portPolicy int

func (portPolicy) Name() string         { return "fixed-port" }
func (portPolicy) Shape() deflect.Shape { return deflect.Shape{} }
func (p portPolicy) Decide(deflect.SwitchView, rns.RouteID, int, bool, deflect.Rand) deflect.Decision {
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
		if drops := net.Metrics().SumCounter("kar_net_drops_total"); drops != 1 {
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

// BenchmarkSwitchDeflect is one deflected hop through the batched
// path's slow arm: a packet whose encoded port (7 mod 7 = 0) is down
// reaches decide with its residue, deflects under nip or avp, and is
// sent and delivered to a sink neighbour. Deliveries are drained every
// 64 hops, inside the timed loop.
func BenchmarkSwitchDeflect(b *testing.B) {
	for _, policy := range []deflect.Policy{deflect.NotInputPort{}, deflect.AnyValidPort{}} {
		b.Run(policy.Name(), func(b *testing.B) {
			net, sw, g := gapWorld(b, policy)
			link, _ := g.LinkBetween("SW7", "SW11")
			net.FailLink(link)
			sched := net.Scheduler()
			pkts := make([]packet.Packet, 64)
			for i := range pkts {
				pkts[i] = packet.Packet{Flow: packet.FlowID{Src: "A", Dst: "B"}, RouteID: rns.RouteIDFromUint64(7), Size: 1500}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pkt := &pkts[i%len(pkts)]
				pkt.TTL, pkt.Deflected = packet.DefaultTTL, false
				sw.HandleBatchPacket(pkt, 1, 0)
				if i%len(pkts) == len(pkts)-1 {
					sched.RunUntil(sched.Now() + 10*time.Millisecond)
				}
			}
			b.StopTimer()
			if st := sw.Stats(); st.Deflections < int64(b.N) || net.Metrics().SumCounter("kar_net_drops_total") != 0 {
				b.Fatalf("%d deflections and %d drops over %d hops", st.Deflections, net.Metrics().SumCounter("kar_net_drops_total"), b.N)
			}
		})
	}
}
