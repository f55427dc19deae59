package kswitch

import (
	"testing"
	"time"

	"repro/internal/deflect"
	"repro/internal/packet"
	"repro/internal/rns"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// A fully isolated switch — every port down, as after a switch crash —
// must drop arriving packets with the deterministic no-viable-port
// cause and the per-switch policy-drop counter, under all three
// deflection techniques, without looping or panicking. The packet is
// handed to the switch directly: with all links down nothing can reach
// it over the wire, and this models the instant the isolation hits a
// packet already at the switch.
func TestIsolatedSwitchDropsDeterministically(t *testing.T) {
	for _, policyName := range []string{"hp", "avp", "nip"} {
		t.Run(policyName, func(t *testing.T) {
			g, err := topology.Fig1()
			if err != nil {
				t.Fatal(err)
			}
			policy, ok := deflect.ByName(policyName)
			if !ok {
				t.Fatalf("no policy %q", policyName)
			}
			net := simnet.New(g)
			switches := InstallAll(net, policy, 1)
			sw7 := switches["SW7"]

			node, _ := g.Node("SW7")
			for i := 0; i < node.Degree(); i++ {
				l, lok := node.PortLink(i)
				if !lok {
					continue
				}
				net.AcquireLinkDown(l)
			}

			// The Fig. 1 route R=44 encodes SW7's port toward SW11; with
			// every port down no decision can stick.
			pkt := &packet.Packet{
				Flow:    packet.FlowID{Src: "S", Dst: "D"},
				Kind:    packet.KindData,
				RouteID: rns.RouteIDFromUint64(44),
				Size:    1500,
				TTL:     16,
			}
			net.Scheduler().At(time.Millisecond, func() {
				sw7.HandlePacket(pkt, 0)
			})
			net.Scheduler().RunUntil(time.Second) // must terminate: no loop

			st := sw7.Stats()
			if st.Received != 1 {
				t.Fatalf("switch received %d packets, want 1", st.Received)
			}
			if st.PolicyDrops != 1 {
				t.Errorf("policy drops = %d, want 1", st.PolicyDrops)
			}
			if st.Forwarded != 0 {
				t.Errorf("isolated switch forwarded %d packets", st.Forwarded)
			}
			reg := net.Metrics()
			if got := reg.CounterValue("kar_net_drops_total", "reason", "no-viable-port"); got != 1 {
				t.Errorf("kar_net_drops_total{reason=no-viable-port} = %d, want 1", got)
			}
			if got := reg.CounterValue("kar_switch_policy_drops_total", "switch", "SW7"); got != 1 {
				t.Errorf("kar_switch_policy_drops_total{switch=SW7} = %d, want 1", got)
			}
		})
	}
}

// The same isolation reached over the wire: SW7 crashes mid-run while
// traffic flows S→D on the Fig. 1 route. Packets in flight toward the
// crashed switch die on the dead links, later ones deflect or drop at
// SW4 — and nothing loops or panics under any policy. After the crash
// ends, delivery resumes.
func TestSwitchCrashMidStream(t *testing.T) {
	for _, policyName := range []string{"hp", "avp", "nip"} {
		t.Run(policyName, func(t *testing.T) {
			policy, ok := deflect.ByName(policyName)
			if !ok {
				t.Fatalf("no policy %q", policyName)
			}
			w := newWorld(t, policy, false)
			node, _ := w.net.Topology().Node("SW7")
			var links []*topology.Link
			for i := 0; i < node.Degree(); i++ {
				if l, lok := node.PortLink(i); lok {
					links = append(links, l)
				}
			}
			w.net.Scheduler().At(20*time.Millisecond, func() {
				for _, l := range links {
					w.net.AcquireLinkDown(l)
				}
			})
			w.net.Scheduler().At(60*time.Millisecond, func() {
				for _, l := range links {
					w.net.ReleaseLinkDown(l)
				}
			})
			// One packet per millisecond for 100ms: the stream spans
			// before, during and after the crash.
			for i := 0; i < 100; i++ {
				i := i
				w.net.Scheduler().At(time.Duration(i)*time.Millisecond, func() {
					p := &packet.Packet{
						Flow: packet.FlowID{Src: "S", Dst: "D"},
						Kind: packet.KindData,
						Seq:  uint64(i),
						Size: 1500,
					}
					if err := w.edges["S"].Inject(p); err != nil {
						t.Errorf("inject %d: %v", i, err)
					}
				})
			}
			w.net.Scheduler().RunUntil(time.Second)

			if len(w.received) == 0 {
				t.Fatal("nothing delivered at all")
			}
			// The last packets are sent at ~99ms, well after the crash
			// ends at 60ms: they must get through.
			last := w.received[len(w.received)-1]
			if last.Seq != 99 {
				t.Errorf("last delivered seq %d, want 99 (post-crash recovery)", last.Seq)
			}
			delivered := w.net.Delivered()
			dropped := w.net.Metrics().SumCounter("kar_net_drops_total")
			if delivered+dropped == 0 {
				t.Fatal("conservation counters empty")
			}
		})
	}
}
