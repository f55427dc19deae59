package tablefwd_test

import (
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/edge"
	"repro/internal/packet"
	"repro/internal/rns"
	"repro/internal/simnet"
	"repro/internal/tablefwd"
	"repro/internal/topology"
	"repro/internal/udpsim"
)

// buildTableWorld wires a Net15 network with table-based switches.
func buildTableWorld(t *testing.T) (*simnet.Network, map[string]*tablefwd.Switch, map[string]*edge.Edge) {
	t.Helper()
	g, err := topology.Net15()
	if err != nil {
		t.Fatalf("Net15: %v", err)
	}
	net := simnet.New(g)
	switches, err := tablefwd.InstallAll(net)
	if err != nil {
		t.Fatalf("InstallAll: %v", err)
	}
	ctrl := controller.New(g)
	edges := make(map[string]*edge.Edge)
	for _, n := range g.EdgeNodes() {
		edges[n.Name()] = edge.New(net, n, ctrl)
	}
	return net, switches, edges
}

// startCBR wires a CBR flow; table switches route by destination, so
// the edge route entry only needs the right egress port (route ID
// unused by the core).
func startCBR(t *testing.T, net *simnet.Network, edges map[string]*edge.Edge, count int) (*udpsim.Sender, *udpsim.Receiver) {
	t.Helper()
	flow := packet.FlowID{Src: "AS1", Dst: "AS3"}
	as1 := edges["AS1"].Node()
	port, ok := as1.PortToward("SW10")
	if !ok {
		t.Fatal("AS1 has no port toward SW10")
	}
	edges["AS1"].InstallRoute("AS3", rns.RouteID{}, port)
	send, recv := udpsim.NewFlow(net, edges["AS1"], edges["AS3"], flow, udpsim.Config{
		Interval: time.Millisecond, Count: count,
	})
	return send, recv
}

func TestTableForwardingHealthy(t *testing.T) {
	net, switches, edges := buildTableWorld(t)
	send, recv := startCBR(t, net, edges, 200)
	send.Start()
	net.Scheduler().RunUntil(2 * time.Second)
	st := recv.Stats(send)
	if st.Received != 200 {
		t.Fatalf("received %d/200", st.Received)
	}
	if st.MinHops != 5 || st.MaxHops != 5 {
		t.Errorf("hops = [%d, %d], want the 5-hop shortest path", st.MinHops, st.MaxHops)
	}
	// Every switch holds one entry per edge destination.
	for name, sw := range switches {
		if got := sw.StateEntries(); got != 3 {
			t.Errorf("switch %s holds %d entries, want 3 (one per edge)", name, got)
		}
	}
	if total := tablefwd.TotalStateEntries(switches); total != 36 {
		t.Errorf("total state entries = %d, want 12 switches × 3 destinations = 36", total)
	}
}

func TestTableFastFailover(t *testing.T) {
	net, _, edges := buildTableWorld(t)
	l, _ := net.Topology().LinkBetween("SW7", "SW13")
	net.FailLink(l)
	send, recv := startCBR(t, net, edges, 200)
	send.Start()
	net.Scheduler().RunUntil(2 * time.Second)
	st := recv.Stats(send)
	if st.Received != 200 {
		t.Fatalf("received %d/200 with a single failure; fast failover must cover it", st.Received)
	}
	// No controller reroutes here: every probe arriving on a detour is
	// SW7's local switch to its precomputed backup.
	if st.MaxHops <= 5 {
		t.Errorf("max hops = %d, want > 5 (SW7's backup detour)", st.MaxHops)
	}
}

// TestTableDoubleFailureDrops: with both the primary and the backup
// direction broken at the failure point, the table switch drops —
// the single-failure limitation Table 2 ascribes to precomputed
// alternates, which KAR's random deflection does not share.
func TestTableDoubleFailureDrops(t *testing.T) {
	net, _, edges := buildTableWorld(t)
	// At SW7 toward AS3, primary goes to SW13 and the precomputed
	// loop-free alternate is SW11. Break both.
	for _, pair := range [][2]string{{"SW7", "SW13"}, {"SW7", "SW11"}} {
		l, ok := net.Topology().LinkBetween(pair[0], pair[1])
		if !ok {
			t.Fatalf("no link %v", pair)
		}
		net.FailLink(l)
	}
	send, recv := startCBR(t, net, edges, 200)
	send.Start()
	net.Scheduler().RunUntil(2 * time.Second)
	st := recv.Stats(send)
	if st.Received != 0 {
		t.Fatalf("received %d packets through a double failure, want 0 (no third alternate)", st.Received)
	}
}

func TestBackupIsLoopFree(t *testing.T) {
	// Under any single link failure, delivery must never loop: packets
	// either arrive or are dropped within the TTL budget.
	net, _, edges := buildTableWorld(t)
	for _, l := range net.Topology().Links() {
		if l.A().Kind() != topology.KindCore || l.B().Kind() != topology.KindCore {
			continue
		}
		net.AcquireLinkDown(l)
		send, recv := startCBR(t, net, edges, 20)
		send.Start()
		net.Scheduler().RunUntil(10 * time.Second)
		st := recv.Stats(send)
		if st.MaxHops > 12 {
			t.Errorf("failure %s: max hops %d suggests a forwarding loop", l.Name(), st.MaxHops)
		}
		net.ReleaseLinkDown(l)
	}
}
