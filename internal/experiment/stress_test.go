package experiment

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/udpsim"
)

// TestFlappingLinkAccounting injects CBR probes through Net15 while
// the primary link flaps rapidly, and checks conservation: every sent
// packet is either delivered or appears in the drop log — nothing
// vanishes, nothing is duplicated, and the event queue drains.
func TestFlappingLinkAccounting(t *testing.T) {
	g, err := topology.Net15()
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(g, mustPolicy("nip"), 31)
	if _, err := w.InstallRoute("AS1", "AS3", topology.Net15FullProtection); err != nil {
		t.Fatal(err)
	}
	link, _ := g.LinkBetween("SW7", "SW13")
	// Flap: 50 ms down, 50 ms up, 20 times.
	for i := 0; i < 20; i++ {
		w.Net.ScheduleFailure(link, time.Duration(i)*100*time.Millisecond, 50*time.Millisecond)
	}

	flow := packet.FlowID{Src: "AS1", Dst: "AS3"}
	send, recv := udpsim.NewFlow(w.Net, w.Edges["AS1"], w.Edges["AS3"], flow, udpsim.Config{
		Interval: time.Millisecond, Count: 2500,
	})
	send.Start()
	w.Run(time.Minute)

	st := recv.Stats(send)
	if st.DupSeqs != 0 {
		t.Errorf("duplicated packets: %d", st.DupSeqs)
	}
	drops := int(w.Net.Metrics().SumCounter("kar_net_drops_total"))
	if st.Received+drops < st.Sent {
		t.Errorf("conservation violated: sent %d, delivered %d + dropped %d", st.Sent, st.Received, drops)
	}
	// NIP with full protection across a flapping link: losses happen
	// only for packets in flight at down-transitions.
	if lost := st.Sent - st.Received; lost > 100 {
		t.Errorf("lost %d of %d; deflection should bound flap losses to in-flight packets", lost, st.Sent)
	}
	if pending := w.Net.Pending(); pending != 0 {
		t.Errorf("%d events still pending after drain", pending)
	}
}

// TestTripleFailureLiveness: with three simultaneous failures (beyond
// anything precomputed protection anticipates), NIP keeps a
// substantial share of traffic alive — but NOT all of it: this
// particular failure set creates a deterministic 3-cycle
// (SW13→SW11→SW19→SW13: every hop's modulo or sole candidate feeds the
// next) that only the TTL terminates. That residual loss is a genuine
// KAR property under multi-failure, so the test asserts partial
// delivery plus clean TTL-bounded termination rather than perfection.
func TestTripleFailureLiveness(t *testing.T) {
	g, err := topology.Net15()
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(g, mustPolicy("nip"), 33)
	if _, err := w.InstallRoute("AS1", "AS3", topology.Net15FullProtection); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{{"SW7", "SW13"}, {"SW13", "SW29"}, {"SW19", "SW27"}} {
		l, ok := g.LinkBetween(pair[0], pair[1])
		if !ok {
			t.Fatalf("missing link %v", pair)
		}
		w.Net.FailLink(l)
	}
	flow := packet.FlowID{Src: "AS1", Dst: "AS3"}
	send, recv := udpsim.NewFlow(w.Net, w.Edges["AS1"], w.Edges["AS3"], flow, udpsim.Config{
		Interval: 2 * time.Millisecond, Count: 500,
	})
	send.Start()
	w.Run(time.Minute)
	st := recv.Stats(send)
	if ratio := st.DeliveryRatio(); ratio < 0.3 {
		t.Errorf("delivery ratio %.3f under triple failure, want > 0.3 (the non-trapped share)", ratio)
	}
	if ratio := st.DeliveryRatio(); ratio > 0.9 {
		t.Errorf("delivery ratio %.3f; expected the deterministic 13-11-19 cycle to trap a sizeable share", ratio)
	}
	if pending := w.Net.Pending(); pending != 0 {
		t.Errorf("%d events pending; trapped packets must die by TTL", pending)
	}
}

// TestPartitionedDestination: failures that disconnect the
// destination must not wedge the simulation — packets die by TTL or
// policy drop and the world drains.
func TestPartitionedDestination(t *testing.T) {
	g, err := topology.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(g, mustPolicy("nip"), 35)
	if _, err := w.InstallRoute("S", "D", nil); err != nil {
		t.Fatal(err)
	}
	// Cut both links into SW11: D is unreachable.
	for _, pair := range [][2]string{{"SW7", "SW11"}, {"SW5", "SW11"}} {
		l, _ := g.LinkBetween(pair[0], pair[1])
		w.Net.FailLink(l)
	}
	flow := packet.FlowID{Src: "S", Dst: "D"}
	send, recv := udpsim.NewFlow(w.Net, w.Edges["S"], w.Edges["D"], flow, udpsim.Config{
		Interval: time.Millisecond, Count: 100,
	})
	send.Start()
	w.Run(time.Minute)
	if got := recv.Stats(send).Received; got != 0 {
		t.Errorf("delivered %d packets to a partitioned destination", got)
	}
	if pending := w.Net.Pending(); pending != 0 {
		t.Errorf("%d events pending; partitioned traffic must terminate", pending)
	}
}
