package kswitch

import (
	"testing"
	"time"

	"repro/internal/deflect"
	"repro/internal/packet"
	"repro/internal/rns"
)

// Regression for forced bit-63 corruption: a route ID with its top
// bit flipped on is the worst case the old unclamped gray corruption
// could produce (an 8-byte ID whose residues are garbage at every
// switch). The pooled header-marshal path must round-trip it and the
// switches must terminate the walk — deflect, re-encode or drop —
// without panicking, under every policy.
func TestForcedBit63CorruptedRouteID(t *testing.T) {
	for _, policy := range deflect.All() {
		t.Run(policy.Name(), func(t *testing.T) {
			w := newWorld(t, policy, false)
			route, ok := w.ctrl.Route("S", "D")
			if !ok {
				t.Fatal("no installed S->D route")
			}
			u, ok := route.ID.Uint64()
			if !ok {
				t.Fatal("Fig1 route ID not uint64-representable")
			}
			corrupted := rns.RouteIDFromUint64(u | 1<<63)

			// The 8-byte ID must round-trip through the wire format
			// with no truncation.
			h := packet.Header{Version: packet.Version1, TTL: packet.DefaultTTL, RouteID: corrupted}
			b, err := h.Marshal(nil)
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			var back packet.Header
			if _, err := back.Unmarshal(b); err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			if got, _ := back.RouteID.Uint64(); got != u|1<<63 {
				t.Fatalf("round-trip %x, want %x", got, u|1<<63)
			}

			// Data plane: hand the corrupted packet to the first core
			// switch as if it had just crossed the ingress link.
			sw, ok := w.net.Topology().Node("SW4")
			if !ok {
				t.Fatal("no SW4 in Fig1")
			}
			inPort, ok := sw.PortToward("S")
			if !ok {
				t.Fatal("SW4 has no port toward S")
			}
			p := &packet.Packet{
				Flow:    packet.FlowID{Src: "S", Dst: "D"},
				Kind:    packet.KindData,
				Size:    1500,
				TTL:     packet.DefaultTTL,
				RouteID: corrupted,
			}
			dropsBefore := w.net.Metrics().SumCounter("kar_net_drops_total")
			w.switches["SW4"].HandlePacket(p, inPort)
			w.run(time.Second)

			// The walk must have terminated: delivered at an edge (a
			// wrong-edge landing re-encodes toward D) or dropped.
			terminated := int64(len(w.received)) + (w.net.Metrics().SumCounter("kar_net_drops_total") - dropsBefore)
			if terminated < 1 {
				t.Errorf("corrupted packet neither delivered nor dropped (received=%d drops=%d)",
					len(w.received), w.net.Metrics().SumCounter("kar_net_drops_total")-dropsBefore)
			}
		})
	}
}
