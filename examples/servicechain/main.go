// Servicechain demonstrates the paper's future-work direction
// ("investigate the application of KAR in the service chaining of
// virtualized network functions"): because a KAR route ID encodes an
// arbitrary residue per switch, the controller can steer a flow
// through an ordered chain of middlebox-hosting switches with zero
// state in the core — the chain is just a different set of residues.
//
// We run two flows across the RNP backbone: one on the shortest path
// and one forced through a two-function chain (firewall at SW17, DPI
// at SW61), then verify from the flight recorder that every chained
// packet visited the functions in order — and that driven-deflection
// protection still composes with chaining when a link fails.
//
// Run with: go run ./examples/servicechain
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/deflect"
	"repro/internal/experiment"
	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/udpsim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "servicechain:", err)
		os.Exit(1)
	}
}

// chainPath threads the measured route through SW17 (firewall) and
// SW61 (DPI), in that order.
var chainPath = []string{"EDGE-N", "SW7", "SW13", "SW17", "SW41", "SW61", "SW67", "SW71", "SW73", "EDGE-SP"}

func run() error {
	g, err := topology.RNP28()
	if err != nil {
		return err
	}
	policy, _ := deflect.ByName("nip")
	w := experiment.NewWorld(g, policy, 21)

	// The chained route, with protection for the tail segment.
	route, err := w.InstallRouteOnPath(chainPath, [][2]string{{"SW107", "SW73"}})
	if err != nil {
		return err
	}
	fmt.Printf("service chain: firewall@SW17 → dpi@SW61\n")
	fmt.Printf("installed: %s\n", route)
	fmt.Printf("header cost: %d bits (%d switches encoded)\n\n", route.BitLength(), route.SwitchCount())

	flow := packet.FlowID{Src: "EDGE-N", Dst: "EDGE-SP"}
	rec := trace.NewRecorder(w.Net, trace.Config{Rate: 1})
	send, recv := udpsim.NewFlow(w.Net, w.Edges["EDGE-N"], w.Edges["EDGE-SP"], flow, udpsim.Config{
		Interval: time.Millisecond, Count: 200,
	})
	send.Start()
	w.Run(5 * time.Second)

	if err := verifyChainOrder(trace.Journeys(rec.Records()), 200); err != nil {
		return err
	}
	st := recv.Stats(send)
	fmt.Printf("healthy chain: %d/%d delivered, %d hops each (shortest path would be 5)\n",
		st.Received, st.Sent, st.MaxHops)

	// Now fail a chain link: deflection + protection keep the flow
	// alive even mid-chain.
	fmt.Println("\nfailing link SW67-SW71 inside the chain...")
	l, ok := g.LinkBetween("SW67", "SW71")
	if !ok {
		return fmt.Errorf("missing link SW67-SW71")
	}
	w.Net.FailLink(l)
	send2, recv2 := udpsim.NewFlow(w.Net, w.Edges["EDGE-N"], w.Edges["EDGE-SP"],
		packet.FlowID{Src: "EDGE-N", Dst: "EDGE-SP", ID: 2}, udpsim.Config{
			Interval: time.Millisecond, Count: 200,
		})
	send2.Start()
	w.Run(15 * time.Second)
	st2 := recv2.Stats(send2)
	fmt.Printf("with failure:  %d/%d delivered, mean %.1f hops (deflected around SW67-SW71)\n",
		st2.Received, st2.Sent, st2.MeanHops())
	if st2.Received < st2.Sent*95/100 {
		return fmt.Errorf("chain lost too many packets: %d/%d", st2.Received, st2.Sent)
	}
	fmt.Println("\nthe chain needed no core state: both functions are ordinary residues in R.")
	return nil
}

// verifyChainOrder checks, per packet, that its journey's hop list
// visits SW17 before SW61 and that it was delivered at the egress.
func verifyChainOrder(journeys []trace.Journey, packets int) error {
	completed := 0
	for _, j := range journeys {
		fw, dpi := -1, -1
		for i, h := range j.Hops {
			switch {
			case h.Where == "SW17" && fw < 0:
				fw = i
			case h.Where == "SW61" && dpi < 0:
				dpi = i
			}
		}
		switch {
		case fw >= 0 && dpi >= 0 && dpi < fw:
			return fmt.Errorf("packet %d reached the DPI before the firewall", j.Seq)
		case j.Outcome != "delivered" || j.Where != "EDGE-SP":
			continue
		case fw < 0 || dpi < 0:
			return fmt.Errorf("packet %d delivered without full chain traversal", j.Seq)
		}
		completed++
	}
	fmt.Printf("chain order verified from the flight recorder: %d packets traversed firewall→dpi→egress\n", completed)
	if completed != packets {
		return fmt.Errorf("only %d/%d packets completed the chain", completed, packets)
	}
	return nil
}
