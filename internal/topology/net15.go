package topology

// Net15 builds the reconstructed 15-node network of the paper's Fig. 2
// (see DESIGN.md §4.2): 3 edge ASes and 12 core switches whose IDs are
// pairwise coprime. The primary experimental route is
// AS1–SW10–SW7–SW13–SW29–AS3; Table 1's encoding sizes follow from
// the ID sets
//
//	unprotected {10, 7, 13, 29}            → 15 bits
//	partial    + {11, 19, 27}              → 28 bits
//	full       + {17, 37, 47}              → 43 bits
//
// Wiring honours every narrative constraint of §3.1: a failure of
// SW10–SW7 deflects to {SW17, SW37, SW11} (2/3 of packets toward the
// 17/37 cluster that partial protection leaves uncovered — the
// paper's "still 2/3 of packets will be sent to switches SW17 or
// SW37"), SW7–SW13 deflects to {SW11, SW23}, and SW13–SW29 deflects
// to {SW19, SW11}, both partial-covered (the paper: "partial
// protection was enough to enclose the alternative paths").
//
// All links carry the defaults (200 Mb/s, 1 ms), matching the paper's
// homogeneous emulation.
func Net15() (*Graph, error) {
	g := New("net15")
	for _, e := range []string{"AS1", "AS2", "AS3"} {
		if _, err := g.AddEdge(e); err != nil {
			return nil, err
		}
	}
	for _, c := range []struct {
		name string
		id   uint64
	}{
		{"SW10", 10}, {"SW7", 7}, {"SW13", 13}, {"SW29", 29},
		{"SW11", 11}, {"SW19", 19}, {"SW27", 27},
		{"SW17", 17}, {"SW37", 37}, {"SW47", 47},
		{"SW23", 23}, {"SW31", 31},
	} {
		if _, err := g.AddCore(c.name, c.id); err != nil {
			return nil, err
		}
	}
	// Host-facing links carry a Linux-host-sized transmit queue
	// (txqueuelen ~1000), as the emulated Mininet hosts did; core
	// links keep the default switch queue.
	for _, l := range [][2]string{{"AS1", "SW10"}, {"AS2", "SW29"}, {"AS3", "SW29"}} {
		if _, err := g.Connect(l[0], l[1], WithQueuePackets(HostQueuePackets)); err != nil {
			return nil, err
		}
	}
	links := []struct{ a, b string }{
		// Primary route.
		{"SW10", "SW7"}, {"SW7", "SW13"}, {"SW13", "SW29"},
		// SW10's deflection alternatives.
		{"SW10", "SW17"}, {"SW10", "SW37"}, {"SW10", "SW11"},
		// Covered (partial-protection) corridor toward SW29.
		{"SW7", "SW11"}, {"SW11", "SW19"}, {"SW13", "SW19"},
		{"SW13", "SW11"}, {"SW19", "SW27"}, {"SW27", "SW29"},
		// The 17/37/47 cluster, uncovered under partial protection;
		// full protection drives it onward through SW47-SW27.
		{"SW17", "SW37"}, {"SW17", "SW47"}, {"SW37", "SW47"},
		{"SW47", "SW27"},
		// Bystander corridor via SW23/SW31.
		{"SW7", "SW23"}, {"SW23", "SW31"},
		{"SW27", "SW31"}, {"SW31", "SW29"},
	}
	for _, l := range links {
		if _, err := g.Connect(l.a, l.b); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Net15PartialProtection lists the driven-deflection forwarding hops
// added for partial protection: each entry is (switch → neighbour its
// encoded port points to). The partial set covers the corridor
// SW11→SW19→SW27→SW29 toward the destination switch.
var Net15PartialProtection = [][2]string{
	{"SW11", "SW19"}, {"SW19", "SW27"}, {"SW27", "SW29"},
}

// Net15FullProtection extends partial protection so that every
// deflection neighbourhood of the primary route is driven toward the
// destination: the 17/37/47 cluster funnels through SW47 into SW27's
// corridor (its shortest-path-tree ports toward SW29).
var Net15FullProtection = [][2]string{
	{"SW11", "SW19"}, {"SW19", "SW27"}, {"SW27", "SW29"},
	{"SW17", "SW47"}, {"SW37", "SW47"}, {"SW47", "SW27"},
}
