package core

import (
	"errors"
	"testing"

	"repro/internal/topology"
)

func fig1Graph(t *testing.T) *topology.Graph {
	t.Helper()
	g, err := topology.Fig1()
	if err != nil {
		t.Fatalf("Fig1: %v", err)
	}
	return g
}

func fig1Path(t *testing.T, g *topology.Graph) topology.Path {
	t.Helper()
	p, err := topology.ShortestPath(g, "S", "D", nil)
	if err != nil {
		t.Fatalf("ShortestPath: %v", err)
	}
	return p
}

// TestFig1PrimaryRoute reproduces the end-to-end §2.2 example through
// the topology layer: the shortest path S-SW4-SW7-SW11-D encodes to
// R = 44.
func TestFig1PrimaryRoute(t *testing.T) {
	g := fig1Graph(t)
	p := fig1Path(t, g)
	if p.String() != "S-SW4-SW7-SW11-D" {
		t.Fatalf("path = %s, want S-SW4-SW7-SW11-D", p)
	}
	r, err := EncodeRoute(p, nil)
	if err != nil {
		t.Fatalf("EncodeRoute: %v", err)
	}
	if v, _ := r.ID.Uint64(); v != 44 {
		t.Errorf("route ID = %v, want 44", r.ID)
	}
	if got := r.SwitchCount(); got != 3 {
		t.Errorf("switch count = %d, want 3", got)
	}
	// Forwarding walk: every hop's modulo must point at the next node.
	for _, h := range r.Primary {
		if got := Forward(r.ID, h.Switch.ID()); got != h.Port {
			t.Errorf("Forward at %s = %d, want %d", h.Switch, got, h.Port)
		}
	}
}

// TestFig1ProtectedRoute reproduces Fig. 1(b): adding the SW5→SW11
// driven-deflection hop yields R = 660.
func TestFig1ProtectedRoute(t *testing.T) {
	g := fig1Graph(t)
	p := fig1Path(t, g)
	prot, err := HopsFromPairs(g, [][2]string{{"SW5", "SW11"}})
	if err != nil {
		t.Fatalf("HopsFromPairs: %v", err)
	}
	r, err := EncodeRoute(p, prot)
	if err != nil {
		t.Fatalf("EncodeRoute: %v", err)
	}
	if v, _ := r.ID.Uint64(); v != 660 {
		t.Errorf("route ID = %v, want 660", r.ID)
	}
	if next, ok := r.NextFrom("SW5"); !ok || next.Name() != "SW11" {
		t.Errorf("NextFrom(SW5) = %v, want SW11", next)
	}
	if _, ok := r.NextFrom("SW99"); ok {
		t.Error("NextFrom(SW99) found a hop on a switch that is not encoded")
	}
}

// TestTable1 reproduces the paper's Table 1 exactly: bit length and
// switch count for the three protection mechanisms on the 15-node
// network.
func TestTable1(t *testing.T) {
	g, err := topology.Net15()
	if err != nil {
		t.Fatalf("Net15: %v", err)
	}
	p, err := topology.ShortestPath(g, "AS1", "AS3", nil)
	if err != nil {
		t.Fatalf("ShortestPath: %v", err)
	}
	tests := []struct {
		name      string
		pairs     [][2]string
		wantBits  int
		wantCount int
	}{
		{name: "unprotected", pairs: nil, wantBits: 15, wantCount: 4},
		{name: "partial protection", pairs: topology.Net15PartialProtection, wantBits: 28, wantCount: 7},
		{name: "full protection", pairs: topology.Net15FullProtection, wantBits: 43, wantCount: 10},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			prot, err := HopsFromPairs(g, tt.pairs)
			if err != nil {
				t.Fatalf("HopsFromPairs: %v", err)
			}
			r, err := EncodeRoute(p, prot)
			if err != nil {
				t.Fatalf("EncodeRoute: %v", err)
			}
			if got := r.BitLength(); got != tt.wantBits {
				t.Errorf("bit length = %d, want %d", got, tt.wantBits)
			}
			if got := r.SwitchCount(); got != tt.wantCount {
				t.Errorf("switch count = %d, want %d", got, tt.wantCount)
			}
		})
	}
}

func TestEncodeRouteValidation(t *testing.T) {
	g := fig1Graph(t)
	p := fig1Path(t, g)

	t.Run("path too short", func(t *testing.T) {
		short := topology.Path{Nodes: p.Nodes[:2]}
		if _, err := EncodeRoute(short, nil); !errors.Is(err, ErrPathTooShort) {
			t.Errorf("error = %v, want ErrPathTooShort", err)
		}
	})
	t.Run("core endpoints rejected", func(t *testing.T) {
		coresOnly := topology.Path{Nodes: p.Nodes[1:4]} // SW4-SW7-SW11
		if _, err := EncodeRoute(coresOnly, nil); !errors.Is(err, ErrPathEndpoints) {
			t.Errorf("error = %v, want ErrPathEndpoints", err)
		}
	})
	t.Run("protection duplicating a route switch", func(t *testing.T) {
		dup, err := HopsFromPairs(g, [][2]string{{"SW7", "SW5"}})
		if err != nil {
			t.Fatalf("HopsFromPairs: %v", err)
		}
		if _, err := EncodeRoute(p, dup); !errors.Is(err, ErrProtectionOverlap) {
			t.Errorf("error = %v, want ErrProtectionOverlap", err)
		}
	})
	t.Run("duplicate protection switch", func(t *testing.T) {
		prot, err := HopsFromPairs(g, [][2]string{{"SW5", "SW11"}, {"SW5", "SW7"}})
		if err != nil {
			t.Fatalf("HopsFromPairs: %v", err)
		}
		if _, err := EncodeRoute(p, prot); !errors.Is(err, ErrProtectionOverlap) {
			t.Errorf("error = %v, want ErrProtectionOverlap", err)
		}
	})
	t.Run("non-adjacent hop", func(t *testing.T) {
		if _, err := HopToward(g, "SW4", "SW11"); !errors.Is(err, ErrNotAdjacent) {
			t.Errorf("error = %v, want ErrNotAdjacent", err)
		}
	})
}

// TestNonAdjacentPath rejects a fabricated path whose consecutive
// nodes share no link.
func TestNonAdjacentPath(t *testing.T) {
	g := fig1Graph(t)
	s, _ := g.Node("S")
	sw4, _ := g.Node("SW4")
	sw11, _ := g.Node("SW11") // SW4 and SW11 are not adjacent
	d, _ := g.Node("D")
	bad := topology.Path{Nodes: []*topology.Node{s, sw4, sw11, d}}
	if _, err := EncodeRoute(bad, nil); !errors.Is(err, ErrNotAdjacent) {
		t.Errorf("error = %v, want ErrNotAdjacent", err)
	}
}

// TestRouteDrivesDeflectedPackets verifies the driven-deflection
// property behaviourally: with SW5 encoded, a packet deflected to SW5
// is forwarded straight to SW11 (the paper's 100% vs 50% contrast).
func TestRouteDrivesDeflectedPackets(t *testing.T) {
	g := fig1Graph(t)
	p := fig1Path(t, g)
	prot, err := HopsFromPairs(g, [][2]string{{"SW5", "SW11"}})
	if err != nil {
		t.Fatalf("HopsFromPairs: %v", err)
	}
	r, err := EncodeRoute(p, prot)
	if err != nil {
		t.Fatalf("EncodeRoute: %v", err)
	}
	sw5, _ := g.Node("SW5")
	port := Forward(r.ID, sw5.ID())
	next, ok := sw5.Neighbor(port)
	if !ok || next.Name() != "SW11" {
		t.Errorf("deflected packet at SW5 forwarded to %v (port %d), want SW11", next, port)
	}
}

func TestPlanProtectionUnlimited(t *testing.T) {
	g, err := topology.Net15()
	if err != nil {
		t.Fatalf("Net15: %v", err)
	}
	p, err := topology.ShortestPath(g, "AS1", "AS3", nil)
	if err != nil {
		t.Fatalf("ShortestPath: %v", err)
	}
	hops, err := PlanProtection(g, p, PlanOptions{})
	if err != nil {
		t.Fatalf("PlanProtection: %v", err)
	}
	// Complete protection: all 8 off-route core switches get a residue.
	if len(hops) != 8 {
		t.Errorf("planned %d protection hops, want 8 (all off-route cores)", len(hops))
	}
	// The combined route must encode and stay loop-free toward SW29:
	// following hop ports from any protected switch reaches SW29.
	r, err := EncodeRoute(p, hops)
	if err != nil {
		t.Fatalf("EncodeRoute: %v", err)
	}
	for _, h := range hops {
		cur := h.Switch
		for steps := 0; cur.Name() != "SW29"; steps++ {
			if steps > 20 {
				t.Fatalf("protection from %s does not reach SW29", h.Switch)
			}
			next, ok := r.NextFrom(cur.Name())
			if !ok {
				t.Fatalf("walk from %s stranded at %s (no residue)", h.Switch, cur)
			}
			cur = next
		}
	}
}

func TestPlanProtectionBudget(t *testing.T) {
	g, err := topology.Net15()
	if err != nil {
		t.Fatalf("Net15: %v", err)
	}
	p, err := topology.ShortestPath(g, "AS1", "AS3", nil)
	if err != nil {
		t.Fatalf("ShortestPath: %v", err)
	}

	t.Run("budget below route size", func(t *testing.T) {
		if _, err := PlanProtection(g, p, PlanOptions{MaxBits: 14}); !errors.Is(err, ErrBudgetTooSmall) {
			t.Errorf("error = %v, want ErrBudgetTooSmall", err)
		}
	})
	t.Run("budget exactly route size plans nothing big", func(t *testing.T) {
		hops, err := PlanProtection(g, p, PlanOptions{MaxBits: 15})
		if err != nil {
			t.Fatalf("PlanProtection: %v", err)
		}
		if len(hops) != 0 {
			t.Errorf("planned %d hops under a 15-bit budget, want 0", len(hops))
		}
	})
	t.Run("budgets are monotone", func(t *testing.T) {
		prev := -1
		for _, budget := range []int{15, 20, 28, 36, 43, 64} {
			hops, err := PlanProtection(g, p, PlanOptions{MaxBits: budget})
			if err != nil {
				t.Fatalf("PlanProtection(%d bits): %v", budget, err)
			}
			r, err := EncodeRoute(p, hops)
			if err != nil {
				t.Fatalf("EncodeRoute: %v", err)
			}
			if r.BitLength() > budget {
				t.Errorf("budget %d produced a %d-bit route ID", budget, r.BitLength())
			}
			if len(hops) < prev {
				t.Errorf("budget %d planned fewer hops (%d) than a smaller budget (%d)", budget, len(hops), prev)
			}
			prev = len(hops)
		}
	})
}

func TestPlanProtectionPrefersRouteNeighbours(t *testing.T) {
	g, err := topology.Net15()
	if err != nil {
		t.Fatalf("Net15: %v", err)
	}
	p, err := topology.ShortestPath(g, "AS1", "AS3", nil)
	if err != nil {
		t.Fatalf("ShortestPath: %v", err)
	}
	hops, err := PlanProtection(g, p, PlanOptions{})
	if err != nil {
		t.Fatalf("PlanProtection: %v", err)
	}
	// SW47 is the only core two hops from the route; it must rank last.
	if got := hops[len(hops)-1].Switch.Name(); got != "SW47" {
		t.Errorf("last planned hop = %s, want SW47 (ranked by deflection distance)", got)
	}
	for _, h := range hops[:len(hops)-1] {
		if h.Switch.Name() == "SW47" {
			t.Error("SW47 planned before direct route neighbours")
		}
	}
}

// TestEncoderMatchesEncodeRoute: the Encoder shim is EncodeRoute.
func TestEncoderMatchesEncodeRoute(t *testing.T) {
	p := fig1Path(t, fig1Graph(t))
	want, err := EncodeRoute(p, nil)
	if err != nil {
		t.Fatalf("EncodeRoute: %v", err)
	}
	got, err := NewEncoder().EncodeRoute(p, nil)
	if err != nil {
		t.Fatalf("Encoder.EncodeRoute: %v", err)
	}
	if !got.ID.Equal(want.ID) || got.String() != want.String() {
		t.Errorf("Encoder.EncodeRoute = %v, EncodeRoute = %v", got, want)
	}
}
