package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/topology"
)

// TestEncodedRouteWalksProperty: on randomly generated topologies, for
// random edge pairs, the encoded route ID must walk the exact path —
// starting at the ingress, repeatedly applying Forward must visit
// every path node in order and reach the egress edge. This is the
// core soundness property of the RNS encoding.
func TestEncodedRouteWalksProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 60; trial++ {
		spec := fmt.Sprintf("rand:%d:%d:2:%d", 4+rng.Intn(30), rng.Intn(30), rng.Int63())
		g, err := topology.FromSpec(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		edges := g.EdgeNodes()
		path, err := topology.ShortestPath(g, edges[0].Name(), edges[1].Name(), nil)
		if err != nil {
			t.Fatalf("ShortestPath: %v", err)
		}
		route, err := EncodeRoute(path, nil)
		if err != nil {
			t.Fatalf("EncodeRoute(%s): %v", path, err)
		}
		walkRoute(t, route, path)
	}
}

// TestEncodedRouteWithPlannedProtectionProperty: adding planner
// protection never corrupts the primary walk, and every protected
// switch's residue points at an existing healthy link.
func TestEncodedRouteWithPlannedProtectionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		spec := fmt.Sprintf("rand:%d:%d:2:%d", 5+rng.Intn(25), 2+rng.Intn(25), rng.Int63())
		g, err := topology.FromSpec(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		edges := g.EdgeNodes()
		path, err := topology.ShortestPath(g, edges[0].Name(), edges[1].Name(), nil)
		if err != nil {
			t.Fatalf("ShortestPath: %v", err)
		}
		budget := 32 + rng.Intn(96)
		hops, err := PlanProtection(g, path, PlanOptions{MaxBits: budget})
		if err != nil {
			t.Fatalf("PlanProtection: %v", err)
		}
		route, err := EncodeRoute(path, hops)
		if err != nil {
			// A planner result must always encode.
			t.Fatalf("EncodeRoute with planned protection: %v", err)
		}
		if route.BitLength() > budget {
			t.Fatalf("bit length %d exceeds budget %d", route.BitLength(), budget)
		}
		walkRoute(t, route, path)
		for _, h := range route.Protection {
			port := Forward(route.ID, h.Switch.ID())
			if port != h.Port {
				t.Fatalf("protected switch %s: residue %d != planned port %d", h.Switch, port, h.Port)
			}
			if _, ok := h.Switch.Neighbor(port); !ok {
				t.Fatalf("protected switch %s: residue %d points at no link", h.Switch, port)
			}
		}
		// Driven walks are loop-free: following encoded residues from
		// any protected switch either reaches the destination core or
		// exits the encoded set (partial protection, §2.3) — but never
		// revisits an encoded switch.
		dst := route.Primary[len(route.Primary)-1].Switch
		for _, h := range route.Protection {
			visited := map[string]bool{}
			cur := h.Switch
			for cur != dst {
				if visited[cur.Name()] {
					t.Fatalf("protection walk from %s loops at %s", h.Switch, cur)
				}
				visited[cur.Name()] = true
				next, ok := route.NextFrom(cur.Name())
				if !ok {
					break // left the encoded set: allowed under a budget
				}
				cur = next
			}
		}
	}
}

// walkRoute follows Forward() hop by hop along the expected path.
func walkRoute(t *testing.T, route *Route, path topology.Path) {
	t.Helper()
	nodes := path.Nodes
	for i := 1; i+1 < len(nodes); i++ {
		sw := nodes[i]
		port := Forward(route.ID, sw.ID())
		next, ok := sw.Neighbor(port)
		if !ok {
			t.Fatalf("walk: %s residue %d has no link (path %s)", sw, port, path)
		}
		if next != nodes[i+1] {
			t.Fatalf("walk: at %s expected next %s, residue sends to %s", sw, nodes[i+1], next)
		}
	}
}
