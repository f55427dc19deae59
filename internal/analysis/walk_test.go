package analysis

import (
	"slices"
	"testing"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/topology"
)

// allPairsCtrl installs every ordered edge pair of Net15 by shortest
// path: under auto protection, or under the partial pair set with the
// hops on a route's own path filtered out, as a sweep installs them.
func allPairsCtrl(t *testing.T, auto bool) (*topology.Graph, *controller.Controller, [][2]string) {
	t.Helper()
	g, err := topology.Net15()
	if err != nil {
		t.Fatal(err)
	}
	var opts []controller.Option
	var hops []core.Hop
	if auto {
		opts = append(opts, controller.WithAutoProtection(core.PlanOptions{}))
	} else if hops, err = core.HopsFromPairs(g, topology.Net15PartialProtection); err != nil {
		t.Fatal(err)
	}
	ctrl := controller.New(g, opts...)
	var routes [][2]string
	for _, a := range g.EdgeNodes() {
		for _, b := range g.EdgeNodes() {
			if a == b {
				continue
			}
			path, err := topology.ShortestPath(g, a.Name(), b.Name(), nil)
			if err != nil {
				t.Fatal(err)
			}
			onPath := map[*topology.Node]bool{}
			for _, n := range path.Nodes {
				onPath[n] = true
			}
			var filtered []core.Hop
			for _, h := range hops {
				if !onPath[h.Switch] {
					filtered = append(filtered, h)
				}
			}
			if _, err := ctrl.InstallRoute(a.Name(), b.Name(), filtered); err != nil {
				t.Fatal(err)
			}
			routes = append(routes, [2]string{a.Name(), b.Name()})
		}
	}
	return g, ctrl, routes
}

// walkMatchesChain: for every route and single failure, the walk
// Analyze takes for a policy that never draws agrees with the chain
// solved for the same policy and reads the same links — a mismatch
// means the walk's semantics (TTL, re-encode, cycle guard) drifted from
// the analytical model.
func walkMatchesChain(t *testing.T, policy string, auto bool) {
	g, ctrl, routes := allPairsCtrl(t, auto)
	a, err := New(ctrl, policy, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.shape.Random() {
		t.Fatalf("%s draws: Analyze would not walk", policy)
	}
	var cases, deflected int
	for _, rt := range routes {
		for _, l := range g.Links() {
			a.SetFailed([]*topology.Link{l})
			walk, err := a.Analyze(rt[0], rt[1])
			if err != nil {
				t.Fatalf("%s->%s fail=%s: walk: %v", rt[0], rt[1], l.Name(), err)
			}
			consulted := slices.Clone(a.Consulted())
			chain, err := a.solveChain(rt[0], rt[1])
			if err != nil {
				t.Fatalf("%s->%s fail=%s: chain: %v", rt[0], rt[1], l.Name(), err)
			}
			if walk.PDeliver != chain.PDeliver {
				t.Errorf("%s->%s fail=%s: walk PDeliver=%v, chain=%v",
					rt[0], rt[1], l.Name(), walk.PDeliver, chain.PDeliver)
			}
			if !slices.Equal(consulted, a.Consulted()) {
				t.Errorf("%s->%s fail=%s: walk and chain consulted different links", rt[0], rt[1], l.Name())
			}
			if walk.PDeliver == 1 && walk.ExpectedHops != chain.ExpectedHops {
				t.Errorf("%s->%s fail=%s: walk hops=%v, chain=%v",
					rt[0], rt[1], l.Name(), walk.ExpectedHops, chain.ExpectedHops)
			}
			cases++
			if walk.PDeliver == 0 || walk.ExpectedHops > float64(walk.BaselineHops) {
				deflected++
			}
		}
	}
	if deflected == 0 {
		t.Fatalf("%d cases, no failure touched a route: the test compares nothing", cases)
	}
	t.Logf("%d cases, %d lost or stretched by the failure", cases, deflected)
}

func TestWalkNoneMatchesChain(t *testing.T)  { walkMatchesChain(t, "none", false) }
func TestWalkDtreeMatchesChain(t *testing.T) { walkMatchesChain(t, "dtree", true) }
