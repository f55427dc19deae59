package analysis

import (
	"slices"
	"testing"

	"repro/internal/controller"
	"repro/internal/packet"
	"repro/internal/topology"
)

// allPairsCtrl installs every ordered edge pair of topo by shortest
// path under auto protection.
func allPairsCtrl(t *testing.T, topo string) (*topology.Graph, *controller.Controller, [][2]string) {
	t.Helper()
	g, err := topology.ByName(topo)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := controller.New(g, controller.WithAutoProtection())
	var routes [][2]string
	for _, a := range g.EdgeNodes() {
		for _, b := range g.EdgeNodes() {
			if a == b {
				continue
			}
			if _, err := ctrl.InstallRoute(a.Name(), b.Name(), nil); err != nil {
				t.Fatal(err)
			}
			routes = append(routes, [2]string{a.Name(), b.Name()})
		}
	}
	return g, ctrl, routes
}

// followMatchesChain: for every route of Net15, RNP28 and fattree:4
// under auto protection and every failure set of one or two links, the
// trajectory Analyze follows for a policy that never draws agrees with
// the same chain solved — PDeliver, ExpectedHops and the links read —
// and its PDeliver is DeliverWithin's at the simulator's TTL. A
// mismatch means following (TTL, re-encode, loop) drifted from the
// analytical model.
func followMatchesChain(t *testing.T, policy string) {
	var cases, deflected int
	for _, topo := range []string{"net15", "rnp28", "fattree:4"} {
		g, ctrl, routes := allPairsCtrl(t, topo)
		a, err := New(ctrl, policy, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.shape.Random() {
			t.Fatalf("%s draws: Analyze would not follow", policy)
		}
		links := g.Links()
		var sets [][]*topology.Link
		for i, l := range links {
			sets = append(sets, []*topology.Link{l})
			for _, m := range links[i+1:] {
				sets = append(sets, []*topology.Link{l, m})
			}
		}
		for _, rt := range routes {
			for _, set := range sets {
				a.SetFailed(set)
				got, err := a.Analyze(rt[0], rt[1])
				if err != nil {
					t.Fatalf("%s %s->%s failed=%v: %v", topo, rt[0], rt[1], set, err)
				}
				consulted := slices.Clone(a.Consulted())
				c, start, _, err := a.buildChain(rt[0], rt[1])
				if err != nil {
					t.Fatal(err)
				}
				pDel, hops, err := c.absorb(start)
				if err != nil {
					t.Fatalf("%s %s->%s failed=%v: chain: %v", topo, rt[0], rt[1], set, err)
				}
				if got.PDeliver != pDel || got.ExpectedHops != hops {
					t.Errorf("%s %s->%s failed=%v: follow %v in %v hops, chain %v in %v",
						topo, rt[0], rt[1], set, got.PDeliver, got.ExpectedHops, pDel, hops)
				}
				if !slices.Equal(consulted, a.Consulted()) {
					t.Errorf("%s %s->%s failed=%v: follow and chain consulted different links", topo, rt[0], rt[1], set)
				}
				within, err := a.DeliverWithin(rt[0], rt[1], packet.DefaultTTL)
				if err != nil {
					t.Fatal(err)
				}
				if got.PDeliver != within {
					t.Errorf("%s %s->%s failed=%v: follow PDeliver=%v, DeliverWithin=%v",
						topo, rt[0], rt[1], set, got.PDeliver, within)
				}
				cases++
				if got.PDeliver == 0 || got.ExpectedHops > float64(got.BaselineHops) {
					deflected++
				}
			}
		}
	}
	if deflected == 0 {
		t.Fatalf("%d cases, no failure touched a route: the test compares nothing", cases)
	}
	t.Logf("%d cases, %d lost or stretched by the failure", cases, deflected)
}

func TestFollowNoneMatchesChain(t *testing.T)  { followMatchesChain(t, "none") }
func TestFollowDtreeMatchesChain(t *testing.T) { followMatchesChain(t, "dtree") }
