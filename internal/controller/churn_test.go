package controller

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// genController builds a random topology and a failure-reactive
// controller with a route installed between every ordered edge pair.
func genController(t testing.TB, spec string, opts ...Option) (*topology.Graph, *Controller) {
	t.Helper()
	g, err := topology.ByName(spec)
	if err != nil {
		t.Fatal(err)
	}
	c := New(g, append([]Option{WithFailureReaction()}, opts...)...)
	edges := g.EdgeNodes()
	for _, a := range edges {
		for _, b := range edges {
			if a == b {
				continue
			}
			if _, err := c.InstallRoute(a.Name(), b.Name(), nil); err != nil {
				t.Fatalf("InstallRoute(%s, %s): %v", a, b, err)
			}
		}
	}
	return g, c
}

// coreLinks returns the core–core links of g (failing an edge
// attachment would genuinely disconnect the edge node).
func coreLinks(g *topology.Graph) []*topology.Link {
	var out []*topology.Link
	for _, l := range g.Links() {
		if l.A().Kind() == topology.KindCore && l.B().Kind() == topology.KindCore {
			out = append(out, l)
		}
	}
	return out
}

// crossing counts the installed routes whose current path holds l: the
// routes a failure of l must recompute.
func crossing(c *Controller, l *topology.Link) int {
	n := 0
	for _, e := range c.entries {
		if slices.Contains(e.route.Path.Links(), l) {
			n++
		}
	}
	return n
}

// onBaseline reports whether e's current path is its baseline path.
func onBaseline(e *routeEntry) bool { return slices.Equal(e.route.Path.Nodes, e.baseline) }

// snapshot captures the route table as (path, route ID) per pair.
func snapshot(c *Controller) map[pair][2]string {
	out := make(map[pair][2]string, len(c.entries))
	for k, e := range c.entries {
		out[k] = [2]string{e.route.Path.String(), e.route.ID.String()}
	}
	return out
}

func diffSnapshots(t *testing.T, label string, want, got map[pair][2]string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: table size %d, want %d", label, len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("%s: pair %s->%s vanished", label, k.src, k.dst)
		}
		if g != w {
			t.Errorf("%s: %s->%s = (%s, %s), want (%s, %s)",
				label, k.src, k.dst, g[0], g[1], w[0], w[1])
		}
	}
}

// TestChurnMatchesFullReinstall is the incremental-rerouting
// correctness property: after every event of a random fail/repair
// sequence, a from-scratch recompute of every installed route
// (reinstallAll) must be a no-op — the incrementally maintained table
// already equals the full one. Afterwards, repairing everything must
// put every route back on its pre-failure baseline.
func TestChurnMatchesFullReinstall(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g, c := genController(t, fmt.Sprintf("rand:24:36:10:%d", seed))
		links := coreLinks(g)
		rng := rand.New(rand.NewSource(seed))

		var failedNow []*topology.Link
		for step := 0; step < 30; step++ {
			if len(failedNow) > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(len(failedNow))
				l := failedNow[i]
				failedNow = append(failedNow[:i], failedNow[i+1:]...)
				if err := c.NotifyRepair(l); err != nil {
					t.Fatalf("seed %d step %d: NotifyRepair(%s): %v", seed, step, l, err)
				}
			} else {
				l := links[rng.Intn(len(links))]
				if c.failed[l] {
					continue
				}
				failedNow = append(failedNow, l)
				if err := c.NotifyFailure(l); err != nil {
					t.Fatalf("seed %d step %d: NotifyFailure(%s): %v", seed, step, l, err)
				}
			}

			before := snapshot(c)
			if err := c.reinstallAll(); err != nil {
				t.Fatalf("seed %d step %d: reinstallAll: %v", seed, step, err)
			}
			diffSnapshots(t, "incremental table deviates from full reinstall", before, snapshot(c))
		}

		for _, l := range failedNow {
			if err := c.NotifyRepair(l); err != nil {
				t.Fatalf("seed %d: final NotifyRepair(%s): %v", seed, l, err)
			}
		}
		for k, e := range c.entries {
			if e.detoured {
				t.Errorf("seed %d: %s->%s still detoured after all repairs", seed, k.src, k.dst)
			}
			if !onBaseline(e) {
				t.Errorf("seed %d: %s->%s = %s, want baseline %s", seed, k.src, k.dst, e.route.Path, topology.Path{Nodes: e.baseline})
			}
		}
	}
}

// TestRerouteCountersRecomputedVsSkipped ties the incremental counters
// to their definition: a failure recomputes exactly the routes whose
// path holds the link, a repair exactly the detoured ones; everything
// else is a skip. The failure half runs for every core link of the
// Net15 all-pairs table, each on a fresh controller.
func TestRerouteCountersRecomputedVsSkipped(t *testing.T) {
	g := net15(t)
	crossed := 0 // links some route crosses: the loop must test something
	for _, link := range coreLinks(g) {
		reg := telemetry.NewRegistry()
		_, c := genController(t, "net15", WithTelemetry(reg, nil))
		// The fresh controller has its own graph: the same link by name.
		l, _ := c.g.LinkBetween(link.A().Name(), link.B().Name())
		want := crossing(c, l)
		if err := c.NotifyFailure(l); err != nil {
			t.Fatalf("NotifyFailure(%s): %v", l, err)
		}
		recomputed := reg.Counter("kar_ctrl_reroutes_recomputed_total").Value()
		skipped := reg.Counter("kar_ctrl_reroutes_skipped_total").Value()
		if recomputed != int64(want) || skipped != int64(c.Routes()-want) {
			t.Errorf("failure of %s: recomputed %d, skipped %d; want the %d of %d routes whose path holds it",
				l, recomputed, skipped, want, c.Routes())
		}
		if want > 0 {
			crossed++
		}
	}
	if crossed == 0 {
		t.Fatal("no core link is crossed by an all-pairs route")
	}

	reg := telemetry.NewRegistry()
	c := New(g, WithFailureReaction(), WithTelemetry(reg, nil))
	for _, p := range [][2]string{{"AS1", "AS3"}, {"AS3", "AS1"}, {"AS1", "AS2"}, {"AS2", "AS3"}} {
		if _, err := c.InstallRoute(p[0], p[1], nil); err != nil {
			t.Fatalf("InstallRoute(%v): %v", p, err)
		}
	}
	link, _ := g.LinkBetween("SW7", "SW13")
	crossed = crossing(c, link)
	if crossed == 0 || crossed == c.Routes() {
		t.Fatalf("test needs a link crossed by some but not all routes; %d of %d cross it", crossed, c.Routes())
	}

	if err := c.NotifyFailure(link); err != nil {
		t.Fatalf("NotifyFailure: %v", err)
	}
	recomputed := reg.Counter("kar_ctrl_reroutes_recomputed_total").Value()
	skipped := reg.Counter("kar_ctrl_reroutes_skipped_total").Value()
	if recomputed != int64(crossed) {
		t.Errorf("recomputed = %d, want the %d routes crossing %s", recomputed, crossed, link)
	}
	if skipped != int64(c.Routes()-crossed) {
		t.Errorf("skipped = %d, want %d", skipped, c.Routes()-crossed)
	}

	detoured := 0
	for _, e := range c.entries {
		if e.detoured {
			detoured++
		}
	}
	if err := c.NotifyRepair(link); err != nil {
		t.Fatalf("NotifyRepair: %v", err)
	}
	recomputed2 := reg.Counter("kar_ctrl_reroutes_recomputed_total").Value() - recomputed
	if recomputed2 != int64(detoured) {
		t.Errorf("repair recomputed %d routes, want the %d detoured ones", recomputed2, detoured)
	}
	for k, e := range c.entries {
		if !onBaseline(e) {
			t.Errorf("after repair, %s->%s = %s, want baseline %s", k.src, k.dst, e.route.Path, topology.Path{Nodes: e.baseline})
		}
	}
	if fails := reg.Counter("kar_ctrl_reroute_failures_total").Value(); fails != 0 {
		t.Errorf("reroute failures = %d, want 0", fails)
	}
}

// TestIncrementalRerouteSavings is the headline acceptance check: on a
// ≥64-switch topology with ≥500 installed routes, a single link
// failure recomputes at least 5× fewer routes than the pre-change full
// reinstall would (which recomputed every route).
func TestIncrementalRerouteSavings(t *testing.T) {
	reg := telemetry.NewRegistry()
	g, c := genController(t, "rand:64:128:24:7",
		WithTelemetry(reg, nil))
	if c.Routes() < 500 {
		t.Fatalf("installed %d routes, want >= 500", c.Routes())
	}

	// Fail the median-occupancy crossed link: a representative failure,
	// neither a pathological hot spine link nor a conveniently idle one.
	type occ struct {
		l *topology.Link
		n int
	}
	var occs []occ
	for _, l := range coreLinks(g) {
		if n := crossing(c, l); n > 0 {
			occs = append(occs, occ{l, n})
		}
	}
	sort.Slice(occs, func(i, j int) bool {
		if occs[i].n != occs[j].n {
			return occs[i].n < occs[j].n
		}
		return occs[i].l.Name() < occs[j].l.Name()
	})
	link := occs[len(occs)/2].l

	if err := c.NotifyFailure(link); err != nil {
		t.Fatalf("NotifyFailure: %v", err)
	}
	recomputed := reg.Counter("kar_ctrl_reroutes_recomputed_total").Value()
	skipped := reg.Counter("kar_ctrl_reroutes_skipped_total").Value()
	if recomputed+skipped != int64(c.Routes()) {
		t.Fatalf("recomputed %d + skipped %d != %d installed routes", recomputed, skipped, c.Routes())
	}
	if 5*recomputed > recomputed+skipped {
		t.Errorf("failure of %s recomputed %d of %d routes; want >= 5x fewer than full reinstall",
			link, recomputed, c.Routes())
	}
	t.Logf("failure of %s: recomputed %d, skipped %d (%.1fx fewer than full reinstall)",
		link, recomputed, skipped, float64(recomputed+skipped)/float64(recomputed))
}

// TestRerouteKeepsOldRouteOnEncodeFailure is the partial-update fix:
// one route failing to re-encode must not abort the batch or evict
// that route — the old route stays installed, the failure is counted,
// and every other affected route still updates.
func TestRerouteKeepsOldRouteOnEncodeFailure(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := net15(t)
	c := New(g, WithFailureReaction(), WithTelemetry(reg, nil))
	poisoned, err := c.InstallRoute("AS1", "AS3", nil)
	if err != nil {
		t.Fatalf("InstallRoute: %v", err)
	}
	healthyBefore, err := c.InstallRoute("AS3", "AS1", nil)
	if err != nil {
		t.Fatalf("InstallRoute: %v", err)
	}

	// Corrupt the AS1->AS3 protection with an edge-node hop: it never
	// lies on a core path (so the collision filter keeps it) and
	// re-encoding rejects it.
	as2, _ := g.Node("AS2")
	c.entries[pair{src: "AS1", dst: "AS3"}].protection = []core.Hop{{Switch: as2, Port: 0}}

	link, _ := g.LinkBetween("SW7", "SW13")
	if n := crossing(c, link); n != 2 {
		t.Fatalf("expected both routes to cross %s, got %d", link, n)
	}
	err = c.NotifyFailure(link)
	if err == nil {
		t.Fatal("NotifyFailure: want an aggregate encode error")
	}
	if got, _ := c.Route("AS1", "AS3"); got != poisoned {
		t.Error("poisoned route was evicted; the old route must be kept")
	}
	if got, _ := c.Route("AS3", "AS1"); got == healthyBefore {
		t.Error("healthy route was not rerouted; one bad route stalled the batch")
	} else {
		for _, l := range got.Path.Links() {
			if l == link {
				t.Error("healthy route still crosses the failed link")
			}
		}
	}
	if fails := reg.Counter("kar_ctrl_reroute_failures_total").Value(); fails != 1 {
		t.Errorf("reroute failures = %d, want 1", fails)
	}
}
