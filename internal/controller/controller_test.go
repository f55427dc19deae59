package controller

import (
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

func net15(t *testing.T) *topology.Graph {
	t.Helper()
	g, err := topology.Net15()
	if err != nil {
		t.Fatalf("Net15: %v", err)
	}
	return g
}

func TestInstallRouteShortestPath(t *testing.T) {
	c := New(net15(t))
	r, err := c.InstallRoute("AS1", "AS3", nil)
	if err != nil {
		t.Fatalf("InstallRoute: %v", err)
	}
	if got := r.Path.String(); got != "AS1-SW10-SW7-SW13-SW29-AS3" {
		t.Errorf("path = %s, want the paper's primary route", got)
	}
	if got, ok := c.Route("AS1", "AS3"); !ok || got != r {
		t.Error("installed route not retrievable")
	}
	port, err := c.IngressPort(r)
	if err != nil {
		t.Fatalf("IngressPort: %v", err)
	}
	as1, _ := c.Graph().Node("AS1")
	if nb, ok := as1.Neighbor(port); !ok || nb.Name() != "SW10" {
		t.Errorf("ingress port %d does not lead to SW10", port)
	}
}

func TestInstallRouteWithProtection(t *testing.T) {
	g := net15(t)
	c := New(g)
	hops, err := core.HopsFromPairs(g, topology.Net15PartialProtection)
	if err != nil {
		t.Fatalf("HopsFromPairs: %v", err)
	}
	r, err := c.InstallRoute("AS1", "AS3", hops)
	if err != nil {
		t.Fatalf("InstallRoute: %v", err)
	}
	if r.BitLength() != 28 || r.SwitchCount() != 7 {
		t.Errorf("partial route = %d bits / %d switches, want 28 / 7", r.BitLength(), r.SwitchCount())
	}
}

func TestInstallRouteOnPath(t *testing.T) {
	c := New(net15(t))
	// Force a non-shortest route, like the paper's controller that
	// "by any reason selects" specific paths.
	r, err := c.InstallRouteOnPath([]string{"AS1", "SW10", "SW11", "SW19", "SW27", "SW29", "AS3"}, nil)
	if err != nil {
		t.Fatalf("InstallRouteOnPath: %v", err)
	}
	if r.Path.Hops() != 6 {
		t.Errorf("hops = %d, want 6", r.Path.Hops())
	}
	if _, ok := c.Route("AS1", "AS3"); !ok {
		t.Error("explicit route not installed under its endpoints")
	}
	if _, err := c.InstallRouteOnPath([]string{"AS1", "NOPE"}, nil); err == nil {
		t.Error("InstallRouteOnPath accepted an unknown node")
	}
}

func TestReencodeRouteUsesCacheAndProtection(t *testing.T) {
	g := net15(t)
	c := New(g)
	hops, err := core.HopsFromPairs(g, topology.Net15PartialProtection)
	if err != nil {
		t.Fatalf("HopsFromPairs: %v", err)
	}
	installed, err := c.InstallRoute("AS1", "AS3", hops)
	if err != nil {
		t.Fatalf("InstallRoute: %v", err)
	}

	// Cache hit: re-encode from the original source returns the
	// installed route ID.
	id, port, err := c.ReencodeRoute("AS1", "AS3")
	if err != nil {
		t.Fatalf("ReencodeRoute: %v", err)
	}
	if !id.Equal(installed.ID) {
		t.Errorf("re-encoded ID %v != installed %v", id, installed.ID)
	}
	as1, _ := g.Node("AS1")
	if nb, ok := as1.Neighbor(port); !ok || nb.Name() != "SW10" {
		t.Errorf("re-encode port %d does not lead to SW10", port)
	}

	// Fresh computation from another edge reuses the protection tree
	// toward AS3 where it does not collide with the new path.
	id2, _, err := c.ReencodeRoute("AS2", "AS3")
	if err != nil {
		t.Fatalf("ReencodeRoute(AS2): %v", err)
	}
	r2, ok := c.Route("AS2", "AS3")
	if !ok {
		t.Fatal("re-encoded route not cached")
	}
	if !r2.ID.Equal(id2) {
		t.Error("cached route ID differs from returned one")
	}
	// AS2 attaches at SW29: path AS2-SW29-AS3, so protection hops at
	// SW11/SW19/SW27 all survive the collision filter.
	if len(r2.Protection) != 3 {
		t.Errorf("re-encoded protection hops = %d, want 3", len(r2.Protection))
	}
}

func TestReencodeRouteUnknownDestination(t *testing.T) {
	c := New(net15(t))
	if _, _, err := c.ReencodeRoute("AS1", "NOPE"); err == nil {
		t.Error("ReencodeRoute accepted an unknown destination")
	}
}

func TestNotifyFailureIgnoredByDefault(t *testing.T) {
	g := net15(t)
	c := New(g)
	r, err := c.InstallRoute("AS1", "AS3", nil)
	if err != nil {
		t.Fatalf("InstallRoute: %v", err)
	}
	link, _ := g.LinkBetween("SW7", "SW13")
	if err := c.NotifyFailure(link); err != nil {
		t.Fatalf("NotifyFailure: %v", err)
	}
	after, _ := c.Route("AS1", "AS3")
	if after != r {
		t.Error("route changed despite ignored notifications (the paper's evaluation mode)")
	}
	if n := c.cNotifies.Value(); n != 1 {
		t.Errorf("kar_ctrl_notifications_total = %d, want 1", n)
	}
}

func TestNotifyFailureWithReaction(t *testing.T) {
	g := net15(t)
	c := New(g, WithFailureReaction())
	before, err := c.InstallRoute("AS1", "AS3", nil)
	if err != nil {
		t.Fatalf("InstallRoute: %v", err)
	}
	link, _ := g.LinkBetween("SW7", "SW13")
	if err := c.NotifyFailure(link); err != nil {
		t.Fatalf("NotifyFailure: %v", err)
	}
	after, _ := c.Route("AS1", "AS3")
	if after == before {
		t.Fatal("route not recomputed after failure notification")
	}
	for _, l := range after.Path.Links() {
		if l == link {
			t.Fatal("recomputed route still crosses the failed link")
		}
	}
	// Repair restores the shortest path.
	if err := c.NotifyRepair(link); err != nil {
		t.Fatalf("NotifyRepair: %v", err)
	}
	restored, _ := c.Route("AS1", "AS3")
	if got := restored.Path.String(); got != "AS1-SW10-SW7-SW13-SW29-AS3" {
		t.Errorf("restored path = %s, want the primary route", got)
	}
}

// TestPathWeightNilUntilFailure: installs take the hop-count search (a
// nil weight) unless failure reaction knows of a failed link; only then
// does a search price links, by Dijkstra.
func TestPathWeightNilUntilFailure(t *testing.T) {
	g := net15(t)
	if New(g).pathWeight() != nil {
		t.Error("pathWeight without failure reaction is not nil")
	}
	c := New(g, WithFailureReaction())
	if c.pathWeight() != nil {
		t.Error("pathWeight before any failure is not nil")
	}
	link, _ := g.LinkBetween("SW7", "SW13")
	if err := c.NotifyFailure(link); err != nil {
		t.Fatalf("NotifyFailure: %v", err)
	}
	if c.pathWeight() == nil {
		t.Error("pathWeight with a failed link is nil")
	}
	if err := c.NotifyRepair(link); err != nil {
		t.Fatalf("NotifyRepair: %v", err)
	}
	if c.pathWeight() != nil {
		t.Error("pathWeight after the repair is not nil")
	}
}

func TestInstallRouteErrors(t *testing.T) {
	c := New(net15(t))
	if _, err := c.InstallRoute("AS1", "NOPE", nil); err == nil {
		t.Error("InstallRoute accepted an unknown destination")
	}
}

// WithTelemetry replaces the private registry and event log instead of
// being bound on top of them: a controller given both builds neither
// (New used to bind seven families on a throwaway registry, then again
// on the world's), and its counters and events land on what it was
// given.
func TestWithTelemetryBindsOnce(t *testing.T) {
	g := net15(t)
	own := testing.AllocsPerRun(10, func() { New(g) })
	given := testing.AllocsPerRun(10, func() {
		New(g, WithTelemetry(telemetry.NewRegistry(), telemetry.NewEventLog(0, nil)))
	})
	// The option's closure and argument slice are the only extras.
	if given > own+3 {
		t.Errorf("New with a registry and an event log allocated %.0f times, %.0f without: the private pair is still built", given, own)
	}

	reg, log := telemetry.NewRegistry(), telemetry.NewEventLog(0, nil)
	c := New(g, WithTelemetry(reg, log))
	if _, err := c.InstallRoute("AS1", "AS3", nil); err != nil {
		t.Fatal(err)
	}
	if got := reg.CounterValue("kar_ctrl_route_installs_total"); got != 1 {
		t.Errorf("kar_ctrl_route_installs_total on the given registry = %d, want 1", got)
	}
	if len(log.Events()) == 0 {
		t.Error("the install left no event on the given log")
	}
}
