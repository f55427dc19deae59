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

// TestPathAvoidNilUntilFailure: installs search every link (a nil
// avoid) unless failure reaction knows of a failed link; only then does
// a search rule links out.
func TestPathAvoidNilUntilFailure(t *testing.T) {
	g := net15(t)
	link, _ := g.LinkBetween("SW7", "SW13")
	plain := New(g)
	if err := plain.NotifyFailure(link); err != nil {
		t.Fatalf("NotifyFailure: %v", err)
	}
	if plain.pathAvoid() != nil {
		t.Error("pathAvoid without failure reaction is not nil")
	}
	c := New(g, WithFailureReaction())
	if c.pathAvoid() != nil {
		t.Error("pathAvoid before any failure is not nil")
	}
	if err := c.NotifyFailure(link); err != nil {
		t.Fatalf("NotifyFailure: %v", err)
	}
	if avoid := c.pathAvoid(); avoid == nil || !avoid(link) {
		t.Error("pathAvoid with a failed link does not rule it out")
	}
	if err := c.NotifyRepair(link); err != nil {
		t.Fatalf("NotifyRepair: %v", err)
	}
	if c.pathAvoid() != nil {
		t.Error("pathAvoid after the repair is not nil")
	}
}

// fig1Reactive is Fig. 1 under a failure-reactive controller with S→D
// installed on S-SW4-SW7-SW11-D, and a notifier for its links.
func fig1Reactive(t *testing.T) (c *Controller, reg *telemetry.Registry, log *telemetry.EventLog, notify func(fail bool, a, b string)) {
	t.Helper()
	g, err := topology.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	reg, log = telemetry.NewRegistry(), telemetry.NewEventLog(0, nil)
	c = New(g, WithFailureReaction(), WithTelemetry(reg, log))
	if r, err := c.InstallRoute("S", "D", nil); err != nil || r.Path.String() != "S-SW4-SW7-SW11-D" {
		t.Fatalf("InstallRoute(S, D) = %v, %v; want S-SW4-SW7-SW11-D", r, err)
	}
	return c, reg, log, func(fail bool, a, b string) {
		t.Helper()
		l, _ := g.LinkBetween(a, b)
		notify := c.NotifyRepair
		if fail {
			notify = c.NotifyFailure
		}
		if err := notify(l); err != nil {
			t.Fatalf("notify %s-%s (fail %t): %v", a, b, fail, err)
		}
	}
}

// TestRerouteCutOffKeepsRoute: a pair the failures cut off keeps its
// route and counts an unreachable recompute; it is never moved onto a
// path through a failed link.
func TestRerouteCutOffKeepsRoute(t *testing.T) {
	c, reg, log, notify := fig1Reactive(t)
	notify(true, "SW7", "SW11")
	detour, _ := c.Route("S", "D")
	if got := detour.Path.String(); got != "S-SW4-SW7-SW5-SW11-D" {
		t.Fatalf("after SW7-SW11 fails, S->D = %s, want S-SW4-SW7-SW5-SW11-D", got)
	}
	notify(true, "SW5", "SW11")
	if got, _ := c.Route("S", "D"); got != detour {
		t.Errorf("cut-off S->D moved to %s, want the route installed after the first failure", got.Path)
	}
	if n := reg.Counter("kar_ctrl_reroute_failures_total").Value(); n != 1 {
		t.Errorf("kar_ctrl_reroute_failures_total = %d, want 1", n)
	}
	unreachable := false
	for _, e := range log.Events() {
		unreachable = unreachable || e.Kind == telemetry.EventReroute && e.Detail == "S->D unreachable"
	}
	if !unreachable {
		t.Errorf("event log has no \"S->D unreachable\" reroute: %v", log.Events())
	}
}

// TestRepairReconnectsCutOffPair: a pair cut off while on its baseline
// is recomputed by the repair of a link off that baseline that gives it
// a live path again, as a full reinstall would.
func TestRepairReconnectsCutOffPair(t *testing.T) {
	c, _, _, notify := fig1Reactive(t)
	notify(true, "SW5", "SW11") // off the route: S->D is not recomputed
	notify(true, "SW7", "SW11") // cut off: S->D keeps its baseline
	notify(false, "SW5", "SW11")
	if got, _ := c.Route("S", "D"); got.Path.String() != "S-SW4-SW7-SW5-SW11-D" {
		t.Errorf("after SW5-SW11 is repaired, S->D = %s, want S-SW4-SW7-SW5-SW11-D", got.Path)
	}
	before := snapshot(c)
	if err := c.reinstallAll(); err != nil {
		t.Fatalf("reinstallAll: %v", err)
	}
	diffSnapshots(t, "incremental table deviates from full reinstall", before, snapshot(c))
	notify(false, "SW7", "SW11")
	if got, _ := c.Route("S", "D"); got.Path.String() != "S-SW4-SW7-SW11-D" {
		t.Errorf("after every repair, S->D = %s, want its baseline S-SW4-SW7-SW11-D", got.Path)
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
