// Package controller implements the KAR network controller: it owns
// the topology, assigns routes, computes route IDs via the RNS
// encoding, plans driven-deflection protection, and serves re-encode
// requests for misdelivered packets.
//
// Mirroring the paper's evaluation setup (§3), the controller ignores
// data-plane failure notifications by default — resilience must come
// from deflection alone. Failure-reactive rerouting is available as an
// opt-in (the "traditional approach" the paper contrasts against).
// When enabled, reaction is incremental: a failure recomputes only the
// routes whose current path crosses the failed link, and a repair only
// the routes detoured off their baseline path, so the number of
// recomputed routes scales with affected routes, not installed routes.
package controller

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/rns"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

type pair struct {
	src, dst string
}

// routeEntry is one installed route plus the bookkeeping incremental
// rerouting needs: the protection requested at install time, the
// baseline path's nodes (the shortest path under the empty failure set,
// nil while unknown), and whether the current path deviates from it or
// was kept through a failed link that cut the pair off.
type routeEntry struct {
	route      *core.Route
	protection []core.Hop
	baseline   []*topology.Node
	detoured   bool
}

// Controller is the routing brain. Its public methods are not safe
// for concurrent use: each simulated world owns one controller, and
// only re-encode requests may arrive from concurrent lanes (reencMu).
type Controller struct {
	g *topology.Graph

	reactToFailures bool
	failed          map[*topology.Link]bool

	// autoProtect plans per-destination protection for every route
	// installed without explicit hops: planner caches one
	// destination-rooted tree per destination core, so A→B and B→A
	// both get a tree pointing at their own destination.
	autoProtect bool
	planner     *core.Planner

	entries map[pair]*routeEntry

	// reencMu serializes re-encode requests. On a sharded world,
	// misdelivered packets from different regions can request fresh
	// routes concurrently inside one parallel window; a cache miss
	// mutates the route table, so the whole request holds the lock.
	// All other mutators run in control-plane context (single-threaded
	// between windows) and cannot overlap a window by construction.
	reencMu sync.Mutex

	// Telemetry (a private registry and event log when the world
	// supplies none). reg is only what New binds the counters on.
	reg              *telemetry.Registry
	events           *telemetry.EventLog
	cComputes        *telemetry.Counter
	cInstalls        *telemetry.Counter
	cReencodes       *telemetry.Counter
	cNotifies        *telemetry.Counter
	cRerouted        *telemetry.Counter
	cRerouteSkipped  *telemetry.Counter
	cRerouteFailures *telemetry.Counter
}

// Option configures a Controller.
type Option func(*Controller)

// WithFailureReaction makes the controller react to failure
// notifications by recomputing affected routes — the traditional
// approach the paper contrasts with (off by default: the paper's
// experiments deliberately ignore notifications).
func WithFailureReaction() Option {
	return func(c *Controller) { c.reactToFailures = true }
}

// WithAutoProtection makes the controller plan driven-deflection
// protection per destination: any route installed (or re-encoded, or
// rerouted) without explicit protection hops receives a set planned
// from a shortest-path tree rooted at the route's own destination core
// switch. This fixes the destination-rooted protection asymmetry of
// hand-listed sets — one tree rooted at one destination protects only
// the routes toward it — by giving every direction its own tree. Trees
// are cached per destination (core.Planner), so all-pairs installs
// cost one tree search per destination, not per route. Protection is
// complete: every reachable off-route core switch gets a residue.
func WithAutoProtection() Option {
	return func(c *Controller) { c.autoProtect = true }
}

// WithWorkers is a no-op: reroutes run in the caller. It is kept only
// because bench/ passes it, and goes with the next benchmark change.
func WithWorkers(int) Option {
	return func(*Controller) {}
}

// WithTelemetry points the controller's counters and control-plane
// events at the world's shared registry and event log (normally the
// network's, so route installs interleave with link failures on the
// same virtual timeline).
func WithTelemetry(reg *telemetry.Registry, ev *telemetry.EventLog) Option {
	return func(c *Controller) {
		if reg != nil {
			c.reg = reg
		}
		if ev != nil {
			c.events = ev
		}
	}
}

// bindRegistry creates the counter handles on reg.
func (c *Controller) bindRegistry(reg *telemetry.Registry) {
	reg.Help("kar_ctrl_route_computes_total", "Shortest-path computations performed.")
	reg.Help("kar_ctrl_reroutes_recomputed_total", "Routes recomputed by incremental failure/repair reaction.")
	reg.Help("kar_ctrl_reroutes_skipped_total", "Installed routes left untouched by incremental failure/repair reaction.")
	reg.Help("kar_ctrl_reroute_failures_total", "Reroute recomputes that failed (unreachable pair or encode error); the old route is kept.")
	c.cComputes = reg.Counter("kar_ctrl_route_computes_total")
	c.cInstalls = reg.Counter("kar_ctrl_route_installs_total")
	c.cReencodes = reg.Counter("kar_ctrl_reencode_total")
	c.cNotifies = reg.Counter("kar_ctrl_notifications_total")
	c.cRerouted = reg.Counter("kar_ctrl_reroutes_recomputed_total")
	c.cRerouteSkipped = reg.Counter("kar_ctrl_reroutes_skipped_total")
	c.cRerouteFailures = reg.Counter("kar_ctrl_reroute_failures_total")
}

// New builds a controller over a validated topology.
func New(g *topology.Graph, opts ...Option) *Controller {
	c := &Controller{
		g:       g,
		failed:  make(map[*topology.Link]bool),
		entries: make(map[pair]*routeEntry),
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.reg == nil {
		c.reg = telemetry.NewRegistry()
	}
	c.bindRegistry(c.reg)
	if c.events == nil {
		c.events = telemetry.NewEventLog(0, nil)
	}
	if c.autoProtect {
		// Protection trees span every link, failed ones included: like
		// the canned sets, planned protection is static state the data
		// plane deflects over, not a reactive detour.
		c.planner = core.NewPlanner(c.g, nil)
	}
	return c
}

// maxBookedSwitches keeps long bases out of the graph's route book: a
// wide basis holds one CRT constant per switch, each as long as the
// route ID, so 1 024 booked routes of at most 64 switches stay within
// ~15 MB even at 20-bit switch IDs.
const maxBookedSwitches = 64

// encode is every route ID the controller computes: path with the
// given protection hops, or with the planned set when auto-protection
// is on and hops is empty. A route is a pure function of the graph and
// (path, hops, planned or not), so it is looked up in the graph's
// route book first, where any controller on the graph may have put
// it; a hit is compared in full and allocates nothing.
func (c *Controller) encode(path topology.Path, hops []core.Hop) (*core.Route, error) {
	planned := c.autoProtect && len(hops) == 0
	key := bookKey(path.Nodes, hops, planned)
	book := c.g.RouteBook()
	if v, ok := book.Get(key); ok {
		r := v.(*core.Route)
		if slices.Equal(r.Path.Nodes, path.Nodes) && (planned || slices.Equal(r.Protection, hops)) {
			return r, nil
		}
	}
	if planned {
		var err error
		if hops, err = c.planner.Plan(path, core.PlanOptions{}); err != nil {
			return nil, err
		}
	}
	route, err := core.EncodeRoute(path, hops)
	if err == nil && route.SwitchCount() <= maxBookedSwitches {
		book.Put(key, route)
	}
	return route, err
}

// bookKey hashes encode's inputs (FNV-1a over node indexes and hop
// ports), with planned in the low bit: a route found under a key was
// booked with the same bit, so a planned hit needs only its path
// compared.
func bookKey(nodes []*topology.Node, hops []core.Hop, planned bool) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, n := range nodes {
		h = (h ^ uint64(n.Index())) * prime
	}
	h = (h ^ uint64(len(nodes))) * prime
	for _, hop := range hops {
		h = (h ^ uint64(hop.Switch.Index())) * prime
		h = (h ^ uint64(hop.Port)) * prime
	}
	if planned {
		return h<<1 | 1
	}
	return h << 1
}

// Graph returns the controller's topology.
func (c *Controller) Graph() *topology.Graph { return c.g }

// pathAvoid is nil — every link usable — until failure reaction knows
// of a failed link; then it rules the failed links out, so a pair they
// cut off has no path.
func (c *Controller) pathAvoid() func(*topology.Link) bool {
	if len(c.failed) == 0 {
		return nil
	}
	return func(l *topology.Link) bool { return c.failed[l] }
}

// install replaces (or creates) the entry for k with its
// baseline/detour bookkeeping: under an empty failure set the installed
// path IS the baseline (aliased: an encoded route never changes); under
// failures the entry is detoured whenever its path deviates from a
// known baseline (or the baseline is unknown, which repair reaction
// treats conservatively as detoured).
func (c *Controller) install(k pair, route *core.Route, protection []core.Hop) {
	old := c.entries[k]
	e := &routeEntry{route: route, protection: protection}
	nodes := route.Path.Nodes
	switch {
	case len(c.failed) == 0:
		e.baseline = nodes
	case old != nil && old.baseline != nil:
		e.baseline = old.baseline
		e.detoured = !slices.Equal(nodes, old.baseline)
	default:
		e.detoured = true
	}
	c.entries[k] = e
}

// InstallRoute selects the best path from src to dst (both edge
// nodes), encodes it together with the given protection hops, and
// remembers it. Reinstalling a pair overwrites it.
func (c *Controller) InstallRoute(src, dst string, protection []core.Hop) (*core.Route, error) {
	c.cComputes.Inc()
	path, err := topology.ShortestPath(c.g, src, dst, c.pathAvoid())
	if err != nil {
		return nil, fmt.Errorf("controller: route %s->%s: %w", src, dst, err)
	}
	route, err := c.encode(path, protection)
	if err != nil {
		return nil, fmt.Errorf("controller: route %s->%s: %w", src, dst, err)
	}
	c.install(pair{src: src, dst: dst}, route, route.Protection)
	c.recordInstall(src, dst, route)
	return route, nil
}

// recordInstall counts an installed route and logs it with its
// encoding footprint.
func (c *Controller) recordInstall(src, dst string, route *core.Route) {
	c.cInstalls.Inc()
	c.events.Record(telemetry.EventRouteInstall, src,
		fmt.Sprintf("%s->%s bits=%d protection=%d", src, dst, route.BitLength(), len(route.Protection)))
}

// InstallRouteOnPath installs an explicitly chosen path (the paper's
// controller "by any reason selects" specific routes) instead of the
// shortest one. An explicit route is left alone by incremental
// reaction until a failure touches its path; from then on it is
// recomputed by shortest path like any other route.
func (c *Controller) InstallRouteOnPath(nodeNames []string, protection []core.Hop) (*core.Route, error) {
	nodes := make([]*topology.Node, len(nodeNames))
	for i, name := range nodeNames {
		n, ok := c.g.Node(name)
		if !ok {
			return nil, fmt.Errorf("controller: path node %q: %w", name, topology.ErrUnknownNode)
		}
		nodes[i] = n
	}
	path := topology.Path{Nodes: nodes}
	route, err := c.encode(path, protection)
	if err != nil {
		return nil, fmt.Errorf("controller: explicit route %s: %w", path, err)
	}
	src, dst := nodeNames[0], nodeNames[len(nodeNames)-1]
	c.install(pair{src: src, dst: dst}, route, route.Protection)
	c.recordInstall(src, dst, route)
	return route, nil
}

// Route returns the installed route for a pair.
func (c *Controller) Route(src, dst string) (*core.Route, bool) {
	e, ok := c.entries[pair{src: src, dst: dst}]
	if !ok {
		return nil, false
	}
	return e.route, true
}

// IngressPort returns the port the ingress edge uses to reach the
// first core switch of an installed route.
func (c *Controller) IngressPort(route *core.Route) (int, error) {
	src := route.Path.Nodes[0]
	port, ok := src.PortToward(route.Path.Nodes[1].Name())
	if !ok {
		return 0, fmt.Errorf("controller: edge %s has no port toward %s", src, route.Path.Nodes[1])
	}
	return port, nil
}

// ReencodeRoute returns a fresh route ID (and the edge's output port)
// for reaching dstEdge from fromEdge. Used when a
// deflected packet lands at the wrong edge; per the paper, the
// controller recalculates based on the best path from that edge,
// reusing the destination's protection hops where they do not collide
// with the new path (single-residue constraint).
func (c *Controller) ReencodeRoute(fromEdge, dstEdge string) (rns.RouteID, int, error) {
	return c.reencode(fromEdge, dstEdge, nil)
}

// ReencodeRouteAt implements edge.Reencoder: ReencodeRoute with the
// requesting edge's virtual time, so a cache miss's route_install
// event is stamped at the instant the re-encode actually happened even
// when the request arrives from a shard lane running ahead of the
// control clock.
func (c *Controller) ReencodeRouteAt(at time.Duration, fromEdge, dstEdge string) (rns.RouteID, int, error) {
	return c.reencode(fromEdge, dstEdge, &at)
}

func (c *Controller) reencode(fromEdge, dstEdge string, at *time.Duration) (rns.RouteID, int, error) {
	c.cReencodes.Inc()
	c.reencMu.Lock()
	defer c.reencMu.Unlock()
	k := pair{src: fromEdge, dst: dstEdge}
	if e, ok := c.entries[k]; ok {
		port, err := c.IngressPort(e.route)
		if err != nil {
			return rns.RouteID{}, 0, err
		}
		return e.route.ID, port, nil
	}
	c.cComputes.Inc()
	path, err := topology.ShortestPath(c.g, fromEdge, dstEdge, c.pathAvoid())
	if err != nil {
		return rns.RouteID{}, 0, fmt.Errorf("controller: re-encode %s->%s: %w", fromEdge, dstEdge, err)
	}
	// With auto-protection the fresh route gets a tree rooted at its
	// own destination instead of borrowing whatever protected route
	// happens to end there.
	var hops []core.Hop
	if !c.autoProtect {
		hops = filterHops(c.protectionToward(dstEdge), path)
	}
	route, err := c.encode(path, hops)
	if err != nil {
		return rns.RouteID{}, 0, fmt.Errorf("controller: re-encode %s->%s: %w", fromEdge, dstEdge, err)
	}
	c.install(k, route, route.Protection)
	c.cInstalls.Inc()
	detail := fmt.Sprintf("%s->%s bits=%d protection=%d", fromEdge, dstEdge, route.BitLength(), len(route.Protection))
	if at != nil {
		c.events.RecordAt(*at, telemetry.EventRouteInstall, fromEdge, detail)
	} else {
		c.events.Record(telemetry.EventRouteInstall, fromEdge, detail)
	}
	port, err := c.IngressPort(route)
	if err != nil {
		return rns.RouteID{}, 0, err
	}
	return route.ID, port, nil
}

// protectionToward returns the protection hops of an installed route
// ending at dstEdge (they form a tree toward the destination, so they
// remain valid from any ingress). When several protected routes end
// there, the lexicographically smallest source wins — a fixed rule, so
// the choice never depends on map iteration order.
func (c *Controller) protectionToward(dstEdge string) []core.Hop {
	var (
		bestSrc string
		best    []core.Hop
	)
	for k, e := range c.entries {
		if k.dst != dstEdge || len(e.protection) == 0 {
			continue
		}
		if best == nil || k.src < bestSrc {
			bestSrc, best = k.src, e.protection
		}
	}
	return best
}

// filterHops removes hops whose switch lies on the path (it already
// carries a primary residue there).
func filterHops(hops []core.Hop, path topology.Path) []core.Hop {
	out := make([]core.Hop, 0, len(hops))
	for _, h := range hops {
		if !path.Contains(h.Switch.Name()) {
			out = append(out, h)
		}
	}
	return out
}

// NotifyFailure receives a data-plane failure report. In the paper's
// evaluation mode (default) it only counts; with failure reaction
// enabled it reroutes exactly the installed routes whose current path
// crosses the link; every other route is a skip, counted in
// kar_ctrl_reroutes_skipped_total.
func (c *Controller) NotifyFailure(l *topology.Link) error {
	c.cNotifies.Inc()
	c.events.Record(telemetry.EventNotify, l.Name(), "fail")
	if !c.reactToFailures {
		return nil
	}
	c.failed[l] = true
	var affected []pair
	var links []*topology.Link
	for k, e := range c.entries {
		links = e.route.Path.AppendLinks(links[:0])
		if slices.Contains(links, l) {
			affected = append(affected, k)
		}
	}
	sortPairs(affected)
	return c.reroute(affected)
}

// NotifyRepair clears a failure. With reaction enabled it recomputes
// only the routes currently detoured off their baseline path or cut
// off — routes on their pre-failure shortest path over live links
// cannot improve and are skipped.
func (c *Controller) NotifyRepair(l *topology.Link) error {
	c.cNotifies.Inc()
	c.events.Record(telemetry.EventNotify, l.Name(), "repair")
	if !c.reactToFailures {
		return nil
	}
	delete(c.failed, l)
	affected := make([]pair, 0, len(c.entries))
	for k, e := range c.entries {
		if e.detoured {
			affected = append(affected, k)
		}
	}
	sortPairs(affected)
	return c.reroute(affected)
}

func sortPairs(ps []pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].src != ps[j].src {
			return ps[i].src < ps[j].src
		}
		return ps[i].dst < ps[j].dst
	})
}

// reroute recomputes the given routes under the current failure set,
// in the caller's deterministic order, so the route table and every
// counter follow that order.
//
// A pair the failures cut off (no path over live links) keeps its old
// route and bumps kar_ctrl_reroute_failures_total — a stale route the
// data plane can still deflect around beats no route. Only genuine
// encode failures surface in the aggregate error (also keeping the old
// route, so an error mid-batch can no longer strand the table
// half-updated).
func (c *Controller) reroute(affected []pair) error {
	c.cRerouted.Add(int64(len(affected)))
	c.cRerouteSkipped.Add(int64(len(c.entries) - len(affected)))
	avoid := c.pathAvoid()
	var errs []error
	for _, k := range affected {
		c.cComputes.Inc()
		path, err := topology.ShortestPath(c.g, k.src, k.dst, avoid)
		if err != nil {
			// Keep the old route, through a failed link: any repair may
			// reconnect the pair, so NotifyRepair must recompute it.
			c.entries[k].detoured = true
			c.rerouteFailed(k, "unreachable")
			continue
		}
		// The new path has a new on-route set: with auto-protection,
		// encode re-plans from the cached destination tree instead of
		// filtering the old plan.
		var hops []core.Hop
		if !c.autoProtect {
			hops = filterHops(c.entries[k].protection, path)
		}
		route, err := c.encode(path, hops)
		if err != nil {
			c.rerouteFailed(k, "encode-failed")
			errs = append(errs, fmt.Errorf("controller: reroute %s->%s: %w", k.src, k.dst, err))
			continue
		}
		kept := c.entries[k].protection
		if c.autoProtect {
			kept = route.Protection
		}
		c.install(k, route, kept)
		c.events.Record(telemetry.EventReroute, k.src,
			fmt.Sprintf("%s->%s ok bits=%d", k.src, k.dst, route.BitLength()))
	}
	return errors.Join(errs...)
}

// rerouteFailed counts and records a recompute that keeps k's old route.
func (c *Controller) rerouteFailed(k pair, outcome string) {
	c.cRerouteFailures.Inc()
	c.events.Record(telemetry.EventReroute, k.src, fmt.Sprintf("%s->%s %s", k.src, k.dst, outcome))
}
