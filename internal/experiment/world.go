// Package experiment assembles complete KAR worlds (topology +
// switches + edges + controller over the simulator) and implements one
// named experiment per table and figure of the paper's evaluation
// (§3): table1, fig4, fig5, fig7, fig8, plus the table2 state
// comparison, the deflection coverage analysis, the transport ablation,
// the reaction comparison against a reactive controller and the
// datacenter-scale workload. Each experiment is a list of cells, one
// runner per kind of run (runSweep for TCP, probeRun for CBR probes,
// analyzeOne for closed forms) and a table renderer.
package experiment

import (
	"context"
	"fmt"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/deflect"
	"repro/internal/edge"
	"repro/internal/kswitch"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// World is one fully wired simulated KAR network.
type World struct {
	Net      *simnet.Network
	Ctrl     *controller.Controller
	Switches map[string]*kswitch.Switch
	Edges    map[string]*edge.Edge
}

// NewWorld wires a network over g: one KAR switch per core node (all
// running policy, with per-switch RNGs derived from seed) and one edge
// node per edge, connected to a controller in the paper's
// ignore-failures mode. opts are the layers' own options: each
// simnet.Option reaches the network, each controller.Option the
// controller and each edge.Option every edge; a value of any other type
// is a bug in the caller and panics.
func NewWorld(g *topology.Graph, policy deflect.Policy, seed int64, opts ...any) *World {
	// The policy rides as a base label on every metric of this world,
	// ahead of the caller's, so merged per-run dumps stay separable (e.g.
	// kar_switch_deflections_total{policy="nip",...}).
	netOpts := []simnet.Option{simnet.WithMetricLabels("policy", policy.Name())}
	var ctrlOpts []controller.Option
	var edgeOpts []edge.Option
	for _, opt := range opts {
		switch opt := opt.(type) {
		case simnet.Option:
			netOpts = append(netOpts, opt)
		case controller.Option:
			ctrlOpts = append(ctrlOpts, opt)
		case edge.Option:
			edgeOpts = append(edgeOpts, opt)
		default:
			panic(fmt.Sprintf("experiment: NewWorld option %T is not a simnet, controller or edge option", opt))
		}
	}
	w := &World{Net: simnet.New(g, netOpts...)}
	// Controller telemetry shares the world's registry and event log:
	// route installs and re-encodes interleave with link failures on
	// one virtual timeline.
	w.Ctrl = controller.New(g, append(ctrlOpts, controller.WithTelemetry(w.Net.Metrics(), w.Net.Events()))...)
	w.Switches = kswitch.InstallAll(w.Net, policy, seed)
	w.Edges = edge.InstallAll(w.Net, w.Ctrl, edgeOpts...)
	return w
}

// InstallRoute computes, encodes and installs the shortest route from
// src to dst with the given protection pairs, programming the ingress
// edge.
func (w *World) InstallRoute(src, dst string, protection [][2]string) (*core.Route, error) {
	hops, err := core.HopsFromPairs(w.Net.Topology(), protection)
	if err != nil {
		return nil, err
	}
	route, err := w.Ctrl.InstallRoute(src, dst, hops)
	if err != nil {
		return nil, err
	}
	return route, w.programIngress(src, dst, route)
}

// InstallRouteOnPath installs an explicit path (first and last names
// are edges) with protection pairs.
func (w *World) InstallRouteOnPath(names []string, protection [][2]string) (*core.Route, error) {
	hops, err := core.HopsFromPairs(w.Net.Topology(), protection)
	if err != nil {
		return nil, err
	}
	route, err := w.Ctrl.InstallRouteOnPath(names, hops)
	if err != nil {
		return nil, err
	}
	return route, w.programIngress(names[0], names[len(names)-1], route)
}

func (w *World) programIngress(src, dst string, route *core.Route) error {
	e, ok := w.Edges[src]
	if !ok {
		return fmt.Errorf("experiment: no edge %q in world", src)
	}
	port, err := w.Ctrl.IngressPort(route)
	if err != nil {
		return err
	}
	e.InstallRouteWithBaseline(dst, route.ID, port, len(route.Path.Nodes)-1)
	return nil
}

// ReactAfter makes the world's control plane reactive, the "traditional
// approach" of the paper's introduction: delay after the switches
// detect a link transition, the controller hears of it (NotifyFailure
// or NotifyRepair, which reroute when the controller was built
// WithFailureReaction) and each (src, dst) pair's ingress edge is
// reprogrammed with the pair's current route. It is the world's one
// owner of the link-detection hook.
func (w *World) ReactAfter(delay time.Duration, pairs [][2]string) {
	sched := w.Net.Scheduler()
	w.Net.SetLinkDetectionHook(func(l *topology.Link, up bool) {
		sched.After(delay, func() {
			// A pair the controller cannot reroute keeps its old route (and
			// is counted in kar_ctrl_reroute_failures_total), so errors are
			// dropped and every ingress gets whatever route is installed.
			if up {
				_ = w.Ctrl.NotifyRepair(l)
			} else {
				_ = w.Ctrl.NotifyFailure(l)
			}
			for _, p := range pairs {
				if route, ok := w.Ctrl.Route(p[0], p[1]); ok {
					_ = w.programIngress(p[0], p[1], route)
				}
			}
		})
	})
}

// FailLinkBetween schedules a failure of the named link for
// [from, from+duration) — permanently when duration is non-positive.
// The window owns one refcounted down-hold (simnet.AcquireLinkDown /
// ReleaseLinkDown), so direct world calls compose with scenario fault
// injectors: a link both cut here and flapped by fault.Flap stays
// down until the last overlapping cause releases it.
func (w *World) FailLinkBetween(a, b string, from, duration time.Duration) error {
	l, ok := w.Net.Topology().LinkBetween(a, b)
	if !ok {
		return fmt.Errorf("experiment: no link %s-%s", a, b)
	}
	w.Net.ScheduleFailure(l, from, duration)
	return nil
}

// Run drives the world to the given virtual time. Sharded worlds
// advance their region lanes under conservative windows (see
// simnet.Network.RunUntil); unsharded worlds run the single scheduler
// directly.
func (w *World) Run(until time.Duration) { w.Net.RunUntil(until) }

// Close ends the world (simnet.Network.Close): the packets still in
// flight and every link direction's train ring go back to the
// process-wide depots, so the next world reuses them instead of
// allocating its data plane anew. Call it once the world's results are
// read; its metrics and event log stay readable.
func (w *World) Close() { w.Net.Close() }

// RunContext drives the world to until in legs, checking ctx between
// them: the run stops (with ctx.Err()) at the first boundary after
// cancellation. boundaries are ascending virtual instants — scenario
// phase edges, typically — and RunContext adds nothing between them,
// so a run with no boundaries is cancellable only before it starts.
//
// Segmenting is free for determinism: RunUntil(a) then RunUntil(b)
// dispatches exactly the event sequence of RunUntil(b) (the heap is
// retained, boundaries derive from configuration, and the epilogue
// flushes fold commutative deferred counters), so a job run under the
// daemon is byte-identical to the same spec run in one batch call.
func (w *World) RunContext(ctx context.Context, until time.Duration, boundaries ...time.Duration) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var last time.Duration
	for _, b := range boundaries {
		if b <= last || b >= until {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		w.Net.RunUntil(b)
		last = b
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	w.Net.RunUntil(until)
	return nil
}

// PolicyByName resolves a deflection policy or fails loudly; it exists
// so experiment definitions can be table-driven on policy names.
func PolicyByName(name string) (deflect.Policy, error) {
	p, ok := deflect.ByName(name)
	if !ok {
		return nil, fmt.Errorf("experiment: unknown deflection policy %q", name)
	}
	return p, nil
}
