// Package edge implements KAR edge nodes: they stamp route IDs onto
// packets entering the core, strip them at the egress, and handle
// misdelivered packets by asking the controller for a fresh route ID
// (the paper's "second approach", used in all its tests).
package edge

import (
	"fmt"
	"time"

	"repro/internal/packet"
	"repro/internal/rns"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Reencoder is the slice of the controller an edge needs: fresh route
// IDs for packets that arrived at the wrong edge.
type Reencoder interface {
	// ReencodeRouteAt returns the route ID and output port for reaching
	// dstEdge from fromEdge. at is the requesting edge's virtual time, so
	// the controller can stamp the resulting route_install event
	// correctly even when the request arrives from a shard lane running
	// ahead of the control clock.
	ReencodeRouteAt(at time.Duration, fromEdge, dstEdge string) (rns.RouteID, int, error)
}

// Receiver consumes decapsulated packets at the egress edge —
// implemented by transport endpoints (TCP/UDP receivers).
type Receiver interface {
	Deliver(pkt *packet.Packet)
}

// ReceiverFunc adapts a function to Receiver.
type ReceiverFunc func(pkt *packet.Packet)

// Deliver implements Receiver.
func (f ReceiverFunc) Deliver(pkt *packet.Packet) { f(pkt) }

// routeEntry is an installed ingress route. baseline is the hop count
// of the encoded (failure-free) path, letting the flight recorder and
// stretch reports compare actual journeys against it; 0 means unknown.
type routeEntry struct {
	id       rns.RouteID
	outPort  int
	baseline int
}

// endpoint is one attached local flow: its transport receiver and its
// path-stretch and latency histograms (deferred cells: terminal
// samples arrive in long runs of one value), kept together so the
// per-delivery hot path does a single map lookup.
type endpoint struct {
	r       Receiver
	stretch *simnet.DeferredHistogram
	latency *simnet.DeferredHistogram
}

// Edge is one KAR edge node.
type Edge struct {
	net  *simnet.Network
	node *topology.Node
	ctrl Reencoder

	// clock schedules this edge's timers (re-encode delays) on the
	// shard lane owning the node, keyed by the node's entity — the
	// shard-count-invariant replacement for the global scheduler.
	clock simnet.Clock

	// reencodeDelay models the control-plane round trip for
	// misdelivered packets.
	reencodeDelay time.Duration

	routes map[string]routeEntry      // destination edge → route
	local  map[packet.FlowID]endpoint // attached transport endpoints + stretch histograms

	// Single-entry lookup caches: steady traffic hits one destination
	// (Inject) and one flow (HandlePacket) per edge, so the per-packet
	// map hash is paid once per route/flow change instead of per
	// packet. Invalidated on InstallRoute/Attach.
	lastDst   string
	lastRoute routeEntry
	lastFlow  packet.FlowID
	lastEp    endpoint
	hasLastEp bool

	// defaultEp catches flows without a specific Attach entry — the
	// million-flow generator's path: one receiver per edge instead of
	// one map entry (plus two histograms) per flow.
	defaultEp  endpoint
	hasDefault bool

	// Registry-backed counters (labelled edge=<node>; cells of the
	// per-family blocks install registers). The two
	// per-packet ones — encap on inject, decap on delivery — are
	// deferred cells owned by this node's lane; the exception-path
	// counters stay atomic.
	cEncapped     simnet.DeferredCounter
	cDelivered    simnet.DeferredCounter
	cMisdelivered *telemetry.Counter
	cReencoded    *telemetry.Counter
	cUnclaimed    *telemetry.Counter
	cNoRoute      *telemetry.Counter

	// Event-log dedup: re-encodes happen per misdelivered packet, so
	// the control-plane log records only the first per flow; the
	// kar_edge_reencode_total counter keeps the volume.
	loggedReencode map[packet.FlowID]bool

	// Misdeliveries awaiting re-encode. reencodeDelay is fixed at
	// construction and every timer is posted to this edge's own entity,
	// so they fire in arrival order: pending[pendHead:] queues the
	// packets and each timer is the one method value reencodeFn, which
	// takes the oldest.
	pending    []*packet.Packet
	pendHead   int
	reencodeFn func()
}

var _ simnet.Handler = (*Edge)(nil)

// Option configures an Edge.
type Option func(*Edge)

// WithReencodeDelay sets the simulated control-plane latency for
// re-encoding misdelivered packets (default 2 ms).
func WithReencodeDelay(d time.Duration) Option {
	return func(e *Edge) { e.reencodeDelay = d }
}

// DefaultReencodeDelay approximates a LAN controller round trip.
const DefaultReencodeDelay = 2 * time.Millisecond

// New builds an edge node and binds it to the network. ctrl may be
// nil, in which case misdelivered packets are dropped.
func New(net *simnet.Network, node *topology.Node, ctrl Reencoder, opts ...Option) *Edge {
	return &install(net, []*topology.Node{node}, ctrl, opts)[0]
}

// InstallAll builds one edge per edge node of the network's topology,
// all on the same controller, and returns them keyed by node name.
func InstallAll(net *simnet.Network, ctrl Reencoder, opts ...Option) map[string]*Edge {
	nodes := net.Topology().EdgeNodes()
	es := install(net, nodes, ctrl, opts)
	out := make(map[string]*Edge, len(nodes))
	for i, n := range nodes {
		out[n.Name()] = &es[i]
	}
	return out
}

// install builds one edge per node and binds each to the network. The
// six series of an edge are registered as blocks over all the nodes at
// once (see telemetry.Registry), and an edge's maps and timer callback
// are made when first written: most edges of most worlds carry no
// flow.
func install(net *simnet.Network, nodes []*topology.Node, ctrl Reencoder, opts []Option) []Edge {
	reg := net.Metrics()
	reg.Help("kar_flow_stretch_hops", "Per-flow hop counts of decapsulated packets (path stretch).")
	byName := func(i int, dst []string) []string { return append(dst, "edge", nodes[i].Name()) }
	encapped := reg.CounterVec("kar_edge_encap_total", len(nodes), byName)
	delivered := reg.CounterVec("kar_edge_decap_total", len(nodes), byName)
	misdelivered := reg.CounterVec("kar_edge_misdelivered_total", len(nodes), byName)
	reencoded := reg.CounterVec("kar_edge_reencode_total", len(nodes), byName)
	unclaimed := reg.CounterVec("kar_edge_unclaimed_total", len(nodes), byName)
	noRoute := reg.CounterVec("kar_edge_noroute_total", len(nodes), byName)
	es := make([]Edge, len(nodes))
	for i, node := range nodes {
		e := &es[i]
		*e = Edge{
			net:           net,
			node:          node,
			ctrl:          ctrl,
			clock:         net.ClockOf(node),
			reencodeDelay: DefaultReencodeDelay,
			cEncapped:     net.DeferCounter(node, &encapped[i]),
			cDelivered:    net.DeferCounter(node, &delivered[i]),
			cMisdelivered: &misdelivered[i],
			cReencoded:    &reencoded[i],
			cUnclaimed:    &unclaimed[i],
			cNoRoute:      &noRoute[i],
		}
		for _, opt := range opts {
			opt(e)
		}
		net.Bind(node, e)
	}
	return es
}

// Node returns the bound topology node.
func (e *Edge) Node() *topology.Node { return e.node }

// InstallRoute programs the ingress mapping: packets for dstEdge get
// route ID id and leave through outPort.
func (e *Edge) InstallRoute(dstEdge string, id rns.RouteID, outPort int) {
	e.InstallRouteWithBaseline(dstEdge, id, outPort, 0)
}

// InstallRouteWithBaseline is InstallRoute plus the encoded path's hop
// count, recorded so journeys can report stretch against it. The
// install lands in the control-plane event log: it is the last
// reaction-chain milestone before post-repair traffic flows.
func (e *Edge) InstallRouteWithBaseline(dstEdge string, id rns.RouteID, outPort int, baselineHops int) {
	if e.routes == nil {
		e.routes = make(map[string]routeEntry)
	}
	e.routes[dstEdge] = routeEntry{id: id, outPort: outPort, baseline: baselineHops}
	e.lastDst = "" // invalidate the Inject lookup cache
	e.net.Events().Record(telemetry.EventIngressInstall, e.node.Name(),
		fmt.Sprintf("dst=%s port=%d", dstEdge, outPort))
}

// Attach registers the local receiver for a flow (the transport
// endpoint terminating at this edge) and its stretch histogram.
func (e *Edge) Attach(flow packet.FlowID, r Receiver) {
	e.hasLastEp = false // invalidate the delivery lookup cache
	reg := e.net.Metrics()
	reg.Help("kar_flow_latency_us", "Per-flow one-way delivery latency of decapsulated packets (µs).")
	if e.local == nil {
		e.local = make(map[packet.FlowID]endpoint)
	}
	e.local[flow] = endpoint{
		r: r,
		stretch: e.net.DeferHistogram(e.node, reg.Histogram(
			"kar_flow_stretch_hops", telemetry.HopBuckets, "flow", flow.String())),
		latency: e.net.DeferHistogram(e.node, reg.Histogram(
			"kar_flow_latency_us", telemetry.LatencyBucketsUs, "flow", flow.String())),
	}
}

// AttachDefault registers a catch-all receiver: packets terminating at
// this edge whose flow has no specific Attach entry are handed to r
// instead of counting as unclaimed. Large flow sets (udpsim.FlowSet)
// use one default receiver per edge and do their own per-flow
// accounting in flat arrays; the per-flow stretch/latency histograms
// of Attach are deliberately skipped (the set keeps aggregates). Pass
// nil to detach.
func (e *Edge) AttachDefault(r Receiver) {
	e.hasLastEp = false // invalidate the delivery lookup cache
	e.defaultEp = endpoint{r: r}
	e.hasDefault = r != nil
}

// Inject encapsulates a locally originated packet — stamps the route
// ID and TTL — and sends it into the core. It returns an error when
// no route is installed for the packet's destination edge.
func (e *Edge) Inject(pkt *packet.Packet) error {
	entry := e.lastRoute
	if e.lastDst != pkt.Flow.Dst {
		var ok bool
		entry, ok = e.routes[pkt.Flow.Dst]
		if !ok {
			e.cNoRoute.Inc()
			return fmt.Errorf("edge %s: no route installed for %s", e.node.Name(), pkt.Flow.Dst)
		}
		e.lastDst, e.lastRoute = pkt.Flow.Dst, entry
	}
	pkt.RouteID = entry.id
	pkt.TTL = packet.DefaultTTL
	pkt.Deflected = false
	if t := e.net.Trace(); t != nil {
		pkt.Sampled = t.SampleFlow(pkt.Flow)
		if pkt.Sampled {
			t.PacketInject(pkt, e.node.Name(), entry.outPort, entry.baseline)
		}
	}
	e.cEncapped.Inc()
	e.net.Send(e.node, entry.outPort, pkt)
	return nil
}

// HandlePacket implements simnet.Handler. Packets addressed to this
// edge are decapsulated and handed to the attached receiver; others
// are misdeliveries, re-encoded via the controller after the
// control-plane delay and returned to the network.
func (e *Edge) HandlePacket(pkt *packet.Packet, inPort int) {
	if pkt.Flow.Dst == e.node.Name() {
		pkt.RouteID = rns.RouteID{} // decap
		ep := e.lastEp
		if !e.hasLastEp || e.lastFlow != pkt.Flow {
			var ok bool
			ep, ok = e.local[pkt.Flow]
			if !ok {
				if !e.hasDefault {
					e.cUnclaimed.Inc()
					e.net.Drop(pkt, simnet.DropNoPort, e.node)
					return
				}
				ep = e.defaultEp
			}
			e.lastFlow, e.lastEp, e.hasLastEp = pkt.Flow, ep, true
		}
		e.cDelivered.Inc()
		if ep.stretch != nil {
			ep.stretch.Observe(float64(pkt.Hops))
		}
		if ep.latency != nil && pkt.SentAt > 0 {
			// Whole microseconds: integral sums keep metric exports
			// byte-identical across worker counts.
			ep.latency.Observe(float64((e.clock.Now() - pkt.SentAt) / time.Microsecond))
		}
		if pkt.Sampled {
			if t := e.net.Trace(); t != nil {
				t.PacketDecap(pkt, e.node.Name())
			}
		}
		ep.r.Deliver(pkt)
		return
	}

	// Misdelivery: a deflected packet random-walked to the wrong edge.
	e.cMisdelivered.Inc()
	if e.ctrl == nil {
		e.net.Drop(pkt, simnet.DropNoViablePort, e.node)
		return
	}
	if e.reencodeFn == nil {
		e.reencodeFn = e.reencodeNext
	}
	e.pending = append(e.pending, pkt)
	e.clock.After(e.reencodeDelay, e.reencodeFn)
}

// reencodeNext returns the oldest pending misdelivery to the network
// under a fresh route ID from the controller.
func (e *Edge) reencodeNext() {
	pkt := e.pending[e.pendHead]
	e.pendHead++
	if 2*e.pendHead >= len(e.pending) {
		// Mostly (or wholly) drained: slide the live tail down, so the
		// slice stays within twice the backlog and pins no sent packet.
		n := copy(e.pending, e.pending[e.pendHead:])
		clear(e.pending[n:])
		e.pending, e.pendHead = e.pending[:n], 0
	}
	id, outPort, err := e.ctrl.ReencodeRouteAt(e.clock.Now(), e.node.Name(), pkt.Flow.Dst)
	if err != nil {
		e.net.Drop(pkt, simnet.DropNoViablePort, e.node)
		return
	}
	pkt.RouteID = id
	pkt.TTL = packet.DefaultTTL
	pkt.Deflected = false // back on an encoded path
	e.cReencoded.Inc()
	if !e.loggedReencode[pkt.Flow] {
		if e.loggedReencode == nil {
			e.loggedReencode = make(map[packet.FlowID]bool)
		}
		e.loggedReencode[pkt.Flow] = true
		// Explicit timestamp: this callback may run on a shard lane
		// whose clock is ahead of the event log's control clock.
		e.net.Events().RecordAt(e.clock.Now(), telemetry.EventReencode, e.node.Name(), pkt.Flow.String())
	}
	if pkt.Sampled {
		if t := e.net.Trace(); t != nil {
			t.PacketReencode(pkt, e.node.Name(), outPort)
		}
	}
	e.net.Send(e.node, outPort, pkt)
}
