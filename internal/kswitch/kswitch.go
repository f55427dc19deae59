// Package kswitch implements the KAR core switch for the simulated
// network: the stateless modulo-forwarding pipeline of the paper plus
// a pluggable deflection policy. It corresponds to the authors'
// modified OpenFlow 1.3 user-space software switch (§3) — the entire
// "table" is the switch's own ID.
package kswitch

import (
	"math"

	"repro/internal/core"
	"repro/internal/deflect"
	"repro/internal/packet"
	"repro/internal/rns"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// Deflection causes, as decide classifies them from the encoded port.
const (
	// CauseInvalidPort: the modulo residue names a port index the
	// switch does not have (stale or foreign route ID).
	CauseInvalidPort = "invalid-port"
	// CausePortDown: the encoded port exists but its link is down —
	// the failure case the paper's deflection techniques target.
	CausePortDown = "port-down"
	// CauseInputPort: the encoded port is healthy but is the input
	// port, which the NIP policy refuses (two-node loop avoidance).
	CauseInputPort = "input-port"
	// CauseRandomWalk: the encoded port is usable but the policy
	// deflected anyway (HP keeps random-walking flagged packets).
	CauseRandomWalk = "random-walk"
)

// Dense cause indices: the hot path bumps counters through a small
// array instead of a map keyed by the cause label.
const (
	causeIdxInvalidPort = iota
	causeIdxPortDown
	causeIdxInputPort
	causeIdxRandomWalk
	causeCount
)

// causeNames maps dense indices back to the exported label strings.
var causeNames = [causeCount]string{
	causeIdxInvalidPort: CauseInvalidPort,
	causeIdxPortDown:    CausePortDown,
	causeIdxInputPort:   CauseInputPort,
	causeIdxRandomWalk:  CauseRandomWalk,
}

// Switch is a KAR core switch bound to one topology node. It keeps no
// per-flow state: forwarding is route ID mod switch ID — computed with
// reduction constants derived once at construction, the paper's "one
// modulo per switch" as two multiplications — with the deflection
// policy handling failed or invalid ports. Counters live in the
// network's telemetry registry, labelled by switch name (plus any
// world base labels such as the policy); the hot path holds resolved
// counter cells and never touches the registry.
type Switch struct {
	// First cache line: what every forward reads. The policy's shape
	// over per-port cached lines: an accepted encoded port is forwarded
	// on with no map, no interface call and no RNG, and a shaped
	// fallback scans these lines.
	net    *simnet.Network
	ports  []port
	shape  deflect.Shape
	node   *topology.Node
	policy deflect.Policy

	// One lane-owned deferred cell per series, on every arm of the
	// pipeline: batched or scalar, the packet is handled by an event of
	// this node's lane (or by the control plane between windows), so
	// only one goroutine writes a cell at a time. Readers see counts
	// after a fold: registry reads — dumps, SumCounter, the scenario
	// engine's phase samples — run once RunUntil or Step has returned
	// or inside a control-plane callback, and both fold first; Stats
	// reads each cell's Value, its backing count plus what is pending.
	// The two every forward bumps share the second line.
	received    simnet.DeferredCounter
	forwarded   simnet.DeferredCounter
	rng         xrand.Source // the policy's draws, made straight from the source
	red         rns.Reducer  // precomputed constants for node.ID()
	ttlDrops    simnet.DeferredCounter
	policyDrops simnet.DeferredCounter
	deflections [causeCount]simnet.DeferredCounter
	// clock is the node's lane-local virtual time: event-log records
	// from the forwarding path must carry it, because the global
	// control clock lags inside parallel shard windows.
	clock simnet.Clock

	// Event-log dedup: deflections and policy drops are per-packet
	// (millions per run), so the control-plane log records only the
	// first occurrence per cause / per flow; counters keep the volume.
	// loggedDrop, keyed by the flow's (Src, Dst), is made on the first
	// policy drop.
	loggedDeflect [causeCount]bool
	loggedDrop    map[[2]string]bool
	_             [40]byte // the switches' slab keeps each one's first line whole
}

// port is one output port's cached line and sending direction
// (Network.LineAt); line is nil on a port with no link.
type port struct {
	line *simnet.Line
	dir  uint8
}

// Compile-time interface compliance.
var (
	_ simnet.Handler      = (*Switch)(nil)
	_ simnet.BatchHandler = (*Switch)(nil)
	_ deflect.SwitchView  = view{}
)

// seedStride spaces the per-switch RNG seeds InstallAll derives from
// its base seed.
const seedStride = 7919

// install builds one switch per node — switch i seeded baseSeed +
// i·seedStride — and binds each to the network. The eight series of a
// switch are registered as blocks over all the nodes at once (see
// telemetry.Registry): construction takes the registry mutex a fixed
// number of times and builds no label set.
func install(net *simnet.Network, nodes []*topology.Node, policy deflect.Policy, baseSeed int64) []Switch {
	reg := net.Metrics()
	reg.Help("kar_switch_deflections_total", "Packets deflected off their encoded path, by cause.")
	reg.Help("kar_switch_forwards_total", "Packets forwarded (encoded or deflected).")
	byName := func(i int, dst []string) []string { return append(dst, "switch", nodes[i].Name()) }
	received := reg.CounterVec("kar_switch_received_total", len(nodes), byName)
	forwarded := reg.CounterVec("kar_switch_forwards_total", len(nodes), byName)
	ttlDrops := reg.CounterVec("kar_switch_ttl_expired_total", len(nodes), byName)
	policyDrops := reg.CounterVec("kar_switch_policy_drops_total", len(nodes), byName)
	deflections := reg.CounterVec("kar_switch_deflections_total", len(nodes)*causeCount, func(i int, dst []string) []string {
		return append(dst, "switch", nodes[i/causeCount].Name(), "cause", causeNames[i%causeCount])
	})
	sws := make([]Switch, len(nodes))
	// One slab of per-port line caches for all the switches.
	spans := 0
	for _, node := range nodes {
		spans += node.PortSpan()
	}
	ports := make([]port, spans)
	for i, node := range nodes {
		s := &sws[i]
		*s = Switch{
			net:         net,
			node:        node,
			policy:      policy,
			red:         rns.NewReducer(node.ID()),
			clock:       net.ClockOf(node),
			received:    net.DeferCounter(node, &received[i]),
			forwarded:   net.DeferCounter(node, &forwarded[i]),
			ttlDrops:    net.DeferCounter(node, &ttlDrops[i]),
			policyDrops: net.DeferCounter(node, &policyDrops[i]),
			shape:       policy.Shape(),
		}
		s.rng.Seed(baseSeed + int64(i)*seedStride)
		for c := range s.deflections {
			s.deflections[c] = net.DeferCounter(node, &deflections[i*causeCount+c])
		}
		span := node.PortSpan()
		s.ports, ports = ports[:span:span], ports[span:]
		for p := range s.ports {
			s.ports[p].line, s.ports[p].dir = net.LineAt(node, p)
		}
		net.Bind(node, s)
	}
	return sws
}

// view adapts the switch for deflection policies.
type view struct {
	s *Switch
}

func (v view) SwitchID() uint64 { return v.s.node.ID() }

// Forward computes the encoded output port (Eq. 3). The small-ID
// dispatch is written out so Reducer.Mod64 inlines here: route IDs
// below 2⁶⁴ — every partial-protection encoding — reduce without a
// function call, like the plain % they replace did.
func (v view) Forward(r rns.RouteID) int {
	if u, ok := r.Uint64(); ok {
		return int(v.s.red.Mod64(u))
	}
	return core.ForwardReduced(v.s.red, r)
}
func (v view) NumPorts() int     { return len(v.s.ports) }
func (v view) PortUp(i int) bool { return v.s.portUp(i) }
func (v view) EdgePort(i int) bool {
	l, ok := v.s.node.PortLink(i)
	return ok && l.Other(v.s.node).Kind() == topology.KindEdge
}

// HandlePacket implements simnet.Handler: decrement TTL, reduce the
// route ID to the encoded port, decide, forward.
func (s *Switch) HandlePacket(pkt *packet.Packet, inPort int) {
	s.received.Inc()
	pkt.TTL--
	if pkt.TTL <= 0 {
		s.ttlDrops.Inc()
		s.net.Drop(pkt, simnet.DropTTL, s.node)
		return
	}
	s.decide(pkt, inPort, view{s}.Forward(pkt.RouteID))
}

// BatchReducer implements simnet.BatchHandler: trains bound for this
// switch precompute members' residues with the switch's own reduction
// constants. Port residues ride as uint16, so batching is declined for
// the (unrealistic) switch IDs that exceed it.
func (s *Switch) BatchReducer() (rns.Reducer, bool) {
	return s.red, s.red.Modulus() <= math.MaxUint16
}

// HandleBatchPacket implements simnet.BatchHandler: HandlePacket with
// the modulo already reduced train-side. Packets the batch machinery
// cannot prove equivalent peel out: sampled packets re-enter the full
// scalar pipeline (flight-recorder hooks), and any packet the policy's
// shape does not accept goes on to decide with its residue — the
// deflection, its counters, event-log dedup and RNG draws exactly as
// the scalar path makes them.
func (s *Switch) HandleBatchPacket(pkt *packet.Packet, inPort int, residue uint16) {
	if pkt.Sampled {
		s.HandlePacket(pkt, inPort)
		return
	}
	s.received.Inc()
	pkt.TTL--
	if pkt.TTL <= 0 {
		s.ttlDrops.Inc()
		s.net.Drop(pkt, simnet.DropTTL, s.node)
		return
	}
	port := int(residue)
	if port < len(s.ports) {
		// decide's accepted arm, inlined: forward on the encoded port.
		if p := &s.ports[port]; p.line != nil && p.line.SeenUp() && s.shape.Accepts(port, inPort, pkt.Deflected) {
			s.forwarded.Inc()
			s.net.SendOnLine(p.line, p.dir, pkt)
			return
		}
	}
	s.decide(pkt, inPort, port)
}

// decide is the pipeline shared by both paths once the route ID is
// reduced to the encoded port: choose the output port, account drops
// and deflections, forward. A drop or uniform fallback runs the shape
// over the cached lines and draws from the switch's source directly —
// the shape's contract makes that Decide's answer and draws; a
// deterministic or undeclared fallback is the policy's own Decide.
func (s *Switch) decide(pkt *packet.Packet, inPort, port int) {
	var d deflect.Decision
	switch s.shape.Otherwise {
	case deflect.FallbackDrop, deflect.FallbackUniform, deflect.FallbackUniformNotInput:
		if s.portUp(port) && s.shape.Accepts(port, inPort, pkt.Deflected) {
			d.Port = port
		} else {
			d = s.shape.Fallback(view{s}, inPort, &s.rng)
		}
	default:
		d = s.policy.Decide(view{s}, pkt.RouteID, inPort, pkt.Deflected, &s.rng)
	}
	if d.Drop {
		s.policyDrops.Inc()
		if flow := [2]string{pkt.Flow.Src, pkt.Flow.Dst}; !s.loggedDrop[flow] {
			if s.loggedDrop == nil {
				s.loggedDrop = make(map[[2]string]bool)
			}
			s.loggedDrop[flow] = true
			s.net.Events().RecordAt(s.clock.Now(), telemetry.EventPolicyDrop, s.node.Name(), pkt.Flow.String())
		}
		s.net.Drop(pkt, simnet.DropNoViablePort, s.node)
		return
	}
	if d.Deflected {
		// Why the encoded port was not used: it does not exist, its
		// link is down, it is the (NIP-excluded) input port, or the
		// policy random-walked past a usable port (HP once deflected).
		cause := causeIdxRandomWalk
		switch {
		case port >= len(s.ports):
			cause = causeIdxInvalidPort
		case !s.portUp(port):
			cause = causeIdxPortDown
		case port == inPort:
			cause = causeIdxInputPort
		}
		pkt.Deflected = true
		s.deflections[cause].Inc()
		if !s.loggedDeflect[cause] {
			s.loggedDeflect[cause] = true
			s.net.Events().RecordAt(s.clock.Now(), telemetry.EventDeflect, s.node.Name(), causeNames[cause])
		}
		if pkt.Sampled {
			if t := s.net.Trace(); t != nil {
				t.PacketHop(pkt, s.node.Name(), inPort, port, d.Port, causeNames[cause])
			}
		}
	} else if pkt.Sampled {
		// On-path forward: the port used IS the modulo-encoded port.
		if t := s.net.Trace(); t != nil {
			t.PacketHop(pkt, s.node.Name(), inPort, d.Port, d.Port, "")
		}
	}
	s.forwarded.Inc()
	if l := s.lineAt(d.Port); l != nil {
		s.net.SendOnLine(l, s.ports[d.Port].dir, pkt)
		return
	}
	s.net.Send(s.node, d.Port, pkt) // no link: Send's DropNoPort
}

// lineAt is the cached Network.LineAt(s.node, i): nil for an
// out-of-range or unattached port.
func (s *Switch) lineAt(i int) *simnet.Line {
	if uint(i) >= uint(len(s.ports)) {
		return nil
	}
	return s.ports[i].line
}

// portUp is Network.PortUp(s.node, i) over the per-port line cache:
// the detected state of the port's link, false when there is none.
func (s *Switch) portUp(i int) bool {
	l := s.lineAt(i)
	return l != nil && l.SeenUp()
}

// Node returns the bound topology node.
func (s *Switch) Node() *topology.Node { return s.node }

// InstallAll builds one switch per core node of the network's
// topology, all using the same policy, with per-switch seeds derived
// from baseSeed. It returns them keyed by node name.
func InstallAll(net *simnet.Network, policy deflect.Policy, baseSeed int64) map[string]*Switch {
	cores := net.Topology().CoreNodes()
	sws := install(net, cores, policy, baseSeed)
	out := make(map[string]*Switch, len(cores))
	for i, n := range cores {
		out[n.Name()] = &sws[i]
	}
	return out
}
