// Package kar is a from-scratch implementation of KAR
// (Key-for-Any-Route), the resilient intra-domain routing system of
// Gomes et al. (IEEE/IFIP DSN-W 2016), together with the complete
// simulation substrate its evaluation requires.
//
// KAR encodes an entire forwarding path — and its protection detours —
// into a single integer route ID using the Residue Number System:
// switch s forwards a packet carrying route ID R out of port R mod s.
// Core switches keep no forwarding state; resilience comes from
// deflection routing guided by extra residues embedded in the same
// route ID ("driven deflections").
//
// # Layout
//
// The facade re-exports the library's main entry points; the full API
// lives in the internal packages:
//
//   - rns       — CRT route-ID arithmetic (§2.2–2.3 of the paper)
//   - coprime   — switch-ID allocation
//   - topology  — graph model + the paper's three topologies
//   - core      — route encoding and protection planning
//   - deflect   — HP / AVP / NIP deflection policies (§2.1), plus deterministic dtree
//   - packet    — packets and the KAR shim header codec
//   - simnet    — deterministic discrete-event network simulator
//   - kswitch   — the KAR core switch
//   - edge      — edge nodes (encap/decap, misdelivery re-encode)
//   - controller— routing, protection, re-encoding
//   - tcpsim    — TCP Reno/NewReno endpoints (the paper's iperf)
//   - udpsim    — CBR flows and delivery/stretch metrics
//   - trace     — causal flight recorder (the role of the paper's tcpdump)
//   - analysis  — closed-form Markov analysis of deflection walks
//   - tablefwd  — stateful fast-failover baseline (Table 2)
//   - measure   — statistics, confidence intervals, tables
//   - experiment— one named experiment per table/figure of §3
//
// # Quickstart
//
// Reproduce the paper's Fig. 1 numbers:
//
//	sys, _ := kar.NewRNS([]uint64{4, 7, 11})
//	r, _ := sys.Encode([]uint64{0, 2, 0}) // → route ID 44
//
// Build the six-node example network, fail a link, and watch driven
// deflection keep packets flowing — see examples/quickstart.
package kar

import (
	"repro/internal/analysis"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/deflect"
	"repro/internal/edge"
	"repro/internal/experiment"
	"repro/internal/kswitch"
	"repro/internal/measure"
	"repro/internal/packet"
	"repro/internal/rns"
	"repro/internal/simnet"
	"repro/internal/tcpsim"
	"repro/internal/topology"
	"repro/internal/udpsim"
)

// Core routing types.
type (
	// RouteID is the integer carried in the KAR packet header.
	RouteID = rns.RouteID
	// RNS is a fixed basis of pairwise-coprime switch IDs.
	RNS = rns.System
	// Route is an encoded route: path + protection + route ID. It is
	// immutable: the worlds on one graph share their routes.
	Route = core.Route
	// Hop is one encoded (switch, output port) pair.
	Hop = core.Hop
	// Graph is a KAR topology.
	Graph = topology.Graph
	// Node is a switch or edge node.
	Node = topology.Node
	// Link is an undirected network link.
	Link = topology.Link
	// Path is a node sequence.
	Path = topology.Path
	// Policy is a deflection technique (§2.1).
	Policy = deflect.Policy
	// Packet is one simulated packet.
	Packet = packet.Packet
	// Header is the KAR shim header wire format.
	Header = packet.Header
	// FlowID identifies a unidirectional transport flow.
	FlowID = packet.FlowID
)

// Simulation types.
type (
	// Network is a live simulated network over a Graph.
	Network = simnet.Network
	// Scheduler is the virtual-time event loop.
	Scheduler = simnet.Scheduler
	// Controller is the KAR routing brain.
	Controller = controller.Controller
	// Switch is a KAR core switch bound to a simulated node.
	Switch = kswitch.Switch
	// EdgeNode attaches/removes route IDs at the network boundary.
	EdgeNode = edge.Edge
	// World is a fully wired KAR network (switches + edges +
	// controller over a simulator).
	World = experiment.World
	// TCPSender and TCPReceiver are iperf-style TCP endpoints.
	TCPSender   = tcpsim.Sender
	TCPReceiver = tcpsim.Receiver
	// TCPConfig tunes the transport.
	TCPConfig = tcpsim.Config
	// CBRSender and CBRReceiver are constant-bit-rate endpoints.
	CBRSender   = udpsim.Sender
	CBRReceiver = udpsim.Receiver
	// WalkAnalyzer computes closed-form deflection-walk properties.
	WalkAnalyzer = analysis.Analyzer
	// Table is a renderable result table.
	Table = measure.Table
	// Summary is a sample summary with a 95% confidence interval.
	Summary = measure.Summary
)

// NewRNS validates a pairwise-coprime basis and returns its RNS
// system (paper Eq. 1–9).
func NewRNS(moduli []uint64) (*RNS, error) { return rns.NewSystem(moduli) }

// EncodeRoute encodes an edge-to-edge path plus protection hops into
// a route ID.
func EncodeRoute(path Path, protection []Hop) (*Route, error) {
	return core.EncodeRoute(path, protection)
}

// Forward is the entire KAR core data plane: the output port of a
// switch with the given ID for a packet carrying route ID r.
func Forward(r RouteID, switchID uint64) int { return core.Forward(r, switchID) }

// PlanProtection computes driven-deflection hops for a path under a
// route-ID bit budget (§2.3); budget 0 means complete protection.
func PlanProtection(g *Graph, path Path, maxBits int) ([]Hop, error) {
	return core.PlanProtection(g, path, core.PlanOptions{MaxBits: maxBits})
}

// PolicyByName resolves "none", "hp", "avp", "nip" or "dtree".
func PolicyByName(name string) (Policy, bool) { return deflect.ByName(name) }

// ShortestPath finds a hop-count shortest path between two named nodes
// by bidirectional breadth-first search; of equal paths it takes the
// one whose every node's predecessor has the lowest index.
func ShortestPath(g *Graph, src, dst string) (Path, error) {
	return topology.ShortestPath(g, src, dst, nil)
}

// Topologies evaluated in the paper.
var (
	// Fig1 builds the six-node worked example (R = 44 / 660).
	Fig1 = topology.Fig1
	// Net15 builds the 15-node network of Fig. 2 / Table 1.
	Net15 = topology.Net15
	// RNP28 builds the 28-node Brazilian backbone of Fig. 6.
	RNP28 = topology.RNP28
	// RNP28Fig8 is the Fig. 8 host placement of the same backbone.
	RNP28Fig8 = topology.RNP28Fig8
)

// NewGraph starts an empty topology.
func NewGraph(name string) *Graph { return topology.New(name) }

// The paper's named protection sets, as (switch → neighbour) pairs
// accepted by World.InstallRoute.
var (
	// Net15PartialProtection covers the SW11→SW19→SW27→SW29 corridor.
	Net15PartialProtection = topology.Net15PartialProtection
	// Net15FullProtection additionally drives the 17/37/47 cluster.
	Net15FullProtection = topology.Net15FullProtection
	// RNP28PartialProtection is the Fig. 6 segment set.
	RNP28PartialProtection = topology.RNP28PartialProtection
	// RNP28Fig8Protection is the Fig. 8 retry-loop protection.
	RNP28Fig8Protection = topology.RNP28Fig8Protection
)

// NewWorld wires a complete KAR network over g: one switch per core
// (running the policy with seeded RNGs), one edge node per edge, and
// a controller in the paper's ignore-failures mode. Close the world
// (World.Close) once its results are read: its in-flight packets and
// train rings go back to the process-wide depots for the next world.
func NewWorld(g *Graph, policy Policy, seed int64) *World {
	return experiment.NewWorld(g, policy, seed)
}

// NewTCPFlow attaches an iperf-style TCP flow between two edges of a
// world. Routes for both directions must already be installed.
func NewTCPFlow(w *World, flow FlowID, cfg TCPConfig) (*TCPSender, *TCPReceiver) {
	return tcpsim.NewFlow(w.Net, w.Edges[flow.Src], w.Edges[flow.Dst], flow, cfg)
}

// NewCBRFlow attaches a constant-bit-rate flow between two edges.
func NewCBRFlow(w *World, flow FlowID, cfg udpsim.Config) (*CBRSender, *CBRReceiver) {
	return udpsim.NewFlow(w.Net, w.Edges[flow.Src], w.Edges[flow.Dst], flow, cfg)
}

// Experiment entry points — one per table/figure of the paper's §3.
var (
	// Table1 regenerates the encoding-size table.
	Table1 = experiment.Table1
	// Fig4 regenerates the failure-timeline figure.
	Fig4 = experiment.Fig4
	// Fig5 regenerates the protection × deflection × location sweep.
	Fig5 = experiment.Fig5
	// Fig7 regenerates the RNP failure sweep.
	Fig7 = experiment.Fig7
	// Fig8 regenerates the redundant-path worst case.
	Fig8 = experiment.Fig8
	// Table2Qualitative reproduces the paper's comparison table.
	Table2Qualitative = experiment.Table2Qualitative
	// Table2Quantitative measures the stateless-vs-stateful contrast.
	Table2Quantitative = experiment.Table2Quantitative
	// Coverage runs the closed-form deflection-walk analysis.
	Coverage = experiment.Coverage
)
