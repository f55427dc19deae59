// Package tablefwd implements the stateful baseline KAR is compared
// against in Table 2: destination-based forwarding tables with
// precomputed loop-free backup next-hops, switched locally on port
// failure — the OpenFlow fast-failover / MPLS-FRR family. It exists to
// quantify the paper's stateless-vs-stateful contrast: a table switch
// carries one entry per destination edge (plus backups), a KAR switch
// carries a single integer ID.
package tablefwd

import (
	"fmt"
	"math"

	"repro/internal/packet"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// entry is one forwarding-table row.
type entry struct {
	primary int
	backup  int // -1 when no loop-free alternate exists
}

// Switch is a table-based core switch with local fast failover.
type Switch struct {
	net   *simnet.Network
	node  *topology.Node
	table map[string]entry // destination edge name → ports
}

var _ simnet.Handler = (*Switch)(nil)

// StateEntries returns the number of forwarding-table rows — the
// quantity Table 2 contrasts with KAR's zero-table core.
func (s *Switch) StateEntries() int { return len(s.table) }

// HandlePacket forwards by destination lookup, failing over to the
// backup port when the primary is down.
func (s *Switch) HandlePacket(pkt *packet.Packet, inPort int) {
	pkt.TTL--
	if pkt.TTL <= 0 {
		s.net.Drop(pkt, simnet.DropTTL, s.node)
		return
	}
	e, ok := s.table[pkt.Flow.Dst]
	if !ok {
		s.net.Drop(pkt, simnet.DropNoViablePort, s.node)
		return
	}
	if s.net.PortUp(s.node, e.primary) {
		s.net.Send(s.node, e.primary, pkt)
		return
	}
	if e.backup >= 0 && s.net.PortUp(s.node, e.backup) {
		s.net.Send(s.node, e.backup, pkt)
		return
	}
	s.net.Drop(pkt, simnet.DropNoViablePort, s.node)
}

// InstallAll builds one table switch per core node, with tables
// computed for every edge destination: the primary port follows the
// shortest-path tree toward the destination; the backup is the best
// link-protecting loop-free alternate (RFC 5286), as fast-failover
// deployments precompute.
func InstallAll(net *simnet.Network) (map[string]*Switch, error) {
	g := net.Topology()
	switches := make(map[string]*Switch, len(g.CoreNodes()))
	for _, n := range g.CoreNodes() {
		switches[n.Name()] = &Switch{net: net, node: n, table: make(map[string]entry)}
	}

	for _, dst := range g.EdgeNodes() {
		tree, err := topology.ShortestPathTree(g, dst.Name(), nil)
		if err != nil {
			return nil, fmt.Errorf("tablefwd: tree toward %s: %w", dst, err)
		}
		// Hop distances toward dst, derived from the tree.
		dist := make(map[*topology.Node]int, len(tree))
		var distTo func(n *topology.Node) int
		distTo = func(n *topology.Node) int {
			if n == dst {
				return 0
			}
			if d, ok := dist[n]; ok {
				return d
			}
			l, ok := tree[n]
			if !ok {
				return math.MaxInt
			}
			d := 1 + distTo(l.Other(n))
			dist[n] = d
			return d
		}

		for _, n := range g.CoreNodes() {
			l, ok := tree[n]
			if !ok {
				continue // dst unreachable from n
			}
			primary := l.PortOf(n)
			backup := -1
			best := math.MaxInt
			for _, alt := range n.Links() {
				if alt == l {
					continue
				}
				nb := alt.Other(n)
				if nb.Kind() == topology.KindEdge && nb != dst {
					continue
				}
				// Link-protecting LFA (RFC 5286 inequality 1):
				// dist(N, D) < dist(N, S) + dist(S, D) ensures the
				// neighbour's own shortest path to D avoids S, hence
				// also the failed S-adjacent link — loop-free under a
				// single link failure.
				if d := distTo(nb); d < 1+distTo(n) && d < best {
					best = d
					backup = alt.PortOf(n)
				}
			}
			sw := switches[n.Name()]
			sw.table[dst.Name()] = entry{primary: primary, backup: backup}
		}
	}
	for _, sw := range switches {
		net.Bind(sw.node, sw)
	}
	return switches, nil
}

// TotalStateEntries sums table rows across switches.
func TotalStateEntries(switches map[string]*Switch) int {
	total := 0
	for _, sw := range switches {
		total += sw.StateEntries()
	}
	return total
}
