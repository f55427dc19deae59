package analysis

import (
	"repro/internal/packet"
	"repro/internal/topology"
)

// walk is Analyze for a policy that never draws: follow the installed
// route, deciding at every core exactly as the data plane's switch
// would (the policy's own Decide on the analyzer's view, nil RNG), drop
// on a dead or invalid port, re-encode at wrong edges with a TTL
// refresh, deliver at dst. A dead ingress link is a loss, as in the
// simulator, whose edge drops a packet sent on a dead link. PDeliver is
// 0 or 1 by construction; a TTL death counts as a loss, exactly like
// the simulator's ttl_expired drop.
func (a *Analyzer) walk(src, dst string) (Result, error) {
	clear(a.consulted)
	route, inPort, up, err := a.ingress(src, dst)
	if err != nil {
		return Result{}, err
	}
	res := Result{BaselineHops: route.Path.Hops(), PDrop: 1}
	if !up {
		return res, nil // the ingress edge sends on a dead link
	}
	id := route.ID
	node := route.Path.Nodes[1]
	deflected := false
	hops := 1 // the ingress edge→first-node traversal
	// Cycle guard: the walk is deterministic, so arriving at a wrong
	// edge twice under the same route ID on the same port proves an
	// infinite loop. Within one encoding the TTL already bounds it; the
	// guard bounds livelock across wrong-edge re-encodes, which refresh
	// the TTL.
	type walkState struct {
		id     string
		node   *topology.Node
		inPort int
	}
	var seen map[walkState]bool // made at the first misdelivery
	for ttl := packet.DefaultTTL; ttl > 0; ttl-- {
		if node.Kind() == topology.KindEdge {
			if node.Name() == dst {
				res.PDeliver, res.PDrop = 1, 0
				res.ExpectedHops = float64(hops)
				return res, nil
			}
			s := walkState{id: id.String(), node: node, inPort: inPort}
			if seen[s] {
				return res, nil // deterministic re-encode livelock
			}
			if seen == nil {
				seen = make(map[walkState]bool)
			}
			seen[s] = true
			// Misdelivery: the controller re-encodes from this edge and
			// the packet leaves with a fresh TTL.
			nid, port, err := a.ctrl.ReencodeRoute(node.Name(), dst)
			if err != nil {
				return res, nil
			}
			l, ok := node.PortLink(port)
			if !ok || !a.linkUp(l) {
				return res, nil
			}
			id = nid
			next := l.Other(node)
			inPort = l.PortOf(next)
			node = next
			deflected = false
			hops++
			ttl = packet.DefaultTTL
			continue
		}
		a.view.node = node
		d := a.policy.Decide(&a.view, id, inPort, deflected, nil)
		if d.Drop {
			return res, nil
		}
		deflected = deflected || d.Deflected
		l, ok := node.PortLink(d.Port)
		if !ok || !a.linkUp(l) {
			return res, nil
		}
		next := l.Other(node)
		inPort = l.PortOf(next)
		node = next
		hops++
	}
	return res, nil // TTL exhausted: a deterministic loop
}
