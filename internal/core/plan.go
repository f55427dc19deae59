package core

import (
	"fmt"
	"math/big"
	"slices"

	"repro/internal/topology"
)

// PlanOptions tunes automatic driven-deflection protection planning.
type PlanOptions struct {
	// MaxBits caps the route-ID bit length (the header budget of
	// §2.3). Zero means unlimited — complete protection: every core
	// switch off the route receives a residue.
	MaxBits int
}

// PlanProtection computes driven-deflection forwarding hops for a
// route, implementing the paper's protection concept generally:
//
//   - A shortest-path tree rooted at the destination core switch gives
//     every off-route switch one output port that leads to the
//     destination — the "logical tree with its root at destination"
//     of §2 and the one-port-per-switch constraint of §3.2.
//   - Candidates are ranked by deflection reachability: direct
//     neighbours of route switches first (they receive deflected
//     packets with one hop), then their neighbours, and so on.
//   - Hops are added greedily while the route-ID bit length stays
//     within MaxBits, realising §2.3's partial protection ("instead of
//     setting the alternative paths entirely, one can set part of
//     them").
//
// The returned hops never duplicate a route switch.
func PlanProtection(g *topology.Graph, path topology.Path, opts PlanOptions) ([]Hop, error) {
	return NewPlanner(g, nil).Plan(path, opts)
}

// Planner plans destination-rooted protection with a keyed cache of
// shortest-path trees: one tree per destination core switch, built on
// first use and shared by every route toward that destination. A
// controller installing all-pairs routes touches each destination many
// times (one per source); the cache makes per-destination protection
// cost one tree search per root instead of one per route.
type Planner struct {
	g     *topology.Graph
	avoid func(*topology.Link) bool
	trees map[string]map[*topology.Node]*topology.Link
}

// NewPlanner builds a planner over g. Its protection trees leave out
// the links avoid rules out (nil: none) — every caller passes nil.
func NewPlanner(g *topology.Graph, avoid func(*topology.Link) bool) *Planner {
	return &Planner{g: g, avoid: avoid, trees: make(map[string]map[*topology.Node]*topology.Link)}
}

// Tree returns the destination-rooted shortest-path tree for root,
// computing and caching it on first use.
func (p *Planner) Tree(root string) (map[*topology.Node]*topology.Link, error) {
	if t, ok := p.trees[root]; ok {
		return t, nil
	}
	t, err := topology.ShortestPathTree(p.g, root, p.avoid)
	if err != nil {
		return nil, err
	}
	p.trees[root] = t
	return t, nil
}

// Plan is PlanProtection against the planner's tree cache: the
// protection set for path is rooted at path's own destination core, so
// every route gets a tree pointing at its own destination — A→B and
// B→A receive symmetric guarantees.
func (p *Planner) Plan(path topology.Path, opts PlanOptions) ([]Hop, error) {
	primary, err := primaryHops(make([]Hop, 0, len(path.Nodes)), path)
	if err != nil {
		return nil, err
	}
	dstCore := primary[len(primary)-1].Switch
	tree, err := p.Tree(dstCore.Name())
	if err != nil {
		return nil, err
	}
	g := p.g

	onRoute := make(map[*topology.Node]bool, len(primary))
	product := big.NewInt(1)
	for _, h := range primary {
		onRoute[h.Switch] = true
		product.Mul(product, new(big.Int).SetUint64(h.Switch.ID()))
	}
	if opts.MaxBits > 0 && bitLen(product) > opts.MaxBits {
		return nil, fmt.Errorf("route alone needs %d bits, budget %d: %w",
			bitLen(product), opts.MaxBits, ErrBudgetTooSmall)
	}

	var hops []Hop
	trial := new(big.Int)
	for _, cand := range deflectionOrder(g, primary, onRoute) {
		link, ok := tree[cand]
		if !ok {
			continue // cannot reach the destination at all
		}
		trial.Mul(product, new(big.Int).SetUint64(cand.ID()))
		if opts.MaxBits > 0 && bitLen(trial) > opts.MaxBits {
			continue // try a cheaper candidate further down the ranking
		}
		product.Set(trial)
		hops = append(hops, Hop{Switch: cand, Port: link.PortOf(cand)})
	}
	return hops, nil
}

// bitLen is the route-ID size of a basis with product m: the bit
// length of m-1 (Eq. 9).
func bitLen(m *big.Int) int {
	return new(big.Int).Sub(m, big.NewInt(1)).BitLen()
}

// deflectionOrder ranks off-route core switches by BFS distance from
// the route switches — a proxy for how likely a deflected packet is to
// land there. Ties break on node insertion order for determinism.
func deflectionOrder(g *topology.Graph, primary []Hop, onRoute map[*topology.Node]bool) []*topology.Node {
	visited := make([]bool, g.NumNodes())
	frontier := make([]*topology.Node, 0, len(primary))
	for _, h := range primary {
		visited[h.Switch.Index()] = true
		frontier = append(frontier, h.Switch)
	}
	var order []*topology.Node
	for len(frontier) > 0 {
		var layer []*topology.Node
		for _, n := range frontier {
			for p := 0; p < n.PortSpan(); p++ {
				nb, ok := n.Neighbor(p)
				if !ok || visited[nb.Index()] || nb.Kind() != topology.KindCore {
					continue
				}
				visited[nb.Index()] = true
				layer = append(layer, nb)
			}
		}
		slices.SortFunc(layer, func(a, b *topology.Node) int { return a.Index() - b.Index() })
		for _, n := range layer {
			if !onRoute[n] {
				order = append(order, n)
			}
		}
		frontier = layer
	}
	return order
}
