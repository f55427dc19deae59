package topology

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// ErrNoPath indicates the destination is unreachable from the source.
var ErrNoPath = errors.New("topology: no path")

// Path is a loop-free node sequence from source to destination.
type Path struct {
	Nodes []*Node
}

// Hops returns the number of links traversed.
func (p Path) Hops() int {
	if len(p.Nodes) == 0 {
		return 0
	}
	return len(p.Nodes) - 1
}

// Contains reports whether the named node is on the path.
func (p Path) Contains(name string) bool {
	for _, n := range p.Nodes {
		if n.name == name {
			return true
		}
	}
	return false
}

// Links returns the traversed links in order.
func (p Path) Links() []*Link {
	return p.AppendLinks(make([]*Link, 0, p.Hops()))
}

// AppendLinks appends the traversed links in order to dst and returns
// the extended slice — the reuse-friendly form of Links.
func (p Path) AppendLinks(dst []*Link) []*Link {
	for i := 0; i+1 < len(p.Nodes); i++ {
		cur := p.Nodes[i]
		for _, l := range cur.ports {
			if l != nil && l.Other(cur) == p.Nodes[i+1] {
				dst = append(dst, l)
				break
			}
		}
	}
	return dst
}

func (p Path) String() string {
	names := make([]string, len(p.Nodes))
	for i, n := range p.Nodes {
		names[i] = n.name
	}
	return strings.Join(names, "-")
}

// WeightFunc scores a link for shortest-path purposes. It must return
// a positive cost.
type WeightFunc func(*Link) float64

// HopWeight counts every link as cost 1 (the paper's shortest-path
// routing).
func HopWeight(*Link) float64 { return 1 }

// pathSearch is the reusable scratch state of one Dijkstra run: dist,
// prev and done keyed by Node.Index(), a 4-ary min-heap of node
// indexes, and an epoch stamp so arrays never need clearing between
// searches. Steady state allocates nothing.
type pathSearch struct {
	dist []float64
	prev []int32 // predecessor node index; -1 at the source
	// stamp[i] == epoch marks dist/prev[i] valid; doneAt[i] == epoch
	// marks node i finalised.
	stamp  []uint32
	doneAt []uint32
	heap   []int32
	epoch  uint32
}

var searchPool = sync.Pool{New: func() any { return new(pathSearch) }}

// begin sizes the arrays for n nodes and opens a fresh epoch.
func (s *pathSearch) begin(n int) {
	if cap(s.dist) < n {
		s.dist = make([]float64, n)
		s.prev = make([]int32, n)
		s.stamp = make([]uint32, n)
		s.doneAt = make([]uint32, n)
		s.epoch = 0
	}
	s.dist = s.dist[:n]
	s.prev = s.prev[:n]
	s.stamp = s.stamp[:n]
	s.doneAt = s.doneAt[:n]
	s.heap = s.heap[:0]
	s.epoch++
	if s.epoch == 0 { // wrapped: stale stamps could collide, clear once
		for i := range s.stamp {
			s.stamp[i], s.doneAt[i] = 0, 0
		}
		s.epoch = 1
	}
}

// seen reports whether node i has a valid tentative distance.
func (s *pathSearch) seen(i int32) bool { return s.stamp[i] == s.epoch }

// done reports whether node i is finalised.
func (s *pathSearch) done(i int32) bool { return s.doneAt[i] == s.epoch }

// relax records a better tentative distance for node i and pushes it.
// Duplicate heap entries are resolved at pop time via done.
func (s *pathSearch) relax(i int32, d float64, from int32) {
	s.dist[i] = d
	s.prev[i] = from
	s.stamp[i] = s.epoch
	s.push(i)
}

// less orders heap entries by (dist, node index): the node insertion
// index is the deterministic tie-break the whole repository's
// same-seed byte-identity rests on.
func (s *pathSearch) less(a, b int32) bool {
	if s.dist[a] != s.dist[b] {
		return s.dist[a] < s.dist[b]
	}
	return a < b
}

// push and pop implement a 4-ary min-heap over node indexes. The
// shallow tree does ~half the sift-down levels of a binary heap, and
// a plain []int32 keeps the hot loop free of interface boxing.
func (s *pathSearch) push(i int32) {
	s.heap = append(s.heap, i)
	c := len(s.heap) - 1
	for c > 0 {
		p := (c - 1) / 4
		if !s.less(s.heap[c], s.heap[p]) {
			break
		}
		s.heap[c], s.heap[p] = s.heap[p], s.heap[c]
		c = p
	}
}

func (s *pathSearch) pop() int32 {
	h := s.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	s.heap = h[:last]
	h = s.heap
	p := 0
	for {
		first := 4*p + 1
		if first >= len(h) {
			break
		}
		best := first
		end := first + 4
		if end > len(h) {
			end = len(h)
		}
		for c := first + 1; c < end; c++ {
			if s.less(h[c], h[best]) {
				best = c
			}
		}
		if !s.less(h[best], h[p]) {
			break
		}
		h[p], h[best] = h[best], h[p]
		p = best
	}
	return top
}

// run executes Dijkstra from node `from`. Edge nodes other than the
// source are never expanded (no transit through customer edges, per
// the paper's core/edge split); when `to` is non-nil the search stops
// as soon as it is finalised. With relaxEdges false, edge nodes other
// than the source are not even relaxed into (the ShortestPathTree
// variant: an edge never forwards toward the root).
func (s *pathSearch) run(g *Graph, from, to *Node, weight WeightFunc, relaxEdges bool) {
	s.begin(len(g.order))
	s.relax(int32(from.idx), 0, -1)
	for len(s.heap) > 0 {
		ci := s.pop()
		if s.done(ci) {
			continue // stale duplicate
		}
		s.doneAt[ci] = s.epoch
		cur := g.order[ci]
		if to != nil && cur == to {
			return
		}
		if cur.kind == KindEdge && cur != from {
			continue // no transit through edges
		}
		for _, l := range cur.ports {
			if l == nil {
				continue
			}
			next := l.Other(cur)
			if !relaxEdges && next.kind == KindEdge && next != from {
				continue
			}
			ni := int32(next.idx)
			nd := s.dist[ci] + weight(l)
			if !s.seen(ni) || nd < s.dist[ni] {
				s.relax(ni, nd, ci)
			}
		}
	}
}

// ShortestPath runs Dijkstra from src to dst under the given weight
// (HopWeight when nil). Edge nodes other than src and dst are never
// used as transit — the paper's core/edge split means traffic cannot
// cut through a customer edge.
func ShortestPath(g *Graph, src, dst string, weight WeightFunc) (Path, error) {
	nodes, err := AppendShortestPath(nil, g, src, dst, weight)
	if err != nil {
		return Path{}, err
	}
	return Path{Nodes: nodes}, nil
}

// AppendShortestPath is ShortestPath writing into buf's backing array
// (grown as needed): with a reused buffer a steady-state search
// allocates nothing. The result aliases buf's storage, so callers
// that retain paths (route installs) must copy or hand over the slice.
func AppendShortestPath(buf []*Node, g *Graph, src, dst string, weight WeightFunc) ([]*Node, error) {
	if weight == nil {
		weight = HopWeight
	}
	from, ok := g.Node(src)
	if !ok {
		return buf, fmt.Errorf("source %q: %w", src, ErrUnknownNode)
	}
	to, ok := g.Node(dst)
	if !ok {
		return buf, fmt.Errorf("destination %q: %w", dst, ErrUnknownNode)
	}
	if from == to {
		return append(buf, from), nil
	}

	s := searchPool.Get().(*pathSearch)
	defer searchPool.Put(s)
	s.run(g, from, to, weight, true)
	ti := int32(to.idx)
	if !s.done(ti) {
		return buf, fmt.Errorf("%s -> %s: %w", src, dst, ErrNoPath)
	}
	// Walk the prev chain to count, then fill the result tail-first.
	n := 0
	for i := ti; i >= 0; i = s.prev[i] {
		n++
	}
	base := len(buf)
	for len(buf) < base+n {
		buf = append(buf, nil)
	}
	for i, k := ti, base+n-1; i >= 0; i, k = s.prev[i], k-1 {
		buf[k] = g.order[i]
	}
	if buf[base] != from {
		return buf[:base], fmt.Errorf("%s -> %s: %w", src, dst, ErrNoPath)
	}
	return buf, nil
}

// ShortestPathTree computes, for every node that can reach root, the
// first link of its shortest path toward root (a next-hop tree rooted
// at root). This is the structure driven-deflection protection plans
// are cut from: encoding (switch → tree port) guides any deflected
// packet to the destination. Edge nodes are not used as transit.
func ShortestPathTree(g *Graph, root string, weight WeightFunc) (map[*Node]*Link, error) {
	if weight == nil {
		weight = HopWeight
	}
	r, ok := g.Node(root)
	if !ok {
		return nil, fmt.Errorf("root %q: %w", root, ErrUnknownNode)
	}

	s := searchPool.Get().(*pathSearch)
	defer searchPool.Put(s)
	s.run(g, r, nil, weight, false)

	next := make(map[*Node]*Link, len(g.order))
	for i, n := range g.order {
		if n == r || !s.seen(int32(i)) {
			continue
		}
		pi := s.prev[i]
		if pi < 0 {
			continue
		}
		// n's first hop toward root is the link to its predecessor.
		prevNode := g.order[pi]
		for _, l := range n.ports {
			if l != nil && l.Other(n) == prevNode {
				next[n] = l
				break
			}
		}
	}
	return next, nil
}
