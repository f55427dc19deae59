package topology

import (
	"errors"
	"fmt"
	"slices"
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
// routing). ShortestPath takes nil for it and runs the bidirectional
// hop-count search; passing HopWeight runs Dijkstra, which returns the
// same path and is that search's test oracle.
func HopWeight(*Link) float64 { return 1 }

// pathSearch is the reusable scratch state of one search: for
// Dijkstra, dist, prev and done keyed by Node.Index() and a 4-ary
// min-heap of node indexes; for the hop-count search, a ball grown from
// each endpoint. An epoch stamp means arrays never need clearing
// between searches. Steady state allocates nothing.
type pathSearch struct {
	dist []float64
	prev []int32 // predecessor node index; -1 at the source
	// stamp[i] == epoch marks dist/prev[i] valid; doneAt[i] == epoch
	// marks node i finalised.
	stamp    []uint32
	doneAt   []uint32
	heap     []int32
	fwd, bwd ball
	epoch    uint32
}

// ball holds the nodes within r hops of its centre: at[i] == epoch
// puts node i in it, d[i] hops out; q lists them in level order, the
// outermost level from q[lo].
type ball struct {
	at   []uint32
	d, q []int32
	lo   int
	r    int32
}

var searchPool = sync.Pool{New: func() any { return new(pathSearch) }}

// begin sizes the arrays for n nodes and opens a fresh epoch; when the
// epoch wraps, fresh arrays stand in for clearing stale stamps.
func (s *pathSearch) begin(n int) {
	s.heap = s.heap[:0]
	if s.epoch++; cap(s.dist) < n || s.epoch == 0 {
		newBall := func() ball { return ball{at: make([]uint32, n), d: make([]int32, n), q: make([]int32, 0, n)} }
		*s = pathSearch{dist: make([]float64, n), prev: make([]int32, n), stamp: make([]uint32, n),
			doneAt: make([]uint32, n), fwd: newBall(), bwd: newBall(), epoch: 1}
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
// source and `to` are neither relaxed into nor expanded (no transit
// through customer edges, per the paper's core/edge split); when `to`
// is non-nil the search stops as soon as it is finalised, and when it
// is nil (ShortestPathTree) no edge forwards toward the root.
func (s *pathSearch) run(g *Graph, from, to *Node, weight WeightFunc) {
	s.begin(len(g.order))
	s.relax(int32(from.idx), 0, -1)
	for len(s.heap) > 0 {
		ci := s.pop()
		if s.done(ci) {
			continue // stale duplicate
		}
		s.doneAt[ci] = s.epoch
		cur := g.order[ci]
		if cur == to {
			return
		}
		for _, l := range cur.ports {
			if l == nil {
				continue
			}
			next := l.Other(cur)
			if next.kind == KindEdge && next != from && next != to {
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

// start makes node i the ball's centre.
func (b *ball) start(i int32, epoch uint32) {
	b.at[i], b.d[i] = epoch, 0
	b.q, b.lo, b.r = append(b.q[:0], i), 0, 0
}

// grow adds the ball's next level, skipping edge nodes other than gate
// (the far endpoint), and reports whether the new level touches other.
func (b *ball) grow(g *Graph, gate *Node, other *ball, epoch uint32) (touched bool) {
	hi := len(b.q)
	for _, ci := range b.q[b.lo:hi] {
		cur := g.order[ci]
		for _, l := range cur.ports {
			if l == nil {
				continue
			}
			next := l.Other(cur)
			if ni := int32(next.idx); b.at[ni] != epoch && (next.kind != KindEdge || next == gate) {
				b.at[ni], b.d[ni] = epoch, b.r+1
				b.q = append(b.q, ni)
				touched = touched || other.at[ni] == epoch
			}
		}
	}
	b.lo, b.r = hi, b.r+1
	return touched
}

// appendHopPath appends the hop-count shortest path from → to (distinct
// nodes) that Dijkstra's (dist, Node.Index()) pop order picks: each
// node's predecessor is its lowest-index switch (or from) neighbour one
// hop nearer from. It reports false when there is no path.
func (s *pathSearch) appendHopPath(buf []*Node, g *Graph, from, to *Node) ([]*Node, bool) {
	s.begin(len(g.order))
	f, b, e := &s.fwd, &s.bwd, s.epoch
	f.start(int32(from.idx), e)
	b.start(int32(to.idx), e)
	// Grow the smaller frontier a full level at a time until the balls
	// touch: the touching nodes are then the layer f.r hops from from
	// and b.r hops from to of every f.r + b.r hop path.
	for touched := false; !touched; {
		if f.lo == len(f.q) || b.lo == len(b.q) {
			return buf, false
		}
		if len(f.q)-f.lo <= len(b.q)-b.lo {
			touched = f.grow(g, to, b, e)
		} else {
			touched = b.grow(g, from, f, e)
		}
	}
	// Extend the forward distances, a level at a time inwards, over the
	// backward ball's nodes on a shortest path: those with a neighbour
	// one hop nearer from. b.q[:b.lo] backwards is those levels in turn.
	hops := f.r + b.r
	for k := b.lo - 1; k >= 0; k-- {
		wi := b.q[k]
		w := g.order[wi]
		for _, l := range w.ports {
			if ui := otherIndex(l, w); ui >= 0 && f.at[ui] == e && f.d[ui] == hops-b.d[wi]-1 {
				f.at[wi], f.d[wi] = e, hops-b.d[wi]
				break
			}
		}
	}
	// Walk back from to, taking the lowest-index neighbour one hop
	// nearer from.
	base := len(buf)
	buf = slices.Grow(buf, int(hops)+1)[:base+int(hops)+1]
	buf[base+int(hops)] = to
	for k, v := hops, to; k > 0; k-- {
		best := int32(len(g.order))
		for _, l := range v.ports {
			if ui := otherIndex(l, v); ui >= 0 && ui < best && f.at[ui] == e && f.d[ui] == k-1 {
				best = ui
			}
		}
		v = g.order[best]
		buf[base+int(k)-1] = v
	}
	return buf, true
}

// otherIndex is the index of the node across port link l from n, or -1
// for an empty port.
func otherIndex(l *Link, n *Node) int32 {
	if l == nil {
		return -1
	}
	return int32(l.Other(n).idx)
}

// ShortestPath finds a shortest path from src to dst: by hop count
// when weight is nil, else by Dijkstra under weight. Edge nodes other
// than src and dst are never used as transit — the paper's core/edge
// split means traffic cannot cut through a customer edge.
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
//
// A nil weight runs a bidirectional breadth-first search, which visits
// the two balls that meet rather than the whole graph; it returns the
// path Dijkstra under HopWeight returns, tie-break included.
func AppendShortestPath(buf []*Node, g *Graph, src, dst string, weight WeightFunc) ([]*Node, error) {
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
	if weight == nil {
		if buf, ok = s.appendHopPath(buf, g, from, to); !ok {
			return buf, fmt.Errorf("%s -> %s: %w", src, dst, ErrNoPath)
		}
		return buf, nil
	}
	s.run(g, from, to, weight)
	if !s.done(int32(to.idx)) {
		return buf, fmt.Errorf("%s -> %s: %w", src, dst, ErrNoPath)
	}
	base := len(buf)
	for i := int32(to.idx); i >= 0; i = s.prev[i] {
		buf = append(buf, g.order[i])
	}
	slices.Reverse(buf[base:])
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
	s.run(g, r, nil, weight)

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
