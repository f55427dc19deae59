package topology

import (
	"errors"
	"fmt"
	"math"
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

// pathSearch is the reusable scratch state of one search: a ball grown
// from each endpoint. An epoch stamp means the arrays never need
// clearing between searches. Steady state allocates nothing.
type pathSearch struct {
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

// begin sizes the balls for n nodes and opens a fresh epoch; when the
// epoch wraps, fresh arrays stand in for clearing stale stamps.
func (s *pathSearch) begin(n int) {
	if s.epoch++; len(s.fwd.at) < n || s.epoch == 0 {
		newBall := func() ball { return ball{at: make([]uint32, n), d: make([]int32, n), q: make([]int32, 0, n)} }
		*s = pathSearch{fwd: newBall(), bwd: newBall(), epoch: 1}
	}
}

// start makes node i the ball's centre.
func (b *ball) start(i int32, epoch uint32) {
	b.at[i], b.d[i] = epoch, 0
	b.q, b.lo, b.r = append(b.q[:0], i), 0, 0
}

// grow adds the ball's next level over the links avoid lets through,
// skipping edge nodes other than gate (the far endpoint), and reports
// whether the new level touches other (nil for none).
func (b *ball) grow(g *Graph, gate *Node, other *ball, epoch uint32, avoid func(*Link) bool) (touched bool) {
	hi := len(b.q)
	for _, ci := range b.q[b.lo:hi] {
		cur := g.order[ci]
		for _, l := range cur.ports {
			if !usable(l, avoid) {
				continue
			}
			next := l.Other(cur)
			if ni := int32(next.idx); b.at[ni] != epoch && (next.kind != KindEdge || next == gate) {
				b.at[ni], b.d[ni] = epoch, b.r+1
				b.q = append(b.q, ni)
				touched = touched || other != nil && other.at[ni] == epoch
			}
		}
	}
	b.lo, b.r = hi, b.r+1
	return touched
}

// nearer returns v's port link to its lowest-index neighbour that the
// ball holds d hops out, over the links avoid lets through; nil if
// there is none.
func (b *ball) nearer(v *Node, d int32, epoch uint32, avoid func(*Link) bool) (best *Link) {
	bi := int32(math.MaxInt32)
	for _, l := range v.ports {
		if !usable(l, avoid) {
			continue
		}
		if ui := int32(l.Other(v).idx); ui < bi && b.at[ui] == epoch && b.d[ui] == d {
			bi, best = ui, l
		}
	}
	return best
}

// appendHopPath appends a hop-count shortest path from → to (distinct
// nodes) over the links avoid lets through: the one on which each
// node's predecessor is its lowest-index switch (or from) neighbour one
// hop nearer from, as Dijkstra's (dist, Node.Index()) pop order picks.
// It reports false when there is no path.
func (s *pathSearch) appendHopPath(buf []*Node, g *Graph, from, to *Node, avoid func(*Link) bool) ([]*Node, bool) {
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
			touched = f.grow(g, to, b, e, avoid)
		} else {
			touched = b.grow(g, from, f, e, avoid)
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
			if !usable(l, avoid) {
				continue
			}
			if ui := l.Other(w).idx; f.at[ui] == e && f.d[ui] == hops-b.d[wi]-1 {
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
		v = f.nearer(v, k-1, e, avoid).Other(v)
		buf[base+int(k)-1] = v
	}
	return buf, true
}

// usable reports whether port link l exists and avoid lets it through.
func usable(l *Link, avoid func(*Link) bool) bool {
	return l != nil && (avoid == nil || !avoid(l))
}

// ShortestPath finds a hop-count shortest path from src to dst over
// the links avoid lets through (nil: every link). Edge nodes other
// than src and dst are never used as transit — the paper's core/edge
// split means traffic cannot cut through a customer edge.
func ShortestPath(g *Graph, src, dst string, avoid func(*Link) bool) (Path, error) {
	nodes, err := AppendShortestPath(nil, g, src, dst, avoid)
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
// It runs a bidirectional breadth-first search, which visits the two
// balls that meet rather than the whole graph, and breaks ties as
// Dijkstra popping by (dist, Node.Index()) would: each node's
// predecessor is its lowest-index neighbour one hop nearer src.
func AppendShortestPath(buf []*Node, g *Graph, src, dst string, avoid func(*Link) bool) ([]*Node, error) {
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
	if buf, ok = s.appendHopPath(buf, g, from, to, avoid); !ok {
		return buf, fmt.Errorf("%s -> %s: %w", src, dst, ErrNoPath)
	}
	return buf, nil
}

// ShortestPathTree computes, for every node that can reach root over
// the links avoid lets through (nil: every link), the first link of its
// hop-count shortest path toward root: the link to its lowest-index
// neighbour one hop nearer root. This next-hop tree is the structure
// driven-deflection protection plans are cut from: encoding (switch →
// tree port) guides any deflected packet to the destination. Edge
// nodes are not used as transit and get no entry.
func ShortestPathTree(g *Graph, root string, avoid func(*Link) bool) (map[*Node]*Link, error) {
	r, ok := g.Node(root)
	if !ok {
		return nil, fmt.Errorf("root %q: %w", root, ErrUnknownNode)
	}
	s := searchPool.Get().(*pathSearch)
	defer searchPool.Put(s)
	s.begin(len(g.order))
	b, e := &s.fwd, s.epoch
	b.start(int32(r.idx), e)
	for b.lo < len(b.q) {
		b.grow(g, nil, nil, e, avoid)
	}
	next := make(map[*Node]*Link, len(g.order))
	for _, vi := range b.q[1:] {
		v := g.order[vi]
		next[v] = b.nearer(v, b.d[vi]-1, e, avoid)
	}
	return next, nil
}
