package topology

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// dijkstra is the reference search the hop-count BFS is held to:
// Dijkstra over unit-cost links, with a 4-ary min-heap of node indexes
// popped by (dist, Node.Index()) — the tie-break the repository's
// same-seed byte identity rests on.
type dijkstra struct {
	dist []int32
	prev []int32 // predecessor node index; -1 at the source, -2 unseen
	done []bool
	heap []int32
}

// less orders heap entries by (dist, node index).
func (s *dijkstra) less(a, b int32) bool {
	if s.dist[a] != s.dist[b] {
		return s.dist[a] < s.dist[b]
	}
	return a < b
}

func (s *dijkstra) push(i int32) {
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

func (s *dijkstra) pop() int32 {
	h := s.heap
	top, last := h[0], len(h)-1
	h[0] = h[last]
	h = h[:last]
	s.heap = h
	for p := 0; ; {
		best := 4*p + 1
		if best >= len(h) {
			break
		}
		for c := best + 1; c < min(best+4, len(h)); c++ {
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

// run searches from node from over the links avoid lets through. Edge
// nodes other than from and to are neither relaxed into nor expanded;
// the search stops once to (nil for a whole tree) is finalised.
// Duplicate heap entries are resolved at pop time.
func (s *dijkstra) run(g *Graph, from, to *Node, avoid func(*Link) bool) {
	n := len(g.order)
	if len(s.dist) != n {
		s.dist, s.prev, s.done = make([]int32, n), make([]int32, n), make([]bool, n)
	}
	clear(s.done)
	for i := range s.prev {
		s.prev[i] = -2
	}
	s.heap = s.heap[:0]
	s.prev[from.idx] = -1
	s.push(int32(from.idx))
	for len(s.heap) > 0 {
		ci := s.pop()
		if s.done[ci] {
			continue
		}
		s.done[ci] = true
		cur := g.order[ci]
		if cur == to {
			return
		}
		for _, l := range cur.ports {
			if l == nil || avoid != nil && avoid(l) {
				continue
			}
			next := l.Other(cur)
			if next.kind == KindEdge && next != from && next != to {
				continue
			}
			ni, nd := int32(next.idx), s.dist[ci]+1
			if s.prev[ni] == -2 || nd < s.dist[ni] {
				s.dist[ni], s.prev[ni] = nd, ci
				s.push(ni)
			}
		}
	}
}

// oraclePath is ShortestPath by Dijkstra on s, for known src and dst.
func (s *dijkstra) oraclePath(g *Graph, src, dst string, avoid func(*Link) bool) (Path, error) {
	from, _ := g.Node(src)
	to, _ := g.Node(dst)
	s.run(g, from, to, avoid)
	if !s.done[to.idx] {
		return Path{}, fmt.Errorf("%s -> %s: %w", src, dst, ErrNoPath)
	}
	var nodes []*Node
	for i := int32(to.idx); i >= 0; i = s.prev[i] {
		nodes = append(nodes, g.order[i])
	}
	slices.Reverse(nodes)
	return Path{Nodes: nodes}, nil
}

// oracleTree is ShortestPathTree by Dijkstra: each node's first usable
// port link to its predecessor toward root.
func oracleTree(g *Graph, root *Node, avoid func(*Link) bool) map[*Node]*Link {
	var s dijkstra
	s.run(g, root, nil, avoid)
	next := make(map[*Node]*Link)
	for i, n := range g.order {
		if n == root || !s.done[i] {
			continue
		}
		prev := g.order[s.prev[i]]
		for _, l := range n.ports {
			if l != nil && (avoid == nil || !avoid(l)) && l.Other(n) == prev {
				next[n] = l
				break
			}
		}
	}
	return next
}

// avoidSome rules out about one link of g in six, chosen by seed
// (a splitmix64 hash of the link index).
func avoidSome(g *Graph, seed int64) func(*Link) bool {
	out := make([]bool, g.NumLinks())
	for i := range out {
		h := uint64(seed) + uint64(i+1)*0x9E3779B97F4A7C15
		h = (h ^ h>>30) * 0xBF58476D1CE4E5B9
		h = (h ^ h>>27) * 0x94D049BB133111EB
		out[i] = (h^h>>31)%6 == 0
	}
	return func(l *Link) bool { return out[l.Index()] }
}

// avoidMiddle rules out the middle link of the unconstrained path from
// src to dst, so a search under it must detour.
func avoidMiddle(tb testing.TB, g *Graph, src, dst string) func(*Link) bool {
	tb.Helper()
	p, err := ShortestPath(g, src, dst, nil)
	if err != nil {
		tb.Fatal(err)
	}
	mid := p.Links()[p.Hops()/2]
	return func(l *Link) bool { return l == mid }
}

// sameHopPath fails t unless the bidirectional hop-count search and the
// Dijkstra oracle (searching on s) agree on the path from src to dst
// under avoid, node for node, and on the error text. The hop search
// writes behind a one-node prefix, which it must leave alone.
func (s *dijkstra) sameHopPath(t *testing.T, g *Graph, src, dst string, avoid func(*Link) bool) error {
	t.Helper()
	prefix := g.order[0]
	buf, gotErr := AppendShortestPath([]*Node{prefix}, g, src, dst, avoid)
	want, wantErr := s.oraclePath(g, src, dst, avoid)
	got := Path{Nodes: buf[1:]}
	if buf[0] != prefix || got.String() != want.String() || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s %s -> %s (avoid %t): hop search %q (%v), Dijkstra %q (%v)",
			g.Name(), src, dst, avoid != nil, got, gotErr, want, wantErr)
	}
	return gotErr
}

// hopSearchGraphs is the canned topologies, generated ones, and two
// hand-built graphs: split, whose switches meet only through an edge,
// and detour (last), in which edge E is a two-hop shortcut between A
// and B that no route may take.
func hopSearchGraphs(t *testing.T) []*Graph {
	t.Helper()
	names := []string{"fig1", "net15", "rnp28", "rnp28-fig8",
		"fattree:4", "fattree:8", "fattree:12", "clos:6:3", "clos:8:4",
		"isp:40:2:8:1", "isp:60:3:8:1",
		"rand:5:2:3:11", "rand:12:4:6:9", "rand:28:12:3:3",
		"rand:48:72:12:5", "rand:50:40:4:4", "rand:64:128:24:7"}
	graphs := make([]*Graph, 0, len(names)+2)
	for _, name := range names {
		g, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		graphs = append(graphs, g)
	}
	split, detour := New("split"), New("detour")
	for _, g := range []*Graph{split, detour} {
		mustCore(t, g, "A", 7)
		mustCore(t, g, "B", 11)
		if _, err := g.AddEdge("E"); err != nil {
			t.Fatal(err)
		}
		mustConnect(t, g, "A", "E")
		mustConnect(t, g, "E", "B")
	}
	mustCore(t, detour, "C", 13)
	mustCore(t, detour, "D", 17)
	if _, err := detour.AddEdge("H"); err != nil {
		t.Fatal(err)
	}
	for _, l := range [][2]string{{"A", "C"}, {"C", "D"}, {"D", "B"}, {"H", "D"}} {
		mustConnect(t, detour, l[0], l[1])
	}
	for _, g := range []*Graph{split, detour} {
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		graphs = append(graphs, g)
	}
	return graphs
}

// TestHopSearchMatchesDijkstra holds the hop-count search to Dijkstra's
// (dist, Node.Index()) path on every ordered pair of nodes, edges and
// switches alike and src == dst included, of hopSearchGraphs, with
// every link usable and with a seeded sixth of the links avoided.
func TestHopSearchMatchesDijkstra(t *testing.T) {
	graphs := hopSearchGraphs(t)
	detour := graphs[len(graphs)-1]
	if p, err := ShortestPath(detour, "A", "B", nil); err != nil || p.String() != "A-C-D-B" {
		t.Errorf("detour A -> B = %v (%v), want A-C-D-B", p, err)
	}

	var s dijkstra
	pairs, noPath, avoidedNoPath := 0, 0, 0
	for _, g := range graphs {
		avoid := avoidSome(g, 1)
		for _, a := range g.order {
			for _, b := range g.order {
				if err := s.sameHopPath(t, g, a.name, b.name, nil); errors.Is(err, ErrNoPath) {
					noPath++
				}
				if err := s.sameHopPath(t, g, a.name, b.name, avoid); errors.Is(err, ErrNoPath) {
					avoidedNoPath++
				}
				pairs++
			}
		}
	}
	if noPath == 0 || avoidedNoPath <= noPath {
		t.Errorf("of %d pairs, %d without a path and %d with links avoided: ErrNoPath went untested",
			pairs, noPath, avoidedNoPath)
	}
	t.Logf("%d ordered pairs, %d without a path, %d with links avoided", pairs, noPath, avoidedNoPath)
}

// TestShortestPathTreeMatchesDijkstra holds ShortestPathTree to the
// oracle's next-hop tree for every root, edge or switch, of
// hopSearchGraphs, with every link usable and with a seeded sixth of
// the links avoided.
func TestShortestPathTreeMatchesDijkstra(t *testing.T) {
	for _, g := range hopSearchGraphs(t) {
		for _, avoid := range []func(*Link) bool{nil, avoidSome(g, 1)} {
			for _, root := range g.order {
				got, err := ShortestPathTree(g, root.name, avoid)
				if err != nil {
					t.Fatalf("%s root %s: %v", g.Name(), root, err)
				}
				want := oracleTree(g, root, avoid)
				if len(got) != len(want) {
					t.Fatalf("%s root %s (avoid %t): %d tree links, Dijkstra %d",
						g.Name(), root, avoid != nil, len(got), len(want))
				}
				for n, l := range want {
					if got[n] != l {
						t.Fatalf("%s root %s (avoid %t): %s takes %v, Dijkstra %v",
							g.Name(), root, avoid != nil, n, got[n], l)
					}
				}
			}
		}
	}
}

// FuzzHopSearch holds the hop-count search to Dijkstra on arbitrary
// small rand: topologies and endpoints, with every link usable and
// with a sixth of the links avoided, chosen by the topology's seed.
func FuzzHopSearch(f *testing.F) {
	f.Add(uint8(12), uint8(4), uint8(6), int64(9), uint16(0), uint16(17))
	f.Add(uint8(48), uint8(72), uint8(12), int64(5), uint16(50), uint16(3))
	f.Add(uint8(2), uint8(0), uint8(2), int64(1), uint16(2), uint16(3))
	f.Fuzz(func(t *testing.T, cores, extra, edges uint8, seed int64, a, b uint16) {
		cores %= 64
		g, err := FromSpec(fmt.Sprintf("rand:%d:%d:%d:%d", cores, extra, int(edges)%(int(cores)+1), seed))
		if err != nil {
			t.Skip(err)
		}
		n := len(g.order)
		src, dst := g.order[int(a)%n].name, g.order[int(b)%n].name
		var s dijkstra
		s.sameHopPath(t, g, src, dst, nil)
		s.sameHopPath(t, g, src, dst, avoidSome(g, seed))
	})
}

// BenchmarkShortestPath times one edge-to-edge route search with every
// link usable (nil) and with the middle link of that path avoided, with
// a reused result buffer as the controller's installs run it.
func BenchmarkShortestPath(b *testing.B) {
	for _, name := range []string{"net15", "fattree:8", "fattree:28"} {
		g, err := ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		edges := g.EdgeNodes()
		src, dst := edges[0].Name(), edges[len(edges)-1].Name()
		for _, arm := range []struct {
			name  string
			avoid func(*Link) bool
		}{{"nil", nil}, {"avoid", avoidMiddle(b, g, src, dst)}} {
			b.Run(name+"/"+arm.name, func(b *testing.B) {
				var buf []*Node
				var err error
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if buf, err = AppendShortestPath(buf[:0], g, src, dst, arm.avoid); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
