package topology

import (
	"errors"
	"fmt"
	"testing"
)

// sameHopPath fails t unless the bidirectional hop-count search (nil
// weight) and Dijkstra under HopWeight agree on the path from src to
// dst, node for node, and on the error text. The hop search writes
// behind a one-node prefix, which it must leave alone.
func sameHopPath(t *testing.T, g *Graph, src, dst string) error {
	t.Helper()
	prefix := g.order[0]
	buf, gotErr := AppendShortestPath([]*Node{prefix}, g, src, dst, nil)
	want, wantErr := ShortestPath(g, src, dst, HopWeight)
	got := Path{Nodes: buf[1:]}
	if buf[0] != prefix || got.String() != want.String() || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s %s -> %s: hop search %q (%v), Dijkstra %q (%v)",
			g.Name(), src, dst, got, gotErr, want, wantErr)
	}
	return gotErr
}

// TestHopSearchMatchesDijkstra holds the hop-count search to Dijkstra's
// (dist, Node.Index()) path on every ordered pair of nodes, edges and
// switches alike and src == dst included, of the canned topologies,
// generated ones, and a graph whose switches meet only through an edge.
func TestHopSearchMatchesDijkstra(t *testing.T) {
	names := []string{"fig1", "net15", "rnp28", "rnp28-fig8",
		"fattree:4", "fattree:8", "fattree:12", "clos:6:3", "clos:8:4",
		"isp:40:2:8:1", "isp:60:3:8:1",
		"rand:5:2:3:11", "rand:12:4:6:9", "rand:28:12:3:3",
		"rand:48:72:12:5", "rand:50:40:4:4", "rand:64:128:24:7"}
	graphs := make([]*Graph, 0, len(names)+1)
	for _, name := range names {
		g, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		graphs = append(graphs, g)
	}
	// split's switches meet only through edge E; in detour, E is a
	// two-hop shortcut between A and B that no route may take.
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
	if p, err := ShortestPath(detour, "A", "B", nil); err != nil || p.String() != "A-C-D-B" {
		t.Errorf("detour A -> B = %v (%v), want A-C-D-B", p, err)
	}

	pairs, noPath := 0, 0
	for _, g := range graphs {
		for _, a := range g.order {
			for _, b := range g.order {
				if err := sameHopPath(t, g, a.name, b.name); errors.Is(err, ErrNoPath) {
					noPath++
				}
				pairs++
			}
		}
	}
	if noPath == 0 {
		t.Errorf("no pair of %d was unreachable: ErrNoPath went untested", pairs)
	}
	t.Logf("%d ordered pairs, %d without a path", pairs, noPath)
}

// FuzzHopSearch holds the hop-count search to Dijkstra on arbitrary
// small rand: topologies and endpoints.
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
		sameHopPath(t, g, g.order[int(a)%n].name, g.order[int(b)%n].name)
	})
}

// BenchmarkShortestPath times one edge-to-edge route search, by the
// hop-count search (nil) and by Dijkstra (HopWeight), with a reused
// result buffer as the controller's installs run it.
func BenchmarkShortestPath(b *testing.B) {
	for _, name := range []string{"net15", "fattree:8", "fattree:28"} {
		g, err := ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		edges := g.EdgeNodes()
		src, dst := edges[0].Name(), edges[len(edges)-1].Name()
		for _, w := range []struct {
			name   string
			weight WeightFunc
		}{{"nil", nil}, {"HopWeight", HopWeight}} {
			b.Run(name+"/"+w.name, func(b *testing.B) {
				var buf []*Node
				var err error
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if buf, err = AppendShortestPath(buf[:0], g, src, dst, w.weight); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
