// Under the race detector sync.Pool deliberately bypasses itself
// (poolRaceHash), so pooled-search allocation counts are meaningless
// there; the assertions run in every non-race `go test ./...`.
//go:build !race

package topology

import "testing"

// TestAppendShortestPathZeroAlloc: steady-state Dijkstra — pooled
// scratch arrays warm, caller-owned result buffer reused — must not
// allocate. This is the controller's reroute inner loop.
func TestAppendShortestPathZeroAlloc(t *testing.T) {
	g, err := FromSpec("rand:48:72:12:5")
	if err != nil {
		t.Fatal(err)
	}
	edges := g.EdgeNodes()
	src, dst := edges[0].Name(), edges[len(edges)-1].Name()

	// Warm run: sizes the pooled search state and the result buffer.
	buf, err := AppendShortestPath(nil, g, src, dst, nil)
	if err != nil {
		t.Fatalf("AppendShortestPath: %v", err)
	}
	want := Path{Nodes: buf}.String()

	allocs := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = AppendShortestPath(buf[:0], g, src, dst, nil)
		if err != nil {
			t.Fatalf("AppendShortestPath: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state AppendShortestPath allocates %.1f objects/op, want 0", allocs)
	}
	if got := (Path{Nodes: buf}).String(); got != want {
		t.Errorf("reused-buffer path = %s, want %s", got, want)
	}
}

// TestAppendLinksZeroAlloc: the reuse-friendly Links form feeding the
// controller's inverted index must not allocate with a warm buffer.
func TestAppendLinksZeroAlloc(t *testing.T) {
	g, err := Net15()
	if err != nil {
		t.Fatalf("Net15: %v", err)
	}
	p, err := ShortestPath(g, "AS1", "AS3", nil)
	if err != nil {
		t.Fatalf("ShortestPath: %v", err)
	}
	links := p.AppendLinks(nil)
	if len(links) != p.Hops() {
		t.Fatalf("AppendLinks returned %d links, want %d", len(links), p.Hops())
	}
	allocs := testing.AllocsPerRun(200, func() {
		links = p.AppendLinks(links[:0])
	})
	if allocs != 0 {
		t.Errorf("steady-state AppendLinks allocates %.1f objects/op, want 0", allocs)
	}
}
