package topology

import (
	"errors"
	"testing"
	"time"
)

func TestGraphBasics(t *testing.T) {
	g := New("t")
	if _, err := g.AddCore("SW7", 7); err != nil {
		t.Fatalf("AddCore: %v", err)
	}
	if _, err := g.AddEdge("E1"); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if _, err := g.AddCore("SW7", 11); !errors.Is(err, ErrDuplicateNode) {
		t.Errorf("duplicate node error = %v, want ErrDuplicateNode", err)
	}
	if _, err := g.AddCore("SW1", 1); err == nil {
		t.Error("AddCore accepted switch ID 1")
	}
	l, err := g.Connect("SW7", "E1", WithRateMbps(100), WithDelay(2*time.Millisecond), WithQueuePackets(10))
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	if l.RateMbps() != 100 || l.Delay() != 2*time.Millisecond || l.QueuePackets() != 10 {
		t.Errorf("link attrs = (%v, %v, %d), want (100, 2ms, 10)", l.RateMbps(), l.Delay(), l.QueuePackets())
	}
	if _, err := g.Connect("SW7", "E1"); !errors.Is(err, ErrDuplicateLink) {
		t.Errorf("duplicate link error = %v, want ErrDuplicateLink", err)
	}
	if _, err := g.Connect("SW7", "SW7"); !errors.Is(err, ErrSelfLoop) {
		t.Errorf("self loop error = %v, want ErrSelfLoop", err)
	}
	if _, err := g.Connect("SW7", "NOPE"); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown node error = %v, want ErrUnknownNode", err)
	}
}

func TestConnectPinnedPortConflicts(t *testing.T) {
	g := New("t")
	mustCore(t, g, "SW7", 7)
	mustCore(t, g, "SW11", 11)
	mustCore(t, g, "SW13", 13)
	if _, err := g.Connect("SW7", "SW11", WithPorts(0, 0)); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	if _, err := g.Connect("SW7", "SW13", WithPorts(0, 0)); !errors.Is(err, ErrPortInUse) {
		t.Errorf("port conflict error = %v, want ErrPortInUse", err)
	}
	if _, err := g.Connect("SW7", "SW13", WithPorts(-1, 0)); err == nil {
		t.Error("Connect accepted a negative port")
	}
}

func TestSequentialPortAssignment(t *testing.T) {
	g := New("t")
	mustCore(t, g, "SW7", 7)
	mustCore(t, g, "SW11", 11)
	mustCore(t, g, "SW13", 13)
	mustCore(t, g, "SW17", 17)
	mustConnect(t, g, "SW7", "SW11")
	mustConnect(t, g, "SW7", "SW13")
	mustConnect(t, g, "SW7", "SW17")
	sw7, _ := g.Node("SW7")
	for i, want := range []string{"SW11", "SW13", "SW17"} {
		nb, ok := sw7.Neighbor(i)
		if !ok || nb.Name() != want {
			t.Errorf("SW7 port %d neighbour = %v, want %s", i, nb, want)
		}
	}
	if p, ok := sw7.PortToward("SW13"); !ok || p != 1 {
		t.Errorf("PortToward(SW13) = (%d, %v), want (1, true)", p, ok)
	}
	if _, ok := sw7.PortToward("SW999"); ok {
		t.Error("PortToward found a nonexistent neighbour")
	}
}

func TestValidateIDTooSmall(t *testing.T) {
	g := New("t")
	mustCore(t, g, "SW3", 3)
	mustCore(t, g, "SW7", 7)
	mustCore(t, g, "SW11", 11)
	mustCore(t, g, "SW13", 13)
	// Give SW3 ports 0..2 (degree 3): max port index 2 < 3 is fine,
	// then pin a port index equal to the ID to break it.
	mustConnect(t, g, "SW3", "SW7")
	mustConnect(t, g, "SW3", "SW11")
	if _, err := g.Connect("SW3", "SW13", WithPorts(3, 0)); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	if err := g.Validate(); !errors.Is(err, ErrIDTooSmall) {
		t.Errorf("Validate = %v, want ErrIDTooSmall", err)
	}
}

func TestValidateNonCoprime(t *testing.T) {
	g := New("t")
	mustCore(t, g, "SW6", 6)
	mustCore(t, g, "SW10", 10)
	mustConnect(t, g, "SW6", "SW10")
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted non-coprime IDs 6 and 10")
	}
}

func TestValidateDisconnected(t *testing.T) {
	g := New("t")
	mustCore(t, g, "SW7", 7)
	mustCore(t, g, "SW11", 11)
	if err := g.Validate(); !errors.Is(err, ErrDisconnected) {
		t.Errorf("Validate = %v, want ErrDisconnected", err)
	}
}

func mustCore(t *testing.T, g *Graph, name string, id uint64) *Node {
	t.Helper()
	n, err := g.AddCore(name, id)
	if err != nil {
		t.Fatalf("AddCore(%s, %d): %v", name, id, err)
	}
	return n
}

func mustConnect(t *testing.T, g *Graph, a, b string, opts ...LinkOption) *Link {
	t.Helper()
	l, err := g.Connect(a, b, opts...)
	if err != nil {
		t.Fatalf("Connect(%s, %s): %v", a, b, err)
	}
	return l
}

func TestFig1Ports(t *testing.T) {
	g, err := Fig1()
	if err != nil {
		t.Fatalf("Fig1: %v", err)
	}
	// The exact port map from the paper's Fig. 1.
	wantPorts := map[string][]string{
		"SW4":  {"SW7", "S"},
		"SW7":  {"SW4", "SW5", "SW11"},
		"SW5":  {"SW11", "SW7"},
		"SW11": {"D", "SW7", "SW5"},
	}
	for name, neighbors := range wantPorts {
		n, ok := g.Node(name)
		if !ok {
			t.Fatalf("node %s missing", name)
		}
		if n.Degree() != len(neighbors) {
			t.Errorf("%s degree = %d, want %d", name, n.Degree(), len(neighbors))
		}
		for port, want := range neighbors {
			nb, ok := n.Neighbor(port)
			if !ok || nb.Name() != want {
				t.Errorf("%s port %d -> %v, want %s", name, port, nb, want)
			}
		}
	}
}

func TestNet15Shape(t *testing.T) {
	g, err := Net15()
	if err != nil {
		t.Fatalf("Net15: %v", err)
	}
	if got := len(g.Nodes()); got != 15 {
		t.Errorf("node count = %d, want 15", got)
	}
	if got := len(g.CoreNodes()); got != 12 {
		t.Errorf("core count = %d, want 12", got)
	}
	// Narrative: SW10's non-primary neighbours are SW17, SW37, SW11.
	sw10, _ := g.Node("SW10")
	var others []string
	for _, l := range sw10.Links() {
		if n := l.Other(sw10).Name(); n != "AS1" && n != "SW7" {
			others = append(others, n)
		}
	}
	if len(others) != 3 {
		t.Fatalf("SW10 deflection alternatives = %v, want 3 of them", others)
	}
	want := map[string]bool{"SW17": true, "SW37": true, "SW11": true}
	for _, n := range others {
		if !want[n] {
			t.Errorf("unexpected SW10 neighbour %s", n)
		}
	}
	// The controller's shortest path must be the paper's primary route.
	p, err := ShortestPath(g, "AS1", "AS3", nil)
	if err != nil {
		t.Fatalf("ShortestPath: %v", err)
	}
	if got := p.String(); got != "AS1-SW10-SW7-SW13-SW29-AS3" {
		t.Errorf("shortest path = %s, want AS1-SW10-SW7-SW13-SW29-AS3", got)
	}
}

func TestRNP28Shape(t *testing.T) {
	g, err := RNP28()
	if err != nil {
		t.Fatalf("RNP28: %v", err)
	}
	if got := len(g.CoreNodes()); got != 28 {
		t.Errorf("core count = %d, want 28 (the paper's 28 PoPs)", got)
	}
	coreLinks := 0
	for _, l := range g.Links() {
		if l.A().Kind() == KindCore && l.B().Kind() == KindCore {
			coreLinks++
		}
	}
	if coreLinks != 40 {
		t.Errorf("core link count = %d, want 40 (the paper's 40 links)", coreLinks)
	}

	// §3.2 narrative adjacency constraints.
	assertNeighbors(t, g, "SW7", []string{"SW11", "SW13", "EDGE-N"})
	assertNeighbors(t, g, "SW11", []string{"SW7", "SW17"})
	assertNeighbors(t, g, "SW13", []string{"SW7", "SW41", "SW29", "SW17", "SW47", "SW37", "SW71"})
	assertNeighbors(t, g, "SW41", []string{"SW13", "SW73", "SW17", "SW61"})
	assertNeighbors(t, g, "SW109", []string{"SW73", "SW113"})

	// The controller's shortest path must be the measured route.
	p, err := ShortestPath(g, "EDGE-N", "EDGE-SP", nil)
	if err != nil {
		t.Fatalf("ShortestPath: %v", err)
	}
	if got := p.String(); got != "EDGE-N-SW7-SW13-SW41-SW73-EDGE-SP" {
		t.Errorf("shortest path = %s, want EDGE-N-SW7-SW13-SW41-SW73-EDGE-SP", got)
	}
}

func TestRNP28Fig8Shape(t *testing.T) {
	g, err := RNP28Fig8()
	if err != nil {
		t.Fatalf("RNP28Fig8: %v", err)
	}
	// The deflection candidates at SW73 for a SW73-SW107 failure with
	// input from SW41 must be exactly {SW109, SW71}: no host may hang
	// off SW73 in this scenario.
	sw73, _ := g.Node("SW73")
	var candidates []string
	for _, l := range sw73.Links() {
		n := l.Other(sw73).Name()
		if n != "SW41" && n != "SW107" {
			candidates = append(candidates, n)
		}
	}
	if len(candidates) != 2 {
		t.Fatalf("SW73 deflection candidates = %v, want exactly {SW109, SW71}", candidates)
	}
	seen := map[string]bool{}
	for _, c := range candidates {
		seen[c] = true
	}
	if !seen["SW109"] || !seen["SW71"] {
		t.Errorf("SW73 deflection candidates = %v, want {SW109, SW71}", candidates)
	}
}

func assertNeighbors(t *testing.T, g *Graph, name string, want []string) {
	t.Helper()
	n, ok := g.Node(name)
	if !ok {
		t.Fatalf("node %s missing", name)
	}
	got := map[string]bool{}
	for _, l := range n.Links() {
		got[l.Other(n).Name()] = true
	}
	if len(got) != len(want) {
		t.Errorf("%s has %d neighbours %v, want %d %v", name, len(got), keys(got), len(want), want)
		return
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("%s missing neighbour %s (has %v)", name, w, keys(got))
		}
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestShortestPathWeighted(t *testing.T) {
	g := New("w")
	mustCore(t, g, "A", 7)
	mustCore(t, g, "B", 11)
	mustCore(t, g, "C", 13)
	mustConnect(t, g, "A", "B", WithDelay(10*time.Millisecond))
	mustConnect(t, g, "B", "C", WithDelay(10*time.Millisecond))
	mustConnect(t, g, "A", "C", WithDelay(50*time.Millisecond))
	// By hops: direct A-C. With A-C avoided: via B.
	p, err := ShortestPath(g, "A", "C", nil)
	if err != nil {
		t.Fatalf("ShortestPath: %v", err)
	}
	if p.String() != "A-C" {
		t.Errorf("hop path = %s, want A-C", p)
	}
	ac, _ := g.LinkBetween("A", "C")
	p, err = ShortestPath(g, "A", "C", func(l *Link) bool { return l == ac })
	if err != nil {
		t.Fatalf("ShortestPath: %v", err)
	}
	if p.String() != "A-B-C" {
		t.Errorf("path avoiding A-C = %s, want A-B-C", p)
	}
	if p.Hops() != 2 {
		t.Errorf("Hops = %d, want 2", p.Hops())
	}
	if links := p.Links(); len(links) != 2 || links[0].Name() != "A-B" {
		t.Errorf("Links = %v, want [A-B B-C]", links)
	}
}

func TestShortestPathNoTransitThroughEdges(t *testing.T) {
	g := New("e")
	mustCore(t, g, "A", 7)
	mustCore(t, g, "B", 11)
	if _, err := g.AddEdge("E"); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	mustConnect(t, g, "A", "E")
	mustConnect(t, g, "E", "B")
	// The only connection is through edge E; a path must not use it.
	if _, err := ShortestPath(g, "A", "B", nil); !errors.Is(err, ErrNoPath) {
		t.Errorf("ShortestPath through edge = %v, want ErrNoPath", err)
	}
	// But E itself is reachable as an endpoint.
	p, err := ShortestPath(g, "A", "E", nil)
	if err != nil || p.String() != "A-E" {
		t.Errorf("ShortestPath(A, E) = %v, %v; want A-E", p, err)
	}
}

func TestShortestPathTrivial(t *testing.T) {
	g := New("s")
	mustCore(t, g, "A", 7)
	p, err := ShortestPath(g, "A", "A", nil)
	if err != nil {
		t.Fatalf("ShortestPath(A, A): %v", err)
	}
	if p.Hops() != 0 || len(p.Nodes) != 1 {
		t.Errorf("self path = %v, want single node", p)
	}
	if _, err := ShortestPath(g, "A", "Z", nil); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown destination error = %v, want ErrUnknownNode", err)
	}
}

func TestShortestPathTree(t *testing.T) {
	g, err := Net15()
	if err != nil {
		t.Fatalf("Net15: %v", err)
	}
	tree, err := ShortestPathTree(g, "SW29", nil)
	if err != nil {
		t.Fatalf("ShortestPathTree: %v", err)
	}
	// Every core node must have a next hop toward SW29, and following
	// the tree must terminate at SW29 without looping.
	root, _ := g.Node("SW29")
	for _, n := range g.CoreNodes() {
		if n == root {
			continue
		}
		cur := n
		for steps := 0; cur != root; steps++ {
			if steps > len(g.Nodes()) {
				t.Fatalf("tree from %s loops", n)
			}
			l, ok := tree[cur]
			if !ok {
				t.Fatalf("no tree link for %s", cur)
			}
			cur = l.Other(cur)
		}
	}
	// Tree next hops must be the true shortest first hops: SW13's is
	// the direct SW13-SW29 link.
	sw13, _ := g.Node("SW13")
	if l := tree[sw13]; l.Other(sw13).Name() != "SW29" {
		t.Errorf("SW13 tree hop = %s, want SW29", l.Other(sw13).Name())
	}
}
