package resilience

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/topology"
)

// connected reports whether dst is reachable from src over non-failed
// links: the per-case search the sweep used before it labelled
// components once per failure set, kept as the oracle for that
// labelling.
func connected(g *topology.Graph, src, dst string, failed map[*topology.Link]bool) bool {
	s, ok := g.Node(src)
	if !ok {
		return false
	}
	d, ok := g.Node(dst)
	if !ok {
		return false
	}
	visited := map[*topology.Node]bool{s: true}
	stack := []*topology.Node{s}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == d {
			return true
		}
		for i := 0; i < n.Degree(); i++ {
			l, ok := n.PortLink(i)
			if !ok || failed[l] {
				continue
			}
			o := l.Other(n)
			if !visited[o] {
				visited[o] = true
				stack = append(stack, o)
			}
		}
	}
	return false
}

// Component labels must answer reachability exactly as the search does,
// for every ordered edge pair under random failure sets of zero to
// three links.
func TestComponentLabelsMatchSearch(t *testing.T) {
	fat4, err := topology.FromSpec("fattree:4")
	if err != nil {
		t.Fatal(err)
	}
	net15, err := topology.Net15()
	if err != nil {
		t.Fatal(err)
	}
	rnp28, err := topology.RNP28()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*topology.Graph{net15, rnp28, fat4} {
		t.Run(g.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(13))
			links, edges := g.Links(), g.EdgeNodes()
			comp := make([]int32, len(g.Nodes()))
			for trial := 0; trial < 200; trial++ {
				var set failSet
				failed := map[*topology.Link]bool{}
				for len(set) < trial%4 {
					if l := links[rng.Intn(len(links))]; !failed[l] {
						failed[l] = true
						set = append(set, l)
					}
				}
				labelComponents(links, set, comp)
				for _, a := range edges {
					for _, b := range edges {
						got := comp[a.Index()] == comp[b.Index()]
						if want := connected(g, a.Name(), b.Name(), failed); got != want {
							t.Fatalf("failed=%v: %s->%s labelled connected=%v, search says %v", set, a, b, got, want)
						}
					}
				}
			}
		})
	}
}

// Allocation budget of a sweep: Net15, every ordered edge pair, the two
// deterministic policies, auto protection, 100 sampled pairs — 1 476
// cases. The parent commit allocated 32 998 times here (a failed-set
// map, a visited map and a search stack per case, a boxed switch view
// per hop); this measures 2 181, most of it building the controller.
// The ceiling leaves room for two allocations per case, which no
// per-case map fits under.
func TestSweepAllocationBudget(t *testing.T) {
	g, err := topology.Net15()
	if err != nil {
		t.Fatal(err)
	}
	routes := allPairRoutes(g)
	var cases int
	allocs := testing.AllocsPerRun(5, func() {
		rep, err := SweepContext(context.Background(), g, routes, Config{
			Policies: []string{"none", "dtree"}, AutoProtect: true,
			Pairs: 100, PairSeed: 7, Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		cases = rep.Cases
	})
	t.Logf("%.0f allocations for %d cases", allocs, cases)
	if allocs > 3000 {
		t.Errorf("sweep of %d cases allocated %.0f times, budget 3000", cases, allocs)
	}
}
