package resilience

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/topology"
)

// freshCase is the verdict of one case computed the way the sweep did
// before it remembered anything: reachability by search, a check of the
// ingress link outside the analyzer, then an analyzer made for this
// case alone.
func freshCase(t *testing.T, g *topology.Graph, ct *caseTable, r, p, f int) caseResult {
	t.Helper()
	rt, pol, fl := ct.routes[r], ct.policies[p], ct.failures[f]
	failed := map[*topology.Link]bool{}
	for _, l := range fl {
		failed[l] = true
	}
	route, ok := ct.ctrl.Route(rt.Src, rt.Dst)
	if !ok {
		t.Fatalf("%s->%s: not installed", rt.Src, rt.Dst)
	}
	switch {
	case !connected(g, rt.Src, rt.Dst, failed):
		return caseResult{outcome: Disconnected}
	case failed[route.Path.Links()[0]]:
		return caseResult{outcome: Lost}
	}
	var res analysis.Result
	a, err := analysis.New(ct.ctrl, pol, fl)
	if err == nil {
		res, err = a.Analyze(rt.Src, rt.Dst)
	}
	if err != nil {
		t.Fatalf("%s->%s policy=%s failure=%s: %v", rt.Src, rt.Dst, pol, fl.name(), err)
	}
	return classify(res)
}

// TestSweepMatchesFreshComputation: every case of a sweep — answered
// by a search-tree node grown for it or before it — has the outcome,
// delivery probability and stretch, to the last bit, of a computation
// that shares nothing with any other case; at one worker and at four,
// under every protection level the topology has.
func TestSweepMatchesFreshComputation(t *testing.T) {
	for _, row := range []struct {
		topo   string
		levels []string
		routes int // 0: every ordered edge pair
	}{
		{"net15", []string{"none", "partial", "full", "auto"}, 0},
		{"rnp28", []string{"none", "partial", "auto"}, 0},
		{"fig1", []string{"none", "auto"}, 0},
		// Unprotected random deflection over a fat tree makes chains of
		// hundreds of states: a few routes of it, many under auto.
		{"fattree:4", []string{"none"}, 4},
		{"fattree:4", []string{"auto"}, 48},
	} {
		for _, level := range row.levels {
			t.Run(row.topo+"/"+level, func(t *testing.T) {
				req := Request{Topology: row.topo, Policies: []string{"none", "hp", "avp", "nip", "dtree"},
					Protection: level, Pairs: 200, Seed: 11}
				g, routes, cfg, err := req.Resolve()
				if err != nil {
					t.Fatal(err)
				}
				if row.routes > 0 {
					routes = routes[:row.routes]
				}
				var computed, cases int
				for _, workers := range []int{1, 4} {
					cfg.Workers = workers
					ct, err := analyzeCases(context.Background(), g, routes, cfg)
					if err != nil {
						t.Fatal(err)
					}
					nP, nF := len(ct.policies), len(ct.failures)
					for i, got := range ct.results {
						r, p, f := i/(nP*nF), i/nF%nP, i%nF
						want := freshCase(t, g, ct, r, p, f)
						if got.err != nil || got.outcome != want.outcome ||
							math.Float64bits(got.pDeliver) != math.Float64bits(want.pDeliver) ||
							math.Float64bits(got.stretch) != math.Float64bits(want.stretch) {
							t.Fatalf("workers=%d %s->%s policy=%s failure=%s:\n got %+v\nwant %+v", workers,
								ct.routes[r].Src, ct.routes[r].Dst, ct.policies[p], ct.failures[f].name(), got, want)
						}
					}
					computed, cases = ct.computed, len(ct.results)
				}
				t.Logf("%d cases, %d verdicts computed (workers=4)", cases, computed)
			})
		}
	}
}

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

// Allocation budget of a sweep: Net15, every ordered edge pair, auto
// protection, 100 sampled pairs — 1 476 cases — for the two
// deterministic policies and for the shape the daemon's benchmark
// serves. Building the controller is ~2 000 of either figure. The
// first row allocated 32 998 times when every case made a failed-set
// map, a visited map and a search stack; the second 31 688 times when
// every chain was expanded into fresh maps and slices and solved in two
// fresh dense systems. The ceilings leave room for a few allocations
// per computed case, which no per-case map or matrix fits under.
func TestSweepAllocationBudget(t *testing.T) {
	g, err := topology.Net15()
	if err != nil {
		t.Fatal(err)
	}
	routes := allPairRoutes(g)
	for _, row := range []struct {
		policies []string
		budget   float64
	}{
		{[]string{"none", "dtree"}, 3000},
		{[]string{"nip", "dtree"}, 8000},
	} {
		var cases int
		allocs := testing.AllocsPerRun(5, func() {
			rep, err := SweepContext(context.Background(), g, routes, Config{
				Policies: row.policies, AutoProtect: true,
				Pairs: 100, PairSeed: 7, Workers: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			cases = rep.Cases
		})
		t.Logf("%v: %.0f allocations for %d cases", row.policies, allocs, cases)
		if allocs > row.budget {
			t.Errorf("%v: sweep of %d cases allocated %.0f times, budget %.0f", row.policies, cases, allocs, row.budget)
		}
	}
}

// TestDescentRecomputesInsideCandidateScan is the adversarial row of
// the descent: a pair whose first link is on the route's path and whose
// second lies off the path but on the node the first one makes deflect.
// NIP scans every port of a deflecting node, so the second link was
// consulted when the single failure was scored: once the unit has grown
// its root and the single, the pair must grow a node of its own and
// match a fresh analysis bit for bit — and, on at least some such
// pairs, the single's verdict would have been the wrong answer.
func TestDescentRecomputesInsideCandidateScan(t *testing.T) {
	g, err := topology.Net15()
	if err != nil {
		t.Fatal(err)
	}
	routes := allPairRoutes(g)
	ctrl, err := buildController(context.Background(), g, routes, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	s := newScratch(ctrl, []string{"nip"})
	var pairs, wrong int
	for _, rt := range routes {
		route, _ := ctrl.Route(rt.Src, rt.Dst)
		nodes := route.Path.Nodes
		for k := 1; k+2 < len(nodes); k++ {
			u := nodes[k] // deflects when its link to nodes[k+1] fails
			l1, _ := g.LinkBetween(u.Name(), nodes[k+1].Name())
			for _, l2 := range u.Links() {
				if o := l2.Other(u); o == nodes[k-1] || o == nodes[k+1] {
					continue // on the path
				}
				s.nodes, s.words = s.nodes[:0], s.words[:0]
				s.verdict(0, rt, nil)
				single := s.verdict(0, rt, failSet{l1})
				if len(s.nodes) != 2 {
					t.Fatalf("%s->%s: the root and %s grew %d nodes, want 2", rt.Src, rt.Dst, l1.Name(), len(s.nodes))
				}
				grown := s.computed
				pair := failSet{l1, l2}
				got := s.verdict(0, rt, pair)
				if s.computed == grown {
					t.Fatalf("%s->%s: a node grown before answers %s, whose second link %s the deflecting node scans",
						rt.Src, rt.Dst, pair.name(), l2.Name())
				}
				a, err := analysis.New(ctrl, "nip", pair)
				if err != nil {
					t.Fatal(err)
				}
				want, err := a.Analyze(rt.Src, rt.Dst)
				if err != nil || got.err != nil || single.err != nil {
					t.Fatal(err, got.err, single.err)
				}
				if math.Float64bits(got.pDeliver) != math.Float64bits(want.PDeliver) ||
					math.Float64bits(got.stretch) != math.Float64bits(want.Stretch()) {
					t.Fatalf("%s->%s %s: got p=%v stretch=%v, fresh p=%v stretch=%v",
						rt.Src, rt.Dst, pair.name(), got.pDeliver, got.stretch, want.PDeliver, want.Stretch())
				}
				pairs++
				if got != single {
					wrong++
				}
			}
		}
	}
	if pairs == 0 || wrong == 0 {
		t.Fatalf("%d adversarial pairs, the single-failure verdict wrong on %d: the row tests nothing", pairs, wrong)
	}
	t.Logf("%d adversarial pairs; the single-failure verdict would have been wrong on %d", pairs, wrong)
}
