package resilience

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/topology"
)

// TestBranchMatchesEnumeration: a unit's search tree, grown eagerly —
// every connected, surviving node below depth k gets the node that
// verdict grows for its set plus each link it consulted and does not
// hold — finds exactly the inclusion-minimal failing sets of at most k
// links that analyzing every such set finds. A failing set's own
// descent passes only through connected, surviving nodes on fewer
// links, each of which the growth expands by the link that descent
// takes next, so the tree holds a failing subset of it.
func TestBranchMatchesEnumeration(t *testing.T) {
	all := []string{"none", "hp", "avp", "nip", "dtree"}
	for _, row := range []struct {
		topo, level string
		policies    []string
		routes, k   int // routes 0: every ordered edge pair
	}{
		{"fig1", "auto", all, 0, 3},
		{"net15", "none", all, 0, 2},
		{"net15", "full", all, 0, 2},
		{"net15", "auto", all, 0, 2},
		{"rnp28", "auto", []string{"none", "nip", "dtree"}, 0, 2},
		{"fattree:4", "auto", []string{"nip", "dtree"}, 24, 2},
		{"net15", "full", all, 0, 3},
		{"net15", "auto", all, 0, 3},
	} {
		t.Run(fmt.Sprintf("%s/%s/k=%d", row.topo, row.level, row.k), func(t *testing.T) {
			g, routes, cfg, err := (&Request{Topology: row.topo, Policies: row.policies, Protection: row.level}).Resolve()
			if err != nil {
				t.Fatal(err)
			}
			if row.routes > 0 {
				routes = routes[:row.routes]
			}
			ctrl, err := buildController(context.Background(), g, routes, cfg.Protection, cfg.AutoProtect)
			if err != nil {
				t.Fatal(err)
			}
			s := newScratch(ctrl, row.policies)
			links, comp := g.Links(), make([]int32, g.NumNodes())
			sets := subsets(links, row.k)
			var grown, enumerated int
			for _, rt := range routes {
				src, _ := g.Node(rt.Src)
				dst, _ := g.Node(rt.Dst)
				reachable := func(set failSet) bool {
					labelComponents(links, set, comp)
					return comp[src.Index()] == comp[dst.Index()]
				}
				for p, pol := range row.policies {
					want := map[string][]int{}
					for _, set := range sets {
						if !reachable(set) {
							continue
						}
						res, _ := s.compute(rt, p, set)
						if res.err != nil {
							t.Fatal(res.err)
						}
						enumerated++
						if res.outcome != Survived {
							add(want, set)
						}
					}

					got := map[string][]int{}
					s.nodes, s.words = s.nodes[:0], s.words[:0]
					before := s.computed
					if res := s.verdict(p, rt, nil); res.err != nil {
						t.Fatal(res.err)
					}
					for n := 0; n < len(s.nodes); n++ {
						nd, set := s.nodes[n], s.nodeSet(links, int32(n))
						switch {
						case !reachable(set):
						case nd.res.outcome != Survived:
							add(got, set)
						case len(set) < row.k:
							held := analysis.LinkSet(s.words[nd.off:])
							for _, l := range links {
								if held.Has(l) && !slices.Contains(set, l) {
									if res := s.verdict(p, rt, append(slices.Clone(set), l)); res.err != nil {
										t.Fatal(res.err)
									}
								}
							}
						}
					}
					grown += s.computed - before

					if tree, enum := minimal(got), minimal(want); !slices.Equal(tree, enum) {
						t.Fatalf("%s->%s policy=%s: minimal failing sets\n tree %v\n enumeration %v", rt.Src, rt.Dst, pol, tree, enum)
					}
				}
			}
			t.Logf("%d analyses grew the trees, enumeration made %d", grown, enumerated)
		})
	}
}

// nodeSet is the failure set of node n: the links on its path from the
// root.
func (s *scratch) nodeSet(links []*topology.Link, n int32) failSet {
	var set failSet
	for ; s.nodes[n].parent >= 0; n = s.nodes[n].parent {
		set = append(set, links[s.nodes[n].link])
	}
	return set
}

// subsets lists every set of at most k of links, the empty one first.
func subsets(links []*topology.Link, k int) []failSet {
	out := []failSet{nil}
	for from := 0; from < len(out); from++ {
		set := out[from]
		if len(set) == k {
			continue
		}
		start := 0
		if len(set) > 0 {
			start = set[len(set)-1].Index() + 1
		}
		for _, l := range links[start:] {
			out = append(out, append(slices.Clone(set), l))
		}
	}
	return out
}

// add records a failure set in sets, keyed by its sorted link indices.
func add(sets map[string][]int, set failSet) {
	idx := make([]int, len(set))
	for i, l := range set {
		idx[i] = l.Index()
	}
	slices.Sort(idx)
	sets[fmt.Sprint(idx)] = idx
}

// minimal returns, sorted, the keys of the sets no proper subset of
// which is in sets.
func minimal(sets map[string][]int) []string {
	var out []string
	for key, idx := range sets {
		proper := false
		for mask := 0; mask < 1<<len(idx)-1 && !proper; mask++ {
			sub := []int{}
			for b, i := range idx {
				if mask&(1<<b) != 0 {
					sub = append(sub, i)
				}
			}
			_, proper = sets[fmt.Sprint(sub)]
		}
		if !proper {
			out = append(out, key)
		}
	}
	slices.Sort(out)
	return out
}
