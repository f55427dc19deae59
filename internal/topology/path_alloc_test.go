// Under the race detector sync.Pool deliberately bypasses itself
// (poolRaceHash), so pooled-search allocation counts are meaningless
// there; the assertions run in every non-race `go test ./...`.
//go:build !race

package topology

import "testing"

// TestAppendShortestPathZeroAlloc: a steady-state search — pooled
// scratch arrays warm, caller-owned result buffer reused — must not
// allocate, with every link usable (the controller's installs) or with
// links avoided (its reroutes after a failure).
func TestAppendShortestPathZeroAlloc(t *testing.T) {
	for _, spec := range []string{"rand:48:72:12:5", "fattree:28"} {
		g, err := FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		edges := g.EdgeNodes()
		src, dst := edges[0].Name(), edges[len(edges)-1].Name()
		for _, arm := range []struct {
			name  string
			avoid func(*Link) bool
		}{{"nil", nil}, {"avoid", avoidMiddle(t, g, src, dst)}} {
			// Warm run: sizes the pooled search state and the result buffer.
			buf, err := AppendShortestPath(nil, g, src, dst, arm.avoid)
			if err != nil {
				t.Fatalf("%s: AppendShortestPath: %v", spec, err)
			}
			want := Path{Nodes: buf}.String()

			allocs := testing.AllocsPerRun(200, func() {
				var err error
				buf, err = AppendShortestPath(buf[:0], g, src, dst, arm.avoid)
				if err != nil {
					t.Fatalf("%s: AppendShortestPath: %v", spec, err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s (%s): steady-state AppendShortestPath allocates %.1f objects/op, want 0", spec, arm.name, allocs)
			}
			if got := (Path{Nodes: buf}).String(); got != want {
				t.Errorf("%s (%s): reused-buffer path = %s, want %s", spec, arm.name, got, want)
			}
		}
	}
}

// TestShortestPathTreeAllocs: a tree allocates its result map and
// nothing per node — the pooled search is warm. Auto-protection builds
// one per destination.
func TestShortestPathTreeAllocs(t *testing.T) {
	for _, spec := range []string{"net15", "fattree:4", "fattree:8"} {
		g, err := ByName(spec)
		if err != nil {
			t.Fatal(err)
		}
		root := g.CoreNodes()[0].Name()
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := ShortestPathTree(g, root, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 4 {
			t.Errorf("%s: ShortestPathTree allocates %.1f objects/op, want <= 4", spec, allocs)
		}
	}
}

// TestValidateAllocs: validating a 980-switch fat tree allocates the
// ID list and the coprimality check's running product, nothing per
// switch or per pair.
func TestValidateAllocs(t *testing.T) {
	g, err := FromSpec("fattree:28")
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("Validate on fattree:28 allocates %.1f objects, want <= 2", allocs)
	}
}

// TestAppendLinksZeroAlloc: the reuse-friendly Links form feeding the
// controller's failure scan must not allocate with a warm buffer.
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
