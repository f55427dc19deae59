package core

import (
	"testing"

	"repro/internal/rns"
	"repro/internal/topology"
)

// TestForwardZeroAlloc: the per-packet data plane — reducer-based and
// division-based, small and wide route IDs — must not allocate.
func TestForwardZeroAlloc(t *testing.T) {
	small := rns.RouteIDFromUint64(4402485597509)
	sys, err := rns.NewSystem([]uint64{7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := sys.Encode([]uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wide.Uint64(); ok {
		t.Fatal("16-prime route ID unexpectedly fits 64 bits")
	}
	red := rns.NewReducer(29)
	sink := 0
	cases := []struct {
		name string
		fn   func()
	}{
		{"ForwardReduced/small", func() { sink += ForwardReduced(red, small) }},
		{"ForwardReduced/wide", func() { sink += ForwardReduced(red, wide) }},
		{"Forward/small", func() { sink += Forward(small, 29) }},
		{"Forward/wide", func() { sink += Forward(wide, 29) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f objects/op, want 0", tc.name, allocs)
		}
	}
	if sink < 0 {
		t.Fatal("impossible sink")
	}
}

// TestEncodeRouteAllocs bounds one fresh encode, basis validation and
// CRT constants included: a 5-switch fattree:28 path, and Net15's
// AS1→AS3 route with its planned protection set.
func TestEncodeRouteAllocs(t *testing.T) {
	cases := []struct {
		spec, src, dst string
		protect        bool
		max            float64
	}{
		{"fattree:28", "", "", false, 10}, // first edge to last: 5 switches
		{"net15", "AS1", "AS3", true, 14},
	}
	for _, tc := range cases {
		g, err := topology.ByName(tc.spec)
		if err != nil {
			t.Fatalf("ByName(%s): %v", tc.spec, err)
		}
		if tc.src == "" {
			edges := g.EdgeNodes()
			tc.src, tc.dst = edges[0].Name(), edges[len(edges)-1].Name()
		}
		path, err := topology.ShortestPath(g, tc.src, tc.dst, nil)
		if err != nil {
			t.Fatalf("ShortestPath: %v", err)
		}
		var hops []Hop
		if tc.protect {
			if hops, err = PlanProtection(g, path, PlanOptions{}); err != nil {
				t.Fatalf("PlanProtection: %v", err)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := EncodeRoute(path, hops); err != nil {
				t.Fatalf("EncodeRoute: %v", err)
			}
		})
		if allocs > tc.max {
			t.Errorf("%s %s: EncodeRoute allocates %.1f objects/op, want <= %.0f", tc.spec, path, allocs, tc.max)
		}
		t.Logf("%s %s (%d protection hops): %.1f allocations/op", tc.spec, path, len(hops), allocs)
	}
}
