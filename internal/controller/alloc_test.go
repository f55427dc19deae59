// Under the race detector sync.Pool deliberately bypasses itself
// (poolRaceHash), so the path search's pooled scratch makes allocation
// counts meaningless there; the assertions run in every non-race
// `go test ./...`.
//go:build !race

package controller

import (
	"math/rand"
	"testing"

	"repro/internal/topology"
)

// TestInstallRouteAllocs bounds what one InstallRoute allocates, path
// search, encode and route-table bookkeeping together: fresh pairs on
// fattree:28 (the benchmark's flows world, where no RNS basis recurs:
// a route-book miss, which allocates nothing beyond the encode but the
// book's rare growth) and recurring pairs on Net15 (a book hit, which
// encodes nothing).
func TestInstallRouteAllocs(t *testing.T) {
	ft, err := topology.FromSpec("fattree:28")
	if err != nil {
		t.Fatalf("FromSpec: %v", err)
	}
	// Distinct seeded pairs, as the benchmark's flows workload draws them.
	edges := ft.EdgeNodes()
	rng := rand.New(rand.NewSource(7))
	c := New(ft)
	installFresh := func() {
		for {
			src, dst := edges[rng.Intn(len(edges))].Name(), edges[rng.Intn(len(edges))].Name()
			if _, ok := c.Route(src, dst); ok || src == dst {
				continue
			}
			if _, err := c.InstallRoute(src, dst, nil); err != nil {
				t.Fatalf("InstallRoute(%s, %s): %v", src, dst, err)
			}
			return
		}
	}
	for c.Routes() < 256 { // the benchmark's table size
		installFresh()
	}
	fresh := testing.AllocsPerRun(100, installFresh)
	if fresh > 19 {
		t.Errorf("fattree:28 InstallRoute on a fresh pair allocates %.1f objects/op, want <= 19", fresh)
	}

	c = New(net15(t))
	pairs := [][2]string{{"AS1", "AS3"}, {"AS3", "AS1"}, {"AS2", "AS3"}}
	next := 0
	recurring := testing.AllocsPerRun(99, func() {
		p := pairs[next%len(pairs)]
		next++
		if _, err := c.InstallRoute(p[0], p[1], nil); err != nil {
			t.Fatalf("InstallRoute(%s, %s): %v", p[0], p[1], err)
		}
	})
	if recurring > 7 {
		t.Errorf("Net15 InstallRoute on a recurring pair allocates %.1f objects/op, want <= 7", recurring)
	}
	t.Logf("InstallRoute allocations/op: fattree:28 fresh %.1f, Net15 recurring %.1f", fresh, recurring)
}
