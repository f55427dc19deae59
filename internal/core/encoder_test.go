package core

import (
	"testing"

	"repro/internal/topology"
)

func encoderFixture(t *testing.T) (*topology.Graph, topology.Path) {
	t.Helper()
	g, err := topology.Net15()
	if err != nil {
		t.Fatalf("Net15: %v", err)
	}
	path, err := topology.ShortestPath(g, "AS1", "AS3", nil)
	if err != nil {
		t.Fatalf("ShortestPath: %v", err)
	}
	return g, path
}

// TestEncoderMatchesEncodeRoute: the cached encoder is a drop-in for
// EncodeRoute — identical routes, and a basis seen before is served the
// System built then (that a permutation of one is not validated again
// is rns.BasisCache's own test).
func TestEncoderMatchesEncodeRoute(t *testing.T) {
	g, path := encoderFixture(t)
	enc := NewEncoder()

	fresh, err := EncodeRoute(path, nil)
	if err != nil {
		t.Fatalf("EncodeRoute: %v", err)
	}
	cached, err := enc.EncodeRoute(path, nil)
	if err != nil {
		t.Fatalf("Encoder.EncodeRoute: %v", err)
	}
	if !cached.ID.Equal(fresh.ID) {
		t.Errorf("cached ID %v != fresh ID %v", cached.ID, fresh.ID)
	}
	repeat, err := enc.EncodeRoute(path, nil)
	if err != nil {
		t.Fatalf("Encoder.EncodeRoute (repeat): %v", err)
	}
	if repeat.System != cached.System {
		t.Error("a repeated basis was not served the cached System")
	}

	// The reverse path visits the same switches in reverse order: the
	// sorted-canonical cache level must absorb it without revalidation.
	rev, err := topology.ShortestPath(g, "AS3", "AS1", nil)
	if err != nil {
		t.Fatalf("ShortestPath(reverse): %v", err)
	}
	revFresh, err := EncodeRoute(rev, nil)
	if err != nil {
		t.Fatalf("EncodeRoute(reverse): %v", err)
	}
	revCached, err := enc.EncodeRoute(rev, nil)
	if err != nil {
		t.Fatalf("Encoder.EncodeRoute(reverse): %v", err)
	}
	if !revCached.ID.Equal(revFresh.ID) {
		t.Errorf("reverse cached ID %v != fresh ID %v", revCached.ID, revFresh.ID)
	}
	if revRepeat, err := enc.EncodeRoute(rev, nil); err != nil || revRepeat.System != revCached.System {
		t.Errorf("a repeated reverse basis was not served the cached System (%v)", err)
	}
}

// TestEncodeRouteCachedBoundedAlloc: with a warm basis cache,
// re-encoding a route must cost a small constant number of
// allocations (the Route value and its hop/residue slices), and
// strictly fewer than the uncached path that rebuilds an rns.System.
func TestEncodeRouteCachedBoundedAlloc(t *testing.T) {
	_, path := encoderFixture(t)
	enc := NewEncoder()
	if _, err := enc.EncodeRoute(path, nil); err != nil {
		t.Fatalf("Encoder.EncodeRoute (warm): %v", err)
	}

	cached := testing.AllocsPerRun(100, func() {
		if _, err := enc.EncodeRoute(path, nil); err != nil {
			t.Fatalf("Encoder.EncodeRoute: %v", err)
		}
	})
	uncached := testing.AllocsPerRun(100, func() {
		if _, err := EncodeRoute(path, nil); err != nil {
			t.Fatalf("EncodeRoute: %v", err)
		}
	})
	const maxCachedAllocs = 12
	if cached > maxCachedAllocs {
		t.Errorf("cached EncodeRoute allocates %.1f objects/op, want <= %d", cached, maxCachedAllocs)
	}
	if cached >= uncached {
		t.Errorf("cached EncodeRoute allocates %.1f objects/op, uncached %.1f; cache saves nothing", cached, uncached)
	}
	t.Logf("EncodeRoute allocations/op: cached %.1f, uncached %.1f", cached, uncached)
}
