package coprime

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/rns"
)

func TestAllocatorNextSmallestFirst(t *testing.T) {
	got, err := Assign([]uint64{2, 2, 2, 2, 2, 2})
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	// Greedy over the integers yields primes, in input order.
	if want := []uint64{2, 3, 5, 7, 11, 13}; !slices.Equal(got, want) {
		t.Fatalf("Assign = %v, want %v", got, want)
	}
}

func TestAllocatorRespectsMinimum(t *testing.T) {
	// Served 8, 7, 6: 8 and 7 take their minimums; 6 is blocked by 2,
	// 7 is taken and 8 is blocked by 2 again, so the third gets 9.
	got, err := Assign([]uint64{6, 7, 8})
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if want := []uint64{9, 7, 8}; !slices.Equal(got, want) {
		t.Errorf("Assign(6, 7, 8) = %v, want %v", got, want)
	}
	// 10 takes 10; 9 is coprime with it; 8, 9 and 10 are then all
	// blocked for the last one.
	got, err = Assign([]uint64{10, 9, 8})
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if want := []uint64{10, 9, 11}; !slices.Equal(got, want) {
		t.Errorf("Assign(10, 9, 8) = %v, want %v", got, want)
	}
}

// greedy is Assign without the blocked-factor set or the scan cursors:
// each ID is the first candidate at or above its minimum whose GCD
// with every ID so far is 1.
func greedy(mins []uint64) []uint64 {
	order := make([]int, len(mins))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return mins[order[i]] > mins[order[j]] })
	out := make([]uint64, len(mins))
	var used []uint64
	for _, i := range order {
	next:
		for v := max(mins[i], 2); ; v++ {
			for _, u := range used {
				if rns.GCD(u, v) != 1 {
					continue next
				}
			}
			out[i], used = v, append(used, v)
			break
		}
	}
	return out
}

// Repeated minimums resume their scan where the last one stopped, and
// candidates are rejected by blocked prime factors: neither may change
// an ID against the plain GCD greedy.
func TestAssignMatchesGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		mins := make([]uint64, 2+rng.Intn(40))
		for i := range mins {
			mins[i] = uint64(1 + rng.Intn(6)) // many repeats
		}
		got, err := Assign(mins)
		if err != nil {
			t.Fatalf("Assign(%v): %v", mins, err)
		}
		if want := greedy(mins); !slices.Equal(got, want) {
			t.Fatalf("Assign(%v) = %v, greedy %v", mins, got, want)
		}
	}
}

func TestAssignProducesValidBasis(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(30)
		mins := make([]uint64, n)
		for i := range mins {
			mins[i] = uint64(1 + rng.Intn(8)) // degrees 1..8
		}
		ids, err := Assign(mins)
		if err != nil {
			t.Fatalf("Assign(%v): %v", mins, err)
		}
		if err := rns.CheckPairwiseCoprime(ids); err != nil {
			t.Fatalf("Assign(%v) = %v: %v", mins, ids, err)
		}
		for i, id := range ids {
			if id < mins[i] {
				t.Fatalf("Assign(%v)[%d] = %d below minimum %d", mins, i, id, mins[i])
			}
		}
	}
}
