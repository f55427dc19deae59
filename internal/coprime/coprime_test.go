package coprime

import (
	"math/big"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
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

// greedy is Assign without the sieve, the blocked-factor set or the
// scan cursors: each ID is the first candidate at or above its minimum
// coprime with the product of the IDs so far. A candidate found not
// coprime (or taken) is marked so and never tested again, which holds
// as the product only grows.
func greedy(mins []uint64) []uint64 {
	order := make([]int, len(mins))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return mins[order[i]] > mins[order[j]] })
	out := make([]uint64, len(mins))
	used, rem, id := big.NewInt(1), new(big.Int), new(big.Int)
	var rejected []bool
	for _, i := range order {
		v := max(mins[i], 2)
		for ; ; v++ {
			for uint64(len(rejected)) <= v {
				rejected = append(rejected, false)
			}
			if !rejected[v] && rns.GCD(rem.Mod(used, id.SetUint64(v)).Uint64(), v) == 1 {
				break
			}
			rejected[v] = true
		}
		out[i], rejected[v] = v, true
		used.Mul(used, id.SetUint64(v))
	}
	return out
}

// Repeated minimums resume their scan where the last one stopped, and
// candidates are factored through the sieve and rejected by blocked
// prime factors: none of it may change an ID against the plain GCD
// greedy — on small sets, on sets shaped like large fabrics (up to
// 1 200 switches, a few distinct degrees up to 64), and on a set whose
// candidates climb past the sieve's first length.
func TestAssignMatchesGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var cases [][]uint64
	for trial := 0; trial < 50; trial++ {
		mins := make([]uint64, 2+rng.Intn(40))
		for i := range mins {
			mins[i] = uint64(1 + rng.Intn(6)) // many repeats
		}
		cases = append(cases, mins)
	}
	for trial := 0; trial < 6; trial++ {
		degrees := []uint64{2, 5, 17, 29, 33, 57, 65}
		degrees = degrees[:2+rng.Intn(len(degrees)-1)]
		mins := make([]uint64, 200+rng.Intn(1001))
		for i := range mins {
			mins[i] = degrees[rng.Intn(len(degrees))]
		}
		cases = append(cases, mins)
	}
	twos := make([]uint64, 600) // IDs past 4 096
	for i := range twos {
		twos[i] = 2
	}
	cases = append(cases, twos)
	for _, mins := range cases {
		got, err := Assign(mins)
		if err != nil {
			t.Fatalf("Assign(%v): %v", mins, err)
		}
		if want := greedy(mins); !slices.Equal(got, want) {
			t.Fatalf("Assign(%v) = %v, greedy %v", mins, got, want)
		}
	}
	if ids, _ := Assign(cases[len(cases)-1]); slices.Max(ids) < 1<<12 {
		t.Fatalf("largest ID %d: the sieve never grew", slices.Max(ids))
	}
}

// IDs stay below the sieve's cap: a minimum at or above it is refused
// before any sieve is built, and one just below it is served from a
// sieve of the cap's length.
func TestAssignRefusesMinimumAboveCap(t *testing.T) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	_, err := Assign([]uint64{sieveCap, 2})
	runtime.ReadMemStats(&ms)
	if err == nil || !strings.Contains(err.Error(), "ID space exhausted") {
		t.Fatalf("Assign above the cap: %v, want ID space exhausted", err)
	}
	if grew := ms.TotalAlloc - before; grew > 1<<16 {
		t.Errorf("refusing a minimum above the cap allocated %d bytes", grew)
	}
	ids, err := Assign([]uint64{sieveCap - 3, 2}) // 2^20-3 is prime
	if err != nil || ids[0] != sieveCap-3 {
		t.Fatalf("Assign just below the cap = %v, %v", ids, err)
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
