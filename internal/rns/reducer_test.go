package rns

import (
	"math/big"
	"math/rand"
	"testing"
)

// interestingModuli are edge-case moduli the random sweep might miss:
// tiny, powers of two, and values hugging 2³² and 2⁶⁴ on both sides
// (the narrow/wide reducer paths switch at 2³²).
var interestingModuli = []uint64{
	2, 3, 4, 5, 7, 8, 16, 29, 67, 255, 256, 257,
	1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<32 + 15,
	1<<63 - 25, 1 << 63, 1<<64 - 59, 1<<64 - 1,
}

func TestReducerMod64MatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	values := []uint64{0, 1, 2, 1<<32 - 1, 1 << 32, 1<<64 - 1}
	for _, m := range interestingModuli {
		rd := NewReducer(m)
		for _, v := range values {
			if got, want := rd.Mod64(v), v%m; got != want {
				t.Fatalf("Reducer(%d).Mod64(%d) = %d, want %d", m, v, got, want)
			}
		}
	}
	for i := 0; i < 10_000; i++ {
		m := rng.Uint64()
		if m == 0 {
			m = 2
		}
		v := rng.Uint64()
		rd := NewReducer(m)
		if got, want := rd.Mod64(v), v%m; got != want {
			t.Fatalf("Reducer(%d).Mod64(%d) = %d, want %d", m, v, got, want)
		}
	}
}

// TestReducerModMatchesRouteID: Reducer.Mod agrees with % (small path)
// and big.Int.Mod (wide path) for 10k random (value, modulus) pairs,
// including moduli near 2³² and 2⁶⁴.
func TestReducerModMatchesRouteID(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	randModulus := func() uint64 {
		switch rng.Intn(4) {
		case 0: // realistic switch IDs
			return 2 + uint64(rng.Intn(1<<16))
		case 1: // near 2³²
			return 1<<32 - 16 + uint64(rng.Intn(32))
		case 2: // near 2⁶⁴
			return 1<<64 - 64 + uint64(rng.Int63n(64))
		default:
			m := rng.Uint64()
			if m < 2 {
				m = 2
			}
			return m
		}
	}
	// Edge-case moduli × a fixed wide value: exercises the fold's
	// r64 = 0 case (m a power of two divides 2⁶⁴) and the narrow/wide
	// boundary, which the random sweep below may miss.
	edgeVal, _ := new(big.Int).SetString("123456789abcdef0fedcba9876543210deadbeefcafef00d", 16)
	edgeWide := RouteIDFromBig(edgeVal)
	for _, m := range interestingModuli {
		rd := NewReducer(m)
		want := new(big.Int).Mod(edgeVal, new(big.Int).SetUint64(m)).Uint64()
		if got := rd.Mod(edgeWide); got != want {
			t.Fatalf("Reducer(%d).Mod(edge wide) = %d, want %d", m, got, want)
		}
	}

	wideVal := new(big.Int)
	word := new(big.Int)
	for i := 0; i < 10_000; i++ {
		m := randModulus()
		rd := NewReducer(m)

		// Small path against the hardware %.
		v := rng.Uint64()
		small := RouteIDFromUint64(v)
		if got, want := rd.Mod(small), v%m; got != want {
			t.Fatalf("Reducer(%d).Mod(%d) = %d, want %d", m, v, got, want)
		}

		// Wide path against big.Int.Mod, 2–5 words.
		wideVal.SetUint64(1 | rng.Uint64() | 1<<63) // force a high top word
		for w := 1 + rng.Intn(4); w > 0; w-- {
			wideVal.Lsh(wideVal, 64)
			wideVal.Or(wideVal, word.SetUint64(rng.Uint64()))
		}
		wide := RouteIDFromBig(wideVal)
		if _, ok := wide.Uint64(); ok {
			t.Fatalf("test value %s unexpectedly narrow", wideVal)
		}
		want := new(big.Int).Mod(wideVal, word.SetUint64(m)).Uint64()
		if got := rd.Mod(wide); got != want {
			t.Fatalf("Reducer(%d).Mod(wide %s) = %d, want %d", m, wideVal, got, want)
		}
		// The pre-existing division path must agree too.
		if got := wide.Mod(m); got != want {
			t.Fatalf("RouteID(%s).Mod(%d) = %d, want %d", wideVal, m, got, want)
		}
	}
}

func TestReducerDegenerateModuli(t *testing.T) {
	if got := NewReducer(1).Mod64(12345); got != 0 {
		t.Errorf("Reducer(1).Mod64 = %d, want 0", got)
	}
	wide := RouteIDFromBig(new(big.Int).Lsh(big.NewInt(99), 100))
	if got := NewReducer(1).Mod(wide); got != 0 {
		t.Errorf("Reducer(1).Mod(wide) = %d, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewReducer(0) did not panic")
		}
	}()
	NewReducer(0)
}

func TestReducerMatchesSystemResidues(t *testing.T) {
	moduli := []uint64{7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67}
	sys, err := NewSystem(moduli)
	if err != nil {
		t.Fatal(err)
	}
	residues := make([]uint64, len(moduli))
	for i, m := range moduli {
		residues[i] = uint64(i) % m
	}
	id, err := sys.Encode(residues)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range moduli {
		rd := NewReducer(m)
		if got := rd.Mod(id); got != residues[i] {
			t.Errorf("Reducer(%d).Mod = %d, want residue %d", m, rd.Mod(id), residues[i])
		}
	}
}
