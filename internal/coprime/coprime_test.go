package coprime

import (
	"math/rand"
	"testing"

	"repro/internal/rns"
)

func TestAllocatorNextSmallestFirst(t *testing.T) {
	var a Allocator
	want := []uint64{2, 3, 5, 7, 11, 13} // greedy over the integers yields primes
	for _, w := range want {
		got, err := a.Next(2)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if got != w {
			t.Fatalf("Next = %d, want %d", got, w)
		}
	}
}

func TestAllocatorRespectsMinimum(t *testing.T) {
	var a Allocator
	got, err := a.Next(6)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if got != 6 {
		t.Errorf("Next(6) = %d, want 6 (6 is coprime with nothing yet)", got)
	}
	// 7 is next coprime with 6; 8 shares 2, 9 shares 3.
	got, err = a.Next(7)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if got != 7 {
		t.Errorf("second Next(7) = %d, want 7", got)
	}
	got, err = a.Next(8)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if got != 11 {
		t.Errorf("Next(8) after {6,7} = %d, want 11 (8,9,10 conflict)", got)
	}
}

func TestNewAllocatorRejectsNonCoprimeSeed(t *testing.T) {
	if _, err := NewAllocator([]uint64{6, 10}); err == nil {
		t.Error("NewAllocator accepted a non-coprime seed set")
	}
}

func TestNewAllocatorSeeded(t *testing.T) {
	a, err := NewAllocator([]uint64{4, 7, 11, 5})
	if err != nil {
		t.Fatalf("NewAllocator: %v", err)
	}
	got, err := a.Next(2)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if got != 3 {
		t.Errorf("Next after fig1 basis = %d, want 3", got)
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

func TestPrimes(t *testing.T) {
	got := Primes(7, 5)
	want := []uint64{7, 11, 13, 17, 19}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Primes(7, 5) = %v, want %v", got, want)
		}
	}
	// The RNP28 ID pool from DESIGN.md: first 28 primes ≥ 7 end at 127.
	rnp := Primes(7, 28)
	if rnp[27] != 127 {
		t.Errorf("28th prime >= 7 is %d, want 127", rnp[27])
	}
	if err := rns.CheckPairwiseCoprime(rnp); err != nil {
		t.Errorf("prime pool not coprime: %v", err)
	}
}

func TestIsPrime(t *testing.T) {
	tests := []struct {
		v    uint64
		want bool
	}{
		{0, false}, {1, false}, {2, true}, {3, true}, {4, false},
		{27, false}, {29, true}, {97, true}, {1 << 16, false},
		{65537, true}, {7919, true}, {7921, false}, // 89^2
	}
	for _, tt := range tests {
		if got := IsPrime(tt.v); got != tt.want {
			t.Errorf("IsPrime(%d) = %v, want %v", tt.v, got, tt.want)
		}
	}
}
