package rns

import (
	"sync"
	"testing"
)

func TestBasisCacheExactOrderSharesSystem(t *testing.T) {
	c := NewBasisCache()
	moduli := []uint64{10, 7, 13, 29, 11, 19, 27}
	a, err := c.System(moduli)
	if err != nil {
		t.Fatalf("System: %v", err)
	}
	b, err := c.System(moduli)
	if err != nil {
		t.Fatalf("System (second): %v", err)
	}
	if a != b {
		t.Error("exact-order repeat did not return the shared *System")
	}
	if c.Misses() != 1 {
		t.Errorf("misses = %d, want 1", c.Misses())
	}
}

func TestBasisCachePermutationReusesConstants(t *testing.T) {
	c := NewBasisCache()
	moduli := []uint64{10, 7, 13, 29, 11, 19, 27}
	if _, err := c.System(moduli); err != nil {
		t.Fatalf("System: %v", err)
	}
	perm := []uint64{29, 27, 19, 13, 11, 10, 7}
	sys, err := c.System(perm)
	if err != nil {
		t.Fatalf("System(permutation): %v", err)
	}
	if c.Misses() != 1 {
		t.Errorf("permutation of a known basis paid full validation (misses = %d)", c.Misses())
	}
	// The permuted System must encode/decode exactly like a fresh one.
	fresh, err := NewSystem(perm)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	residues := []uint64{3, 20, 18, 12, 4, 9, 6}
	got, err := sys.Encode(residues)
	if err != nil {
		t.Fatalf("cached Encode: %v", err)
	}
	want, err := fresh.Encode(residues)
	if err != nil {
		t.Fatalf("fresh Encode: %v", err)
	}
	if !got.Equal(want) {
		t.Errorf("cached permuted Encode = %v, fresh = %v", got, want)
	}
	for i, r := range sys.Residues(got) {
		if r != residues[i] {
			t.Errorf("Residues[%d] = %d, want %d", i, r, residues[i])
		}
	}
}

func TestBasisCacheWidePermutation(t *testing.T) {
	c := NewBasisCache()
	moduli := []uint64{7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67}
	if _, err := c.System(moduli); err != nil {
		t.Fatalf("System: %v", err)
	}
	perm := make([]uint64, len(moduli))
	for i, m := range moduli {
		perm[len(moduli)-1-i] = m
	}
	sys, err := c.System(perm)
	if err != nil {
		t.Fatalf("System(permutation): %v", err)
	}
	if c.Misses() != 1 {
		t.Errorf("wide permutation paid full validation (misses = %d)", c.Misses())
	}
	residues := make([]uint64, len(perm))
	for i, m := range perm {
		residues[i] = uint64(i+1) % m
	}
	got, err := sys.Encode(residues)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !got.IsWide() {
		t.Fatal("16-prime route ID unexpectedly fits 64 bits")
	}
	for i, r := range sys.Residues(got) {
		if r != residues[i] {
			t.Errorf("Residues[%d] = %d, want %d", i, r, residues[i])
		}
	}
}

func TestBasisCacheRejectsInvalidBasis(t *testing.T) {
	c := NewBasisCache()
	if _, err := c.System([]uint64{6, 9}); err == nil {
		t.Error("cache accepted a non-coprime basis")
	}
	// The failure must not poison the cache.
	if _, err := c.System([]uint64{6, 9}); err == nil {
		t.Error("cache accepted a non-coprime basis on retry")
	}
}

func TestBasisCacheConcurrent(t *testing.T) {
	c := NewBasisCache()
	bases := [][]uint64{
		{10, 7, 13, 29, 11, 19, 27},
		{29, 27, 19, 13, 11, 10, 7},
		{4, 7, 11, 5},
		{5, 11, 7, 4},
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := c.System(bases[(w+i)%len(bases)]); err != nil {
					t.Errorf("System: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Misses() > 2 {
		t.Errorf("misses = %d, want ≤ 2 (one per distinct basis)", c.Misses())
	}
}

func TestAppendResiduesMatchesResidues(t *testing.T) {
	sys, err := NewSystem([]uint64{10, 7, 13, 29})
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.Encode([]uint64{3, 2, 7, 16})
	if err != nil {
		t.Fatal(err)
	}
	want := sys.Residues(r)
	buf := make([]uint64, 0, 8)
	got := sys.AppendResidues(buf[:0], r)
	if len(got) != len(want) {
		t.Fatalf("AppendResidues returned %d residues, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("residue[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// Appending preserves the prefix.
	pre := sys.AppendResidues([]uint64{99}, r)
	if pre[0] != 99 || len(pre) != len(want)+1 {
		t.Error("AppendResidues clobbered the destination prefix")
	}
}
