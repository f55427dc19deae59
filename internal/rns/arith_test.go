package rns

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGCD(t *testing.T) {
	tests := []struct {
		name string
		a, b uint64
		want uint64
	}{
		{name: "coprime primes", a: 7, b: 11, want: 1},
		{name: "shared factor", a: 12, b: 18, want: 6},
		{name: "equal", a: 29, b: 29, want: 29},
		{name: "one is zero", a: 0, b: 5, want: 5},
		{name: "other is zero", a: 5, b: 0, want: 5},
		{name: "both zero", a: 0, b: 0, want: 0},
		{name: "one", a: 1, b: 123456789, want: 1},
		{name: "prime power vs prime", a: 27, b: 9, want: 9},
		{name: "large", a: 1 << 40, b: 1 << 20, want: 1 << 20},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := GCD(tt.a, tt.b); got != tt.want {
				t.Errorf("GCD(%d, %d) = %d, want %d", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestGCDCommutativeAndDivides(t *testing.T) {
	f := func(a, b uint64) bool {
		a %= 1 << 32
		b %= 1 << 32
		g := GCD(a, b)
		if g != GCD(b, a) {
			return false
		}
		if g == 0 {
			return a == 0 && b == 0
		}
		return a%g == 0 && b%g == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCoprime(t *testing.T) {
	if GCD(4, 27) != 1 {
		t.Error("GCD(4, 27) != 1, want coprime")
	}
	if GCD(10, 15) == 1 {
		t.Error("GCD(10, 15) = 1, want a shared factor")
	}
}

func TestCheckPairwiseCoprime(t *testing.T) {
	tests := []struct {
		name    string
		ids     []uint64
		wantErr error
	}{
		{name: "paper fig1 basis", ids: []uint64{4, 7, 11, 5}, wantErr: nil},
		{name: "paper net15 full basis", ids: []uint64{10, 7, 13, 29, 11, 19, 27, 17, 37, 47}, wantErr: nil},
		{name: "single", ids: []uint64{42}, wantErr: nil},
		{name: "empty", ids: nil, wantErr: ErrEmptyBasis},
		{name: "contains one", ids: []uint64{7, 1}, wantErr: ErrModulusTooSmall},
		{name: "contains zero", ids: []uint64{0, 7}, wantErr: ErrModulusTooSmall},
		{name: "shared factor", ids: []uint64{7, 10, 15}, wantErr: ErrNotCoprime},
		{name: "duplicate", ids: []uint64{7, 7}, wantErr: ErrNotCoprime},
		{name: "prime and its power", ids: []uint64{7, 49}, wantErr: ErrNotCoprime},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := CheckPairwiseCoprime(tt.ids)
			if tt.wantErr == nil {
				if err != nil {
					t.Fatalf("CheckPairwiseCoprime(%v) = %v, want nil", tt.ids, err)
				}
				return
			}
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("CheckPairwiseCoprime(%v) = %v, want errors.Is(..., %v)", tt.ids, err, tt.wantErr)
			}
		})
	}
}

func TestCoprimeErrorDetails(t *testing.T) {
	err := CheckPairwiseCoprime([]uint64{7, 12, 18})
	var ce *CoprimeError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v is not a *CoprimeError", err)
	}
	if ce.A != 12 || ce.B != 18 || ce.GCD != 6 {
		t.Errorf("CoprimeError = {A:%d B:%d GCD:%d}, want {12 18 6}", ce.A, ce.B, ce.GCD)
	}
}

func TestModInverse(t *testing.T) {
	tests := []struct {
		name string
		a, m uint64
		want uint64
	}{
		// Worked examples straight from §2.2 of the paper.
		{name: "paper 77 mod 4", a: 77, m: 4, want: 1},
		{name: "paper 44 mod 7", a: 44, m: 7, want: 4},
		{name: "paper 28 mod 11", a: 28, m: 11, want: 2},
		{name: "paper 385 mod 4", a: 385, m: 4, want: 1},
		{name: "paper 220 mod 7", a: 220, m: 7, want: 5},
		{name: "paper 140 mod 11", a: 140, m: 11, want: 7},
		{name: "paper 308 mod 5", a: 308, m: 5, want: 2},
		{name: "identity", a: 1, m: 97, want: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := ModInverse(tt.a, tt.m)
			if err != nil {
				t.Fatalf("ModInverse(%d, %d) error: %v", tt.a, tt.m, err)
			}
			if got != tt.want {
				t.Errorf("ModInverse(%d, %d) = %d, want %d", tt.a, tt.m, got, tt.want)
			}
		})
	}
}

func TestModInverseNoInverse(t *testing.T) {
	if _, err := ModInverse(6, 9); !errors.Is(err, ErrNoInverse) {
		t.Errorf("ModInverse(6, 9) error = %v, want ErrNoInverse", err)
	}
	if _, err := ModInverse(0, 7); !errors.Is(err, ErrNoInverse) {
		t.Errorf("ModInverse(0, 7) error = %v, want ErrNoInverse", err)
	}
}

func TestModInverseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	primes := []uint64{3, 5, 7, 11, 13, 101, 997, 65537, 2147483647}
	for i := 0; i < 2000; i++ {
		m := primes[rng.Intn(len(primes))]
		a := rng.Uint64()%(m-1) + 1
		inv, err := ModInverse(a, m)
		if err != nil {
			t.Fatalf("ModInverse(%d, %d) error: %v", a, m, err)
		}
		if inv >= m {
			t.Fatalf("ModInverse(%d, %d) = %d, not reduced below modulus", a, m, inv)
		}
		if got := (a % m) * inv % m; got != 1 {
			t.Fatalf("(%d * %d) mod %d = %d, want 1", a, inv, m, got)
		}
	}
}

func TestAddMod(t *testing.T) {
	const m = 1<<63 + 5 // exercises the carry branch
	if got := addMod(m-1, m-1, m); got != m-2 {
		t.Errorf("addMod(m-1, m-1, m) = %d, want %d", got, uint64(m-2))
	}
	if got := addMod(0, 0, 7); got != 0 {
		t.Errorf("addMod(0, 0, 7) = %d, want 0", got)
	}
	if got := addMod(3, 4, 7); got != 0 {
		t.Errorf("addMod(3, 4, 7) = %d, want 0", got)
	}
	if got := addMod(3, 3, 7); got != 6 {
		t.Errorf("addMod(3, 3, 7) = %d, want 6", got)
	}
}

// pairwiseCoprime is the reference CheckPairwiseCoprime: one GCD per
// pair, in order, reporting the first failing id and its first partner.
func pairwiseCoprime(ids []uint64) error {
	if len(ids) == 0 {
		return ErrEmptyBasis
	}
	for i, id := range ids {
		if id < 2 {
			return fmt.Errorf("modulus #%d is %d: %w", i, id, ErrModulusTooSmall)
		}
		for _, other := range ids[:i] {
			if g := GCD(id, other); g != 1 {
				return &CoprimeError{A: other, B: id, GCD: g}
			}
		}
	}
	return nil
}

// TestCheckPairwiseCoprimeMatchesPairwise holds the running-product
// check to the pairwise sweep on random bases: small ids (ids below 2,
// duplicates and shared factors are common), and coprime 64-bit bases
// whose product spans many words, with and without a failing id
// appended at a random position.
func TestCheckPairwiseCoprimeMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	check := func(ids []uint64) {
		t.Helper()
		got, want := CheckPairwiseCoprime(ids), pairwiseCoprime(ids)
		var gotCE, wantCE *CoprimeError
		if fmt.Sprint(got) != fmt.Sprint(want) || errors.As(got, &gotCE) != errors.As(want, &wantCE) ||
			gotCE != nil && *gotCE != *wantCE {
			t.Fatalf("CheckPairwiseCoprime(%v) = %v, want %v", ids, got, want)
		}
	}
	failures := 0
	for trial := 0; trial < 2000; trial++ {
		ids := make([]uint64, 1+rng.Intn(12))
		for i := range ids {
			ids[i] = uint64(rng.Intn(60))
		}
		check(ids)
		if pairwiseCoprime(ids) != nil {
			failures++
		}
	}
	for trial := 0; trial < 300; trial++ {
		var ids []uint64
		for len(ids) < 1+rng.Intn(40) {
			x := rng.Uint64() | 1
			if rng.Intn(4) == 0 {
				x = 1<<64 - 59 // the largest 64-bit prime
			}
			if pairwiseCoprime(append(ids, x)) == nil {
				ids = append(ids, x)
			}
		}
		check(ids)
		bad := ids[rng.Intn(len(ids))] // a duplicate, or a shared factor
		if f := uint64(2 + rng.Intn(1000)); rng.Intn(2) == 0 && GCD(bad, f) != 1 {
			bad = f
		}
		pos := rng.Intn(len(ids) + 1)
		ids = append(ids[:pos], append([]uint64{bad}, ids[pos:]...)...)
		check(ids)
	}
	if failures == 0 {
		t.Error("no small base failed: the failure path went untested")
	}
}
