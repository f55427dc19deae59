package rns

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"
)

// TestPaperFig1Primary reproduces the paper's §2.2 worked example:
// switches {4,7,11}, ports {0,2,0} → R = 44.
func TestPaperFig1Primary(t *testing.T) {
	sys, err := NewSystem([]uint64{4, 7, 11})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if m, _ := sys.M().Uint64(); m != 308 {
		t.Errorf("M = %d, want 308", m)
	}
	r, err := sys.Encode([]uint64{0, 2, 0})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if v, _ := r.Uint64(); v != 44 {
		t.Errorf("route ID = %v, want 44", r)
	}
}

// TestPaperFig1Protected reproduces the driven-deflection example:
// switches {4,7,11,5}, ports {0,2,0,0} → R = 660.
func TestPaperFig1Protected(t *testing.T) {
	sys, err := NewSystem([]uint64{4, 7, 11, 5})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if m, _ := sys.M().Uint64(); m != 1540 {
		t.Errorf("M = %d, want 1540", m)
	}
	r, err := sys.Encode([]uint64{0, 2, 0, 0})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if v, _ := r.Uint64(); v != 660 {
		t.Errorf("route ID = %v, want 660", r)
	}
	// The forwarding decisions of Fig. 1(b).
	forwarding := []struct{ swID, port uint64 }{
		{4, 0}, {7, 2}, {11, 0}, {5, 0},
	}
	for _, f := range forwarding {
		if got := r.Mod(f.swID); got != f.port {
			t.Errorf("660 mod %d = %d, want %d", f.swID, got, f.port)
		}
	}
}

// TestPaperTable1BitLengths asserts the exact Table 1 rows for the
// reconstructed 15-node network ID sets (see DESIGN.md §4.2).
func TestPaperTable1BitLengths(t *testing.T) {
	route := []uint64{10, 7, 13, 29}
	partial := append(append([]uint64(nil), route...), 11, 19, 27)
	full := append(append([]uint64(nil), partial...), 17, 37, 47)
	tests := []struct {
		name        string
		moduli      []uint64
		wantBits    int
		wantSwCount int
	}{
		{name: "unprotected", moduli: route, wantBits: 15, wantSwCount: 4},
		{name: "partial protection", moduli: partial, wantBits: 28, wantSwCount: 7},
		{name: "full protection", moduli: full, wantBits: 43, wantSwCount: 10},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sys, err := NewSystem(tt.moduli)
			if err != nil {
				t.Fatalf("NewSystem(%v): %v", tt.moduli, err)
			}
			if got := sys.BitLength(); got != tt.wantBits {
				t.Errorf("BitLength = %d, want %d", got, tt.wantBits)
			}
			if got := sys.Len(); got != tt.wantSwCount {
				t.Errorf("Len = %d, want %d", got, tt.wantSwCount)
			}
		})
	}
}

func TestNewSystemRejectsBadBases(t *testing.T) {
	tests := []struct {
		name    string
		moduli  []uint64
		wantErr error
	}{
		{name: "empty", moduli: nil, wantErr: ErrEmptyBasis},
		{name: "not coprime", moduli: []uint64{6, 10}, wantErr: ErrNotCoprime},
		{name: "too small", moduli: []uint64{1, 7}, wantErr: ErrModulusTooSmall},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewSystem(tt.moduli); !errors.Is(err, tt.wantErr) {
				t.Errorf("NewSystem(%v) error = %v, want %v", tt.moduli, err, tt.wantErr)
			}
		})
	}
}

func TestEncodeValidation(t *testing.T) {
	sys, err := NewSystem([]uint64{4, 7, 11})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if _, err := sys.Encode([]uint64{0, 2}); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("short residues error = %v, want ErrLengthMismatch", err)
	}
	if _, err := sys.Encode([]uint64{4, 2, 0}); !errors.Is(err, ErrResidueRange) {
		t.Errorf("residue 4 for modulus 4 error = %v, want ErrResidueRange", err)
	}
}

// TestEncodeDecodeRoundTripSmall checks the CRT inverse property on
// random residue vectors in the native (M < 2^64) regime.
func TestEncodeDecodeRoundTripSmall(t *testing.T) {
	moduli := []uint64{10, 7, 13, 29, 11, 19, 27} // the paper's partial basis
	sys, err := NewSystem(moduli)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		want := make([]uint64, len(moduli))
		for j, m := range moduli {
			want[j] = rng.Uint64() % m
		}
		r, err := sys.Encode(want)
		if err != nil {
			t.Fatalf("Encode(%v): %v", want, err)
		}
		got := sys.Residues(r)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("Residues(Encode(%v))[%d] = %d, want %d (R=%v)", want, j, got[j], want[j], r)
			}
		}
	}
}

// TestEncodeDecodeRoundTripWide exercises the math/big path with a
// basis whose product exceeds 2^64 (e.g. long full-protection sets).
func TestEncodeDecodeRoundTripWide(t *testing.T) {
	moduli := []uint64{101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151}
	sys, err := NewSystem(moduli)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if _, ok := sys.M().Uint64(); ok {
		t.Fatal("expected a wide basis (M >= 2^64); test is not exercising the big path")
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		want := make([]uint64, len(moduli))
		for j, m := range moduli {
			want[j] = rng.Uint64() % m
		}
		r, err := sys.Encode(want)
		if err != nil {
			t.Fatalf("Encode(%v): %v", want, err)
		}
		got := sys.Residues(r)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("Residues(Encode(%v))[%d] = %d, want %d (R=%v)", want, j, got[j], want[j], r)
			}
		}
	}
}

// TestEncodeUniqueness: CRT guarantees the encoded value is the unique
// representative below M; sweep an entire small basis exhaustively.
func TestEncodeUniqueness(t *testing.T) {
	moduli := []uint64{3, 4, 5}
	sys, err := NewSystem(moduli)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	seen := make(map[uint64]bool, 60)
	for a := uint64(0); a < 3; a++ {
		for b := uint64(0); b < 4; b++ {
			for c := uint64(0); c < 5; c++ {
				r, err := sys.Encode([]uint64{a, b, c})
				if err != nil {
					t.Fatalf("Encode: %v", err)
				}
				v, ok := r.Uint64()
				if !ok || v >= 60 {
					t.Fatalf("route ID %v out of range [0, 60)", r)
				}
				if seen[v] {
					t.Fatalf("route ID %d produced twice", v)
				}
				seen[v] = true
			}
		}
	}
	if len(seen) != 60 {
		t.Errorf("got %d distinct route IDs, want 60", len(seen))
	}
}

// TestSwitchOrderIrrelevant verifies the commutativity property the
// paper relies on (§2.2): permuting the basis changes nothing about
// the forwarding residues.
func TestSwitchOrderIrrelevant(t *testing.T) {
	sysA, err := NewSystem([]uint64{4, 7, 11, 5})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	sysB, err := NewSystem([]uint64{5, 11, 4, 7})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	ra, err := sysA.Encode([]uint64{0, 2, 0, 0})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	rb, err := sysB.Encode([]uint64{0, 0, 0, 2})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !ra.Equal(rb) {
		t.Errorf("permuted basis produced %v, want %v", rb, ra)
	}
}

func TestWideMatchesBigIntReference(t *testing.T) {
	moduli := []uint64{7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67}
	sys, err := NewSystem(moduli)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if _, ok := sys.M().Uint64(); ok {
		t.Fatal("basis unexpectedly fits in uint64")
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 200; i++ {
		res := make([]uint64, len(moduli))
		for j, m := range moduli {
			res[j] = rng.Uint64() % m
		}
		r, err := sys.Encode(res)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		// Reference: check residues via big.Int directly.
		rb := new(big.Int).SetBytes(r.Bytes())
		for j, m := range moduli {
			want := new(big.Int).Mod(rb, new(big.Int).SetUint64(m)).Uint64()
			if got := r.Mod(m); got != want {
				t.Fatalf("RouteID.Mod(%d) = %d, big.Int reference = %d", m, got, want)
			}
			if want != res[j] {
				t.Fatalf("encoded residue mod %d = %d, want %d", m, want, res[j])
			}
		}
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
