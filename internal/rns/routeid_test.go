package rns

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRouteIDZeroValue(t *testing.T) {
	var r RouteID
	if v, ok := r.Uint64(); !ok || v != 0 {
		t.Errorf("zero RouteID Uint64 = (%d, %v), want (0, true)", v, ok)
	}
	if got := r.BitLen(); got != 0 {
		t.Errorf("zero RouteID BitLen = %d, want 0", got)
	}
	if got := len(r.Bytes()); got != 0 {
		t.Errorf("zero RouteID Bytes length = %d, want 0", got)
	}
	if got := r.String(); got != "0" {
		t.Errorf("zero RouteID String = %q, want \"0\"", got)
	}
	if got := r.Mod(7); got != 0 {
		t.Errorf("zero RouteID Mod(7) = %d, want 0", got)
	}
}

func TestRouteIDBytesRoundTripSmall(t *testing.T) {
	f := func(v uint64) bool {
		r := RouteIDFromUint64(v)
		back := RouteIDFromBytes(r.Bytes())
		return back.Equal(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRouteIDBytesBigEndian(t *testing.T) {
	r := RouteIDFromUint64(0x0102)
	got := r.Bytes()
	if len(got) != 2 || got[0] != 0x01 || got[1] != 0x02 {
		t.Errorf("Bytes(0x0102) = %x, want 0102", got)
	}
}

func TestRouteIDBytesRoundTripWide(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		v := new(big.Int)
		v.Rand(rng, new(big.Int).Lsh(big.NewInt(1), 200))
		r := RouteIDFromBig(v)
		back := RouteIDFromBytes(r.Bytes())
		if !back.Equal(r) {
			t.Fatalf("round trip failed for %v", v)
		}
		if back.String() != v.String() {
			t.Fatalf("String = %s, want %s", back.String(), v.String())
		}
	}
}

func TestRouteIDFromBigNormalisesSmallValues(t *testing.T) {
	r := RouteIDFromBig(big.NewInt(660))
	if _, ok := r.Uint64(); !ok {
		t.Error("660 normalised to wide representation")
	}
	if !r.Equal(RouteIDFromUint64(660)) {
		t.Error("RouteIDFromBig(660) != RouteIDFromUint64(660)")
	}
}

func TestRouteIDFromBigCopies(t *testing.T) {
	v := new(big.Int).Lsh(big.NewInt(1), 100)
	r := RouteIDFromBig(v)
	v.SetInt64(0) // mutate the source
	if r.BitLen() != 101 {
		t.Errorf("RouteID mutated along with source big.Int: BitLen = %d, want 101", r.BitLen())
	}
}

func TestRouteIDModMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	moduli := []uint64{2, 3, 4, 5, 7, 11, 127, 65537, 1<<31 - 1, 1<<61 - 1}
	for i := 0; i < 500; i++ {
		v := new(big.Int)
		v.Rand(rng, new(big.Int).Lsh(big.NewInt(1), 180))
		r := RouteIDFromBig(v)
		for _, m := range moduli {
			want := new(big.Int).Mod(v, new(big.Int).SetUint64(m)).Uint64()
			if got := r.Mod(m); got != want {
				t.Fatalf("Mod(%d) of %v = %d, want %d", m, v, got, want)
			}
		}
	}
}

func TestRouteIDModSmall(t *testing.T) {
	r := RouteIDFromUint64(660)
	tests := []struct{ m, want uint64 }{{4, 0}, {7, 2}, {11, 0}, {5, 0}, {1, 0}}
	for _, tt := range tests {
		if got := r.Mod(tt.m); got != tt.want {
			t.Errorf("660 mod %d = %d, want %d", tt.m, got, tt.want)
		}
	}
}

func TestRouteIDEqualAcrossWidths(t *testing.T) {
	small := RouteIDFromUint64(44)
	wide := RouteIDFromBig(new(big.Int).Lsh(big.NewInt(1), 80))
	if small.Equal(wide) || wide.Equal(small) {
		t.Error("small and wide RouteIDs compared equal")
	}
	if !wide.Equal(RouteIDFromBig(new(big.Int).Lsh(big.NewInt(1), 80))) {
		t.Error("identical wide RouteIDs compared unequal")
	}
}

func TestRouteIDBytesIsACopy(t *testing.T) {
	r := RouteIDFromBig(new(big.Int).Lsh(big.NewInt(3), 90))
	clear(r.Bytes())
	if r.BitLen() != 92 {
		t.Errorf("mutating a Bytes() result changed the RouteID: BitLen = %d, want 92", r.BitLen())
	}
}
