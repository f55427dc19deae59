package rns

import (
	"fmt"
	"math/bits"
)

// GCD returns the greatest common divisor of a and b by Euclid's
// remainder algorithm. GCD(0, x) = x by convention.
func GCD(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// CheckPairwiseCoprime validates that every pair in ids is coprime and
// every id is at least 2. It returns a *CoprimeError (wrapping
// ErrNotCoprime) naming the first offending pair, or an error wrapping
// ErrModulusTooSmall / ErrEmptyBasis.
//
// An id is coprime with every earlier one iff it is coprime with their
// product, kept as little-endian 64-bit words and reduced mod the id in
// one pass; only a failing id scans the earlier ones for its partner.
// The cost is one pass per id, not one GCD per pair.
func CheckPairwiseCoprime(ids []uint64) error {
	if len(ids) == 0 {
		return ErrEmptyBasis
	}
	width := 0
	for _, id := range ids {
		width += bits.Len64(id)
	}
	prod := append(make([]uint64, 0, width/64+2), 1)
	for i, id := range ids {
		if id < 2 {
			return fmt.Errorf("modulus #%d is %d: %w", i, id, ErrModulusTooSmall)
		}
		var rem uint64
		for k := len(prod) - 1; k >= 0; k-- {
			_, rem = bits.Div64(rem, prod[k], id)
		}
		if GCD(id, rem) != 1 {
			for _, other := range ids[:i] {
				if g := GCD(id, other); g != 1 {
					return &CoprimeError{A: other, B: id, GCD: g}
				}
			}
		}
		var carry uint64
		for k, w := range prod {
			hi, lo := bits.Mul64(w, id)
			lo, c := bits.Add64(lo, carry, 0)
			prod[k], carry = lo, hi+c
		}
		if carry != 0 {
			prod = append(prod, carry)
		}
	}
	return nil
}

// ModInverse returns x such that (a·x) mod m = 1, using the extended
// Euclidean algorithm. It returns an error wrapping ErrNoInverse when
// gcd(a, m) ≠ 1. Both operands must be below 2^63 so the signed
// intermediate arithmetic cannot overflow; moduli in KAR are switch
// IDs, far below that bound.
func ModInverse(a, m uint64) (uint64, error) {
	if m == 0 || a >= 1<<63 || m >= 1<<63 {
		return 0, fmt.Errorf("mod inverse of %d mod %d: operands out of range: %w", a, m, ErrNoInverse)
	}
	if m == 1 {
		return 0, nil
	}
	// Extended Euclid on signed values.
	r0, r1 := int64(a%m), int64(m)
	t0, t1 := int64(1), int64(0)
	for r1 != 0 {
		q := r0 / r1
		r0, r1 = r1, r0-q*r1
		t0, t1 = t1, t0-q*t1
	}
	if r0 != 1 {
		return 0, fmt.Errorf("mod inverse of %d mod %d: %w", a, m, ErrNoInverse)
	}
	if t0 < 0 {
		t0 += int64(m)
	}
	return uint64(t0), nil
}

// mulOverflows reports whether a*b overflows uint64, and returns the
// low 64 bits of the product either way.
func mulOverflows(a, b uint64) (lo uint64, overflow bool) {
	hi, lo := bits.Mul64(a, b)
	return lo, hi != 0
}

// addMod returns (a + b) mod m for a, b < m. It tolerates a+b
// overflowing 64 bits (possible only when m > 2^63).
func addMod(a, b, m uint64) uint64 {
	sum, carry := bits.Add64(a, b, 0)
	if carry != 0 || sum >= m {
		sum -= m
	}
	return sum
}
