package rns

import (
	"fmt"
	"math/big"
	"math/bits"
)

// System is a fixed RNS basis: the pairwise-coprime switch IDs that
// participate in one route (route switches plus protection switches).
// Construction validates the basis and precomputes the CRT constants
// Mᵢ = M/sᵢ and Lᵢ = Mᵢ⁻¹ mod sᵢ (Eqs. 6–7 of the paper), so Encode is
// a pure sum-and-reduce.
//
// A System is immutable after NewSystem and safe for concurrent use.
type System struct {
	moduli []uint64

	li []uint64 // Lᵢ, on both paths (always < sᵢ, so always native)

	// Native fast path, used when M < 2^64.
	small bool
	m     uint64
	mi    []uint64 // Mᵢ

	// Wide path.
	mBig  *big.Int
	miBig []*big.Int
}

// NewSystem validates moduli (each ≥ 2, pairwise coprime) and
// precomputes CRT constants. The slice is copied.
func NewSystem(moduli []uint64) (*System, error) {
	if err := CheckPairwiseCoprime(moduli); err != nil {
		return nil, err
	}
	s := &System{moduli: append([]uint64(nil), moduli...), li: make([]uint64, len(moduli))}

	// Try the native path first: M = ∏ sᵢ in uint64.
	m := uint64(1)
	small := true
	for _, id := range s.moduli {
		var overflow bool
		m, overflow = mulOverflows(m, id)
		if overflow {
			small = false
			break
		}
	}
	if small {
		s.small = true
		s.m = m
		s.mi = make([]uint64, len(s.moduli))
		for i, id := range s.moduli {
			mi := m / id
			li, err := ModInverse(mi%id, id)
			if err != nil {
				return nil, fmt.Errorf("basis modulus %d: %w", id, err)
			}
			s.mi[i], s.li[i] = mi, li
		}
		return s, nil
	}

	// Wide path via math/big.
	s.mBig = big.NewInt(1)
	for _, id := range s.moduli {
		s.mBig.Mul(s.mBig, new(big.Int).SetUint64(id))
	}
	s.miBig = make([]*big.Int, len(s.moduli))
	rem := new(big.Int)
	for i, id := range s.moduli {
		idBig := new(big.Int).SetUint64(id)
		mi := new(big.Int).Div(s.mBig, idBig)
		li, err := ModInverse(rem.Mod(mi, idBig).Uint64(), id)
		if err != nil {
			return nil, fmt.Errorf("basis modulus %d: %w", id, err)
		}
		s.miBig[i], s.li[i] = mi, li
	}
	return s, nil
}

// BitLength returns the maximum number of bits a route ID of this
// basis requires: ⌈log₂(M−1)⌉ per Eq. 9, i.e. the bit length of M−1.
func (s *System) BitLength() int {
	if s.small {
		return bits.Len64(s.m - 1)
	}
	return new(big.Int).Sub(s.mBig, big.NewInt(1)).BitLen()
}

// Encode solves the CRT for the residue vector (the output ports):
// the returned R satisfies R mod sᵢ = residues[i] for every i (Eq. 4).
func (s *System) Encode(residues []uint64) (RouteID, error) {
	if len(residues) != len(s.moduli) {
		return RouteID{}, fmt.Errorf("%d residues for %d moduli: %w",
			len(residues), len(s.moduli), ErrLengthMismatch)
	}
	for i, p := range residues {
		if p >= s.moduli[i] {
			return RouteID{}, fmt.Errorf("residue %d >= modulus %d: %w",
				p, s.moduli[i], ErrResidueRange)
		}
	}
	if s.small {
		return RouteIDFromUint64(s.encodeSmall(residues)), nil
	}
	return s.encodeWide(residues), nil
}

// encodeSmall accumulates Σ ((pᵢ·Lᵢ) mod sᵢ)·Mᵢ (mod M). Each addend
// is congruent to pᵢ·Mᵢ·Lᵢ (mod M) but stays below M, avoiding
// 128-bit products: (pᵢ·Lᵢ) mod sᵢ < sᵢ and Mᵢ = M/sᵢ.
func (s *System) encodeSmall(residues []uint64) uint64 {
	var r uint64
	for i, p := range residues {
		si := s.moduli[i]
		hi, lo := bits.Mul64(p, s.li[i])
		_, t := bits.Div64(hi, lo, si) // hi < si because p, li < si
		r = addMod(r, t*s.mi[i], s.m)
	}
	return r
}

func (s *System) encodeWide(residues []uint64) RouteID {
	sum := new(big.Int)
	term := new(big.Int)
	for i, p := range residues {
		// ((p·Lᵢ) mod sᵢ)·Mᵢ, same overflow-free shape as the native path:
		// p and Lᵢ are both < sᵢ, so the 128-bit product reduced by sᵢ
		// never overflows when done via Mul64/Div64.
		hi, lo := bits.Mul64(p, s.li[i])
		_, t := bits.Div64(hi, lo, s.moduli[i])
		term.SetUint64(t)
		term.Mul(term, s.miBig[i])
		sum.Add(sum, term)
	}
	sum.Mod(sum, s.mBig)
	return RouteIDFromBig(sum)
}

// Residues decomposes R into its residue vector over the basis
// (Eq. 2–3): residues[i] = R mod sᵢ.
func (s *System) Residues(r RouteID) []uint64 {
	return s.AppendResidues(make([]uint64, 0, len(s.moduli)), r)
}

// AppendResidues appends R's residue vector to dst and returns the
// extended slice — the allocation-aware form of Residues for callers
// that reuse a scratch buffer (controller re-encode, decoders).
func (s *System) AppendResidues(dst []uint64, r RouteID) []uint64 {
	for _, id := range s.moduli {
		dst = append(dst, r.Mod(id))
	}
	return dst
}
