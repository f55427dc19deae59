package rns

import (
	"encoding/binary"
	"math/bits"
)

// Len returns the number of moduli in the basis.
func (s *System) Len() int { return len(s.moduli) }

// M returns the dynamic range ∏ sᵢ (Eq. 1). Route IDs lie in [0, M).
func (s *System) M() RouteID {
	if s.small {
		return RouteIDFromUint64(s.m)
	}
	return RouteIDFromBig(s.mBig)
}

// Bytes returns the minimal big-endian encoding (empty for zero),
// matching RouteIDFromBytes.
func (r RouteID) Bytes() []byte {
	if r.wide != nil {
		return r.wide.Bytes()
	}
	if r.small == 0 {
		return nil
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], r.small)
	// bits.Len64 names the minimal encoding directly: ⌈bitlen/8⌉ bytes.
	return buf[8-(bits.Len64(r.small)+7)/8:]
}
