package rns

import (
	"encoding/binary"
	"math/big"
	"math/bits"
	"strconv"
)

// RouteID is an immutable non-negative route identifier as carried in
// the KAR packet header. Values below 2^64 are held in a native word;
// larger values (long protection sets) are held in big.Int words. The
// zero value is the route ID 0.
//
// The only data-plane operation is Mod, which a core switch applies
// against its own switch ID to obtain its output port.
type RouteID struct {
	small uint64
	wide  *big.Int // non-nil only when the value needs more than 64 bits
}

// RouteIDFromUint64 wraps a native value.
func RouteIDFromUint64(v uint64) RouteID { return RouteID{small: v} }

// RouteIDFromBig normalises v (which must be non-negative) into a
// RouteID, copying its words so the caller may keep mutating v.
func RouteIDFromBig(v *big.Int) RouteID {
	if v.Sign() < 0 {
		// Negative route IDs cannot be produced by CRT; treat defensively.
		panic("rns: negative route ID")
	}
	if v.IsUint64() {
		return RouteID{small: v.Uint64()}
	}
	return RouteID{wide: new(big.Int).Set(v)}
}

// RouteIDFromBytes parses a big-endian unsigned integer, the wire
// representation produced by Bytes.
func RouteIDFromBytes(b []byte) RouteID {
	return RouteIDFromBig(new(big.Int).SetBytes(b))
}

// Uint64 returns the native value and whether it was representable.
func (r RouteID) Uint64() (uint64, bool) {
	if r.wide != nil {
		return 0, false
	}
	return r.small, true
}

// ByteLen returns the length of the minimal big-endian encoding
// (0 for zero) without materialising it.
func (r RouteID) ByteLen() int {
	return (r.BitLen() + 7) / 8
}

// AppendTo appends the minimal big-endian encoding to dst. For values
// below 2^64 this performs no allocation, which keeps the header
// marshal path allocation-free with a pooled buffer.
func (r RouteID) AppendTo(dst []byte) []byte {
	if r.wide != nil {
		n := (r.wide.BitLen() + 7) / 8
		old := len(dst)
		dst = append(dst, make([]byte, n)...)
		r.wide.FillBytes(dst[old:])
		return dst
	}
	if r.small == 0 {
		return dst
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], r.small)
	return append(dst, buf[8-(bits.Len64(r.small)+7)/8:]...)
}

// BitLen returns the number of bits in the value (0 for zero).
func (r RouteID) BitLen() int {
	if r.wide != nil {
		return r.wide.BitLen()
	}
	return bits.Len64(r.small)
}

// Mod returns the value modulo m. This is the KAR forwarding function:
// output port = RouteID mod switch ID (Eq. 3 of the paper). m must be
// non-zero. The wide path reduces word-by-word without allocating.
func (r RouteID) Mod(m uint64) uint64 {
	if r.wide == nil {
		return r.small % m
	}
	if m == 1 {
		return 0
	}
	var rem uint64
	words := r.wide.Bits()
	for i := len(words) - 1; i >= 0; i-- {
		// rem < m invariant makes Div64 safe (no quotient overflow).
		_, rem = bits.Div64(rem, uint64(words[i]), m)
	}
	return rem
}

// Equal reports value equality.
func (r RouteID) Equal(other RouteID) bool {
	switch {
	case r.wide == nil && other.wide == nil:
		return r.small == other.small
	case r.wide != nil && other.wide != nil:
		return r.wide.Cmp(other.wide) == 0
	default:
		// Wide values are normalised to need >64 bits, so a wide and a
		// small RouteID can never be equal.
		return false
	}
}

// String renders the value in decimal.
func (r RouteID) String() string {
	if r.wide != nil {
		return r.wide.String()
	}
	return strconv.FormatUint(r.small, 10)
}
