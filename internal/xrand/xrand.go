// Package xrand is math/rand's generator without the seeding pass:
// Source yields, for every seed, exactly the stream of
// rand.NewSource(seed), but costs nothing to create and 16 bytes until
// it has been drawn from 273 times.
//
// math/rand's source is an additive lagged-Fibonacci generator over a
// 607-word register, x[n] = x[n-607] + x[n-273]. Seeding fills the
// register from the Lehmer sequence s·48271^k mod (2³¹−1): word i is
// three consecutive terms, starting at k = 21+3i, XORed with a fixed
// table. So any one word is three modular multiplies away from the
// seed — one by a precomputed power of 48271, two by 48271 — and the
// register need not exist to read it. And the generator's first 273
// outputs add pairs of words no earlier output has overwritten (the
// tap trails the feed by 273), which makes draw n < 273 a pure
// function of (seed, n): word(333−n) + word(606−n). A world seeds a
// generator per switch, per traffic pump and per fault injector, and
// most of them draw a handful of values or none; only the 274th draw
// builds the 4.9 KB register, and from there on Uint64 is math/rand's
// own loop.
package xrand

import "math/rand"

const (
	rngLen = 607
	rngTap = 273

	// The seeding sequence: x ← x·lehmerA mod lehmerM.
	lehmerM = 1<<31 - 1
	lehmerA = 48271
)

// jump[i] is lehmerA^(21+3i) mod lehmerM: the multiplier that takes a
// seed to the first of the three terms making up register word i
// (seeding discards 20 terms, then spends three per word).
var jump [rngLen]uint32

func init() {
	x := uint64(1)
	for k := 0; k < 21; k++ {
		x = x * lehmerA % lehmerM
	}
	for i := range jump {
		jump[i] = uint32(x)
		x = x * lehmerA % lehmerM * lehmerA % lehmerM * lehmerA % lehmerM
	}
}

// Source is a rand.Source64 with the stream of rand.NewSource(seed).
// It must be seeded — by NewSource, New or Seed — before the first
// draw, and like math/rand's is not safe for concurrent use.
type Source struct {
	seed int32 // math/rand's reduction of the seed: in [1, lehmerM)
	n    int32 // draws made so far, while reg is nil
	reg  *register
}

// register is the materialised generator: math/rand's rngSource.
type register struct {
	tap, feed int
	vec       [rngLen]int64
}

// NewSource returns a Source seeded with seed.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// New is rand.New(rand.NewSource(seed)) over a Source.
func New(seed int64) *rand.Rand { return rand.New(NewSource(seed)) }

// Seed restarts the stream at that of rand.NewSource(seed).
func (s *Source) Seed(seed int64) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	*s = Source{seed: int32(seed)}
}

// word computes register word i as seeding would have left it.
func (s *Source) word(i int) int64 {
	x := uint64(s.seed) * uint64(jump[i]) % lehmerM
	u := x << 40
	x = x * lehmerA % lehmerM
	u ^= x << 20
	x = x * lehmerA % lehmerM
	u ^= x
	return int64(u) ^ rngCooked[i]
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// Intn returns (*rand.Rand).Intn(n) over this stream — the same value
// from the same draws — for 0 < n < 2³¹, and panics otherwise. It is
// what a deflecting switch draws, with no rand.Rand in front.
func (s *Source) Intn(n int) int {
	if n <= 0 || n > 1<<31-1 {
		panic("xrand: Intn argument out of range")
	}
	if n&(n-1) == 0 { // a power of two: mask
		return int(s.int31() & int32(n-1))
	}
	// Reject draws above the largest multiple of n, as Int31n does.
	max := int32(1<<31 - 1 - (1<<31)%uint32(n))
	v := s.int31()
	for v > max {
		v = s.int31()
	}
	return int(v % int32(n))
}

// int31 is (*rand.Rand).Int31: the top 31 bits of an Int63 draw.
func (s *Source) int31() int32 { return int32(s.Int63() >> 32) }

// Uint64 returns a pseudo-random 64-bit value.
func (s *Source) Uint64() uint64 {
	r := s.reg
	if r == nil {
		return s.early()
	}
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

// early is Uint64 before the register exists: one of the first rngTap
// draws, computed from the seed, or the draw that builds the register.
func (s *Source) early() uint64 {
	if s.n == rngTap {
		s.materialise()
		return s.Uint64()
	}
	n := int(s.n)
	s.n++
	return uint64(s.word(rngLen-rngTap-1-n) + s.word(rngLen-1-n))
}

// materialise builds the register as rngTap draws leave it: the seeded
// words, the first rngTap of them counting down from the feed's start
// replaced by the outputs written there.
func (s *Source) materialise() {
	r := &register{tap: rngLen - rngTap, feed: rngLen - 2*rngTap}
	for i := range r.vec {
		r.vec[i] = s.word(i)
	}
	for i := r.feed; i < r.tap; i++ {
		r.vec[i] += r.vec[i+rngTap]
	}
	s.reg = r
}
