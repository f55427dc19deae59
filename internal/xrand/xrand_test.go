package xrand

import (
	"math/rand"
	"testing"
)

// seeds covers math/rand's seed reduction: zero (remapped), both signs,
// the modulus 2³¹−1 and its neighbours (which reduce to 0, 1 and −1),
// values past 32 bits, and the constant zero is remapped to.
var seeds = []int64{
	0, 1, -1, 1<<31 - 2, 1<<31 - 1, 1 << 31, 1 << 50, -(1 << 50), 89482311,
}

// draws is long enough to straddle both edges of the lazy state: draw
// 273 materialises the register (272/273/274) and draw 607 is the first
// to read a word the materialised loop itself wrote (606/607/608).
const draws = 5000

func TestStreamMatchesMathRand(t *testing.T) {
	for _, seed := range seeds {
		want, got := rand.NewSource(seed).(rand.Source64), NewSource(seed)
		for n := 0; n < draws; n++ {
			// Alternate the two entry points: both advance one stream.
			if n%3 == 0 {
				if w, g := want.Int63(), got.Int63(); w != g {
					t.Fatalf("seed %d draw %d: Int63 = %d, math/rand %d", seed, n, g, w)
				}
				continue
			}
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d draw %d: Uint64 = %d, math/rand %d", seed, n, g, w)
			}
		}
	}
}

// The derived distributions every caller actually uses, through
// rand.New: a bounded int, a float (gray impairments, arrival gaps) and
// the ziggurat exponential (flapping); and Source.Intn (deflection's
// random port).
func TestRandMatchesMathRand(t *testing.T) {
	for _, seed := range seeds {
		want, got := rand.New(rand.NewSource(seed)), New(seed)
		for n := 0; n < draws; n++ {
			switch n % 3 {
			case 0:
				if w, g := want.Intn(7), got.Intn(7); w != g {
					t.Fatalf("seed %d call %d: Intn = %d, math/rand %d", seed, n, g, w)
				}
			case 1:
				if w, g := want.Float64(), got.Float64(); w != g {
					t.Fatalf("seed %d call %d: Float64 = %v, math/rand %v", seed, n, g, w)
				}
			case 2:
				if w, g := want.ExpFloat64(), got.ExpFloat64(); w != g {
					t.Fatalf("seed %d call %d: ExpFloat64 = %v, math/rand %v", seed, n, g, w)
				}
			}
		}
	}
	// Source.Intn, the switch's draw, with no rand.Rand in front: the
	// same value from the same draws for bounds that mask (powers of
	// two, 1 among them), reject rarely (3, 7, 1000) or often (2³⁰+1,
	// 2³¹−1). Both streams' next draw is compared after every call.
	bounds := []int{1, 2, 3, 7, 64, 1000, 1 << 30, 1<<30 + 1, 1<<31 - 1}
	for _, seed := range seeds {
		want, got := rand.New(rand.NewSource(seed)), NewSource(seed)
		for n := 0; n < draws; n++ {
			bound := bounds[n%len(bounds)]
			if w, g := want.Intn(bound), got.Intn(bound); w != g {
				t.Fatalf("seed %d call %d: Intn(%d) = %d, math/rand %d", seed, n, bound, g, w)
			}
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("seed %d call %d: after Intn(%d) the streams diverge", seed, n, bound)
			}
		}
	}
}

// Seed restarts the stream wherever the source was: still stateless,
// on the materialising draw, or deep in the register loop.
func TestSeedMidStream(t *testing.T) {
	for _, at := range []int{0, 5, rngTap - 1, rngTap, rngTap + 1, rngLen, 2000} {
		got := NewSource(42)
		for n := 0; n < at; n++ {
			got.Uint64()
		}
		got.Seed(-7)
		want := rand.NewSource(-7).(rand.Source64)
		for n := 0; n < 2*rngLen; n++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("reseeded after %d draws, draw %d: %d, math/rand %d", at, n, g, w)
			}
		}
	}
}

// A source that draws less than a register's worth allocates nothing:
// it lives inside its owner (a switch, a pump) as two words.
func TestStatelessDrawsDoNotAllocate(t *testing.T) {
	var s Source
	var sink uint64
	if n := testing.AllocsPerRun(100, func() {
		s.Seed(99)
		for i := 1; i <= 64; i++ {
			sink += uint64(s.Intn(i))
		}
	}); n != 0 {
		t.Errorf("64 Intn calls allocated %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		s.Seed(99)
		for i := 0; i < rngTap; i++ {
			sink += s.Uint64()
		}
	}); n != 0 {
		t.Errorf("%d draws allocated %v times, want 0", rngTap, n)
	}

	if s.reg != nil {
		t.Errorf("register materialised within the first %d draws", rngTap)
	}
	s.Uint64()
	if s.reg == nil {
		t.Errorf("draw %d did not materialise the register", rngTap+1)
	}
	_ = sink
}

// FuzzStream holds the stream to math/rand's for arbitrary seeds and
// lengths; the corpus under testdata pins the state transitions.
func FuzzStream(f *testing.F) {
	for _, seed := range seeds {
		f.Add(seed, uint16(rngLen+2))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		want, got := rand.NewSource(seed).(rand.Source64), NewSource(seed)
		for i := 0; i < int(n)%(4*rngLen); i++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d draw %d: %d, math/rand %d", seed, i, g, w)
			}
		}
	})
}

// BenchmarkUint64 is the steady state — the register loop — of both
// sources, one per sub-benchmark; the lazy source pays one extra
// predictable branch and a pointer load per draw.
func BenchmarkUint64(b *testing.B) {
	run := func(b *testing.B, src rand.Source64) {
		for i := 0; i < rngLen; i++ {
			src.Uint64()
		}
		var sink uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink += src.Uint64()
		}
		benchSink = sink
	}
	b.Run("xrand", func(b *testing.B) { run(b, NewSource(1)) })
	b.Run("mathrand", func(b *testing.B) { run(b, rand.NewSource(1).(rand.Source64)) })
}

// BenchmarkSeedAndDraw is what a deflecting switch costs: seed, then
// three draws.
func BenchmarkSeedAndDraw(b *testing.B) {
	b.Run("xrand", func(b *testing.B) {
		var s Source
		var sink uint64
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
			sink += s.Uint64() + s.Uint64() + s.Uint64()
		}
		benchSink = sink
	})
	b.Run("mathrand", func(b *testing.B) {
		var sink uint64
		for i := 0; i < b.N; i++ {
			s := rand.NewSource(int64(i)).(rand.Source64)
			sink += s.Uint64() + s.Uint64() + s.Uint64()
		}
		benchSink = sink
	})
}

var benchSink uint64
