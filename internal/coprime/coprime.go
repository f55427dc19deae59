// Package coprime allocates KAR switch IDs. Every core switch needs an
// ID such that (a) the IDs in use are pairwise coprime — the RNS basis
// requirement — and (b) the ID is strictly greater than the switch's
// highest port index, so a residue can address every port.
//
// IDs need not be prime (the paper's Fig. 1 uses 4, the reconstructed
// 15-node network uses 10 and 27); they only need to be mutually
// coprime. The Allocator therefore hands out the smallest integer that
// satisfies both constraints, which keeps M = ∏ IDs (and hence the
// route-ID bit length, paper §2.3) as small as possible.
package coprime

import (
	"fmt"
	"sort"

	"repro/internal/rns"
)

// Allocator hands out pairwise-coprime IDs. The zero value is ready to
// use. Allocator is not safe for concurrent use.
type Allocator struct {
	used []uint64
	// blocked holds every prime factor of every used ID: a candidate
	// is coprime with the whole set iff none of its prime factors is
	// blocked. This replaces the O(len(used)) GCD sweep per candidate
	// with an O(sqrt v) factorisation, which is what keeps
	// 1000-switch generated topologies buildable in milliseconds.
	blocked map[uint64]bool
	// cursor[min] is the first candidate not yet scanned for that
	// minimum. Everything below it was already allocated or rejected,
	// and rejections are permanent (the used set only grows), so
	// later Next calls with the same minimum resume instead of
	// rescanning.
	cursor map[uint64]uint64
}

// NewAllocator returns an allocator pre-seeded with IDs already in use
// (e.g. when extending an existing deployment). It returns an error if
// the seed set itself is not pairwise coprime.
func NewAllocator(used []uint64) (*Allocator, error) {
	if len(used) > 0 {
		if err := rns.CheckPairwiseCoprime(used); err != nil {
			return nil, fmt.Errorf("seed IDs: %w", err)
		}
	}
	a := &Allocator{}
	for _, u := range used {
		a.record(u, 0)
	}
	return a, nil
}

// Next returns the smallest id ≥ min (and ≥ 2) coprime with every
// previously allocated ID, and records it as used.
func (a *Allocator) Next(min uint64) (uint64, error) {
	if min < 2 {
		min = 2
	}
	start := min
	if c := a.cursor[min]; c > start {
		start = c
	}
	for v := start; ; v++ {
		if v == 0 { // wrapped around uint64; practically unreachable
			return 0, fmt.Errorf("coprime: ID space exhausted above %d", min)
		}
		if a.coprimeWithUsed(v) {
			a.record(v, min)
			return v, nil
		}
	}
}

func (a *Allocator) coprimeWithUsed(v uint64) bool {
	ok := true
	primeFactors(v, func(p uint64) {
		if a.blocked[p] {
			ok = false
		}
	})
	return ok
}

// record marks v used and its prime factors blocked; when min is
// non-zero the scan cursor for that minimum advances past v.
func (a *Allocator) record(v, min uint64) {
	a.used = append(a.used, v)
	if a.blocked == nil {
		a.blocked = make(map[uint64]bool)
	}
	primeFactors(v, func(p uint64) { a.blocked[p] = true })
	if min != 0 {
		if a.cursor == nil {
			a.cursor = make(map[uint64]uint64)
		}
		a.cursor[min] = v + 1
	}
}

// primeFactors calls f once per distinct prime factor of v.
func primeFactors(v uint64, f func(p uint64)) {
	for p := uint64(2); p*p <= v; p++ {
		if v%p == 0 {
			f(p)
			for v%p == 0 {
				v /= p
			}
		}
	}
	if v > 1 {
		f(v)
	}
}

// Assign allocates one ID per entry of mins, where mins[i] is the
// minimum acceptable ID for node i (typically its port count). To keep
// the overall products small, nodes are served in descending order of
// their minimum, but results are returned in input order.
func Assign(mins []uint64) ([]uint64, error) {
	type req struct {
		idx int
		min uint64
	}
	reqs := make([]req, len(mins))
	for i, m := range mins {
		reqs[i] = req{idx: i, min: m}
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].min > reqs[j].min })

	// Pre-size the used set: generated datacenter topologies assign
	// hundreds of IDs, and growing the slice one append at a time
	// would re-copy it O(n) times.
	alloc := Allocator{used: make([]uint64, 0, len(mins))}
	out := make([]uint64, len(mins))
	for _, r := range reqs {
		id, err := alloc.Next(r.min)
		if err != nil {
			return nil, err
		}
		out[r.idx] = id
	}
	return out, nil
}

// Primes returns the first n primes greater than or equal to min.
// KAR deployments that prefer prime IDs (like the reconstructed RNP28
// topology, whose IDs are the first 28 primes ≥ 7) use this directly.
func Primes(min uint64, n int) []uint64 {
	out := make([]uint64, 0, n)
	if min < 2 {
		min = 2
	}
	for v := min; len(out) < n; v++ {
		if IsPrime(v) {
			out = append(out, v)
		}
	}
	return out
}

// IsPrime reports primality by trial division; IDs are small (they fit
// in packet headers), so this is never a bottleneck.
func IsPrime(v uint64) bool {
	if v < 2 {
		return false
	}
	if v%2 == 0 {
		return v == 2
	}
	for d := uint64(3); d*d <= v; d += 2 {
		if v%d == 0 {
			return false
		}
	}
	return true
}
