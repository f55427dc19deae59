// Package coprime allocates KAR switch IDs. Every core switch needs an
// ID such that (a) the IDs in use are pairwise coprime — the RNS basis
// requirement — and (b) the ID is strictly greater than the switch's
// highest port index, so a residue can address every port.
//
// IDs need not be prime (the paper's Fig. 1 uses 4, the reconstructed
// 15-node network uses 10 and 27); they only need to be mutually
// coprime. Assign therefore hands out the smallest integer that
// satisfies both constraints, which keeps M = ∏ IDs (and hence the
// route-ID bit length, paper §2.3) as small as possible, testing each
// candidate's prime factors as read from a sieve.
package coprime

import (
	"fmt"
	"sort"
)

// Assign allocates one ID per entry of mins, where mins[i] is the
// minimum acceptable ID for node i (its port count + 1). To keep the
// overall products small, nodes are served in descending order of
// their minimum, but results are returned in input order. IDs stay below 2^20.
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

	a := allocator{cursor: make(map[uint64]uint64)}
	out := make([]uint64, len(mins))
	for _, r := range reqs {
		id, err := a.next(r.min)
		if err != nil {
			return nil, err
		}
		out[r.idx] = id
	}
	return out, nil
}

// sieveCap bounds IDs and sieve (2 MiB): ≤ 4 096 switches of degree ≤ 4 096
// (every admitted spec) block at most 7 primes each of the 82 025 below it.
const sieveCap = 1 << 20

// allocator hands out pairwise-coprime IDs, each the smallest one
// above its minimum.
type allocator struct {
	// spf[v] is the smallest prime factor of composite v, 0 for a
	// prime: candidates are factored by lookups, not trial division.
	spf []uint16
	// blocked holds every prime factor of every ID handed out: a
	// candidate is coprime with the whole set iff none of its prime
	// factors is blocked. It is indexed by prime, as long as spf.
	blocked []bool
	// cursor[lo] is the first candidate not yet scanned for minimum
	// lo. Everything below it was already allocated or rejected, and
	// rejections are permanent (the blocked set only grows), so later
	// calls with the same minimum resume instead of rescanning.
	cursor map[uint64]uint64
}

// next returns the smallest id ≥ lo (and ≥ 2) coprime with every ID
// handed out before, and records it.
func (a *allocator) next(lo uint64) (uint64, error) {
	lo = max(lo, 2)
	for v := max(lo, a.cursor[lo]); v < sieveCap; v++ {
		for v >= uint64(len(a.spf)) {
			a.grow()
		}
		if a.coprimeWithUsed(v) {
			a.factors(v, func(p uint64) { a.blocked[p] = true })
			a.cursor[lo] = v + 1
			return v, nil
		}
	}
	return 0, fmt.Errorf("coprime: ID space exhausted above %d", lo)
}

// grow rebuilds the sieve at twice its length (4 096 at first).
func (a *allocator) grow() {
	n := max(2*len(a.spf), 1<<12)
	a.spf = make([]uint16, n)
	for p := 1 << 10; p >= 2; p-- { // descending: the smallest factor writes last
		for m := p * p; m < n; m += p {
			a.spf[m] = uint16(p)
		}
	}
	a.blocked = append(a.blocked, make([]bool, n-len(a.blocked))...)
}

func (a *allocator) coprimeWithUsed(v uint64) bool {
	ok := true
	a.factors(v, func(p uint64) {
		if a.blocked[p] {
			ok = false
		}
	})
	return ok
}

// factors calls f once per distinct prime factor of v < len(a.spf).
func (a *allocator) factors(v uint64, f func(p uint64)) {
	for v > 1 {
		p := uint64(a.spf[v])
		if p == 0 {
			p = v
		}
		f(p)
		for v%p == 0 {
			v /= p
		}
	}
}
