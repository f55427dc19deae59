// Package coprime allocates KAR switch IDs. Every core switch needs an
// ID such that (a) the IDs in use are pairwise coprime — the RNS basis
// requirement — and (b) the ID is strictly greater than the switch's
// highest port index, so a residue can address every port.
//
// IDs need not be prime (the paper's Fig. 1 uses 4, the reconstructed
// 15-node network uses 10 and 27); they only need to be mutually
// coprime. Assign therefore hands out the smallest integer that
// satisfies both constraints, which keeps M = ∏ IDs (and hence the
// route-ID bit length, paper §2.3) as small as possible.
package coprime

import (
	"fmt"
	"sort"
)

// Assign allocates one ID per entry of mins, where mins[i] is the
// minimum acceptable ID for node i (its port count + 1). To keep the
// overall products small, nodes are served in descending order of
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

	a := allocator{blocked: make(map[uint64]bool), cursor: make(map[uint64]uint64)}
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

// allocator hands out pairwise-coprime IDs, each the smallest one
// above its minimum.
type allocator struct {
	// blocked holds every prime factor of every ID handed out: a
	// candidate is coprime with the whole set iff none of its prime
	// factors is blocked. This replaces the O(len(used)) GCD sweep per
	// candidate with an O(sqrt v) factorisation, which is what keeps
	// 1000-switch generated topologies buildable in milliseconds.
	blocked map[uint64]bool
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
	for v := max(lo, a.cursor[lo]); ; v++ {
		if v == 0 { // wrapped around uint64; practically unreachable
			return 0, fmt.Errorf("coprime: ID space exhausted above %d", lo)
		}
		if a.coprimeWithUsed(v) {
			primeFactors(v, func(p uint64) { a.blocked[p] = true })
			a.cursor[lo] = v + 1
			return v, nil
		}
	}
}

func (a *allocator) coprimeWithUsed(v uint64) bool {
	ok := true
	primeFactors(v, func(p uint64) {
		if a.blocked[p] {
			ok = false
		}
	})
	return ok
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
