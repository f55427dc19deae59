package rns

import (
	"encoding/binary"
	"math/big"
	"sort"
	"sync"
)

// BasisCache memoises System construction. NewSystem pays an O(n²)
// pairwise-coprime check plus one division and one modular inverse per
// modulus; on a controller rerouting hundreds of installed routes the
// same few bases (same protection set toward a destination) recur
// constantly, so the cache makes every repeat a map lookup.
//
// Two levels:
//
//   - an exact-order key (the moduli sequence as requested) returns a
//     shared *System pointer — the common case of re-encoding a route
//     whose path came back identical after failure/repair churn;
//   - a sorted-moduli key holds a canonical System whose per-modulus
//     CRT constants (Mᵢ = M/sᵢ, Lᵢ = Mᵢ⁻¹ mod sᵢ and their wide
//     twins) are order-independent, so a permutation of a known basis
//     is assembled by copying constants — no coprime re-validation,
//     no divisions, no inverses.
//
// Systems are immutable, so sharing them (and, on the wide path, the
// big.Int constants inside them) across cache hits is safe. A cache
// is safe for concurrent use.
type BasisCache struct {
	mu     sync.RWMutex
	exact  map[string]*System // moduli in request order → shared System
	sorted map[string]*System // sorted moduli → canonical System
}

// NewBasisCache builds an empty cache.
func NewBasisCache() *BasisCache {
	return &BasisCache{
		exact:  make(map[string]*System),
		sorted: make(map[string]*System),
	}
}

// fingerprintInto appends the big-endian byte encoding of moduli to
// key and returns it: a collision-free map key.
func fingerprintInto(key []byte, moduli []uint64) []byte {
	for _, m := range moduli {
		key = binary.BigEndian.AppendUint64(key, m)
	}
	return key
}

// System returns a validated System over moduli, from cache when the
// basis (in this or any order) has been seen before. The returned
// System may be shared — callers must treat it as immutable, which
// Systems already are.
func (c *BasisCache) System(moduli []uint64) (*System, error) {
	var keyArr [16 * 8]byte // typical bases are ≤ 16 moduli: stack key
	key := fingerprintInto(keyArr[:0], moduli)

	c.mu.RLock()
	sys, ok := c.exact[string(key)]
	c.mu.RUnlock()
	if ok {
		return sys, nil
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if sys, ok := c.exact[string(key)]; ok { // raced with another miss
		return sys, nil
	}

	skey, sortedModuli := c.sortedKey(moduli)
	if canon, ok := c.sorted[string(skey)]; ok {
		sys := permuteSystem(canon, moduli)
		c.exact[string(key)] = sys
		return sys, nil
	}

	sys, err := NewSystem(moduli)
	if err != nil {
		return nil, err
	}
	c.exact[string(key)] = sys
	if isSorted(moduli) {
		c.sorted[string(skey)] = sys
	} else {
		c.sorted[string(skey)] = permuteSystem(sys, sortedModuli)
	}
	return sys, nil
}

// sortedKey returns the fingerprint of moduli in ascending order plus
// the sorted copy itself.
func (c *BasisCache) sortedKey(moduli []uint64) ([]byte, []uint64) {
	s := append([]uint64(nil), moduli...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return fingerprintInto(make([]byte, 0, 8*len(s)), s), s
}

func isSorted(moduli []uint64) bool {
	for i := 1; i < len(moduli); i++ {
		if moduli[i-1] > moduli[i] {
			return false
		}
	}
	return true
}

// permuteSystem rebuilds src's constants in the order of moduli, which
// must be a permutation of src.moduli (the caller guarantees it via
// the sorted fingerprint). M and the per-modulus constants do not
// depend on basis order, so this is a copy, not a recomputation.
func permuteSystem(src *System, moduli []uint64) *System {
	dst := &System{
		moduli: append([]uint64(nil), moduli...),
		small:  src.small,
		m:      src.m,
		mBig:   src.mBig,
	}
	// Position of each modulus value within src (moduli are pairwise
	// coprime, hence distinct; bases are short, so a scan beats a map).
	at := func(m uint64) int {
		for i, v := range src.moduli {
			if v == m {
				return i
			}
		}
		panic("rns: permuteSystem: modulus not in source basis")
	}
	if src.small {
		dst.mi = make([]uint64, len(moduli))
		dst.li = make([]uint64, len(moduli))
		for i, m := range moduli {
			j := at(m)
			dst.mi[i], dst.li[i] = src.mi[j], src.li[j]
		}
		return dst
	}
	dst.miBig = make([]*big.Int, len(moduli))
	dst.liBig = make([]uint64, len(moduli))
	for i, m := range moduli {
		j := at(m)
		dst.miBig[i], dst.liBig[i] = src.miBig[j], src.liBig[j]
	}
	return dst
}
