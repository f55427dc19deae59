package core

import (
	"repro/internal/rns"
	"repro/internal/topology"
)

// Encoder is EncodeRoute with a basis cache: routes sharing an RNS
// basis — the same switches toward a destination, in any order — skip
// the O(n²) pairwise-coprime validation and the per-modulus CRT
// constant precomputation after the first encode. A controller
// rerouting hundreds of installed routes after a topology event sees
// the same few bases over and over, which is exactly the workload the
// cache removes from the hot path.
//
// An Encoder is safe for concurrent use (the controller fans reroute
// recomputes across a worker pool).
type Encoder struct {
	cache *rns.BasisCache
}

// NewEncoder builds an Encoder with an empty basis cache.
func NewEncoder() *Encoder {
	return &Encoder{cache: rns.NewBasisCache()}
}

// EncodeRoute is EncodeRoute through the basis cache.
func (e *Encoder) EncodeRoute(path topology.Path, protection []Hop) (*Route, error) {
	return encodeRoute(path, protection, e.cache.System)
}
