package core

import "repro/internal/topology"

// Encoder is EncodeRoute behind a method. Only bench/ may construct
// one; it goes with the next change to the benchmark.
type Encoder struct{}

// NewEncoder returns an Encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// EncodeRoute calls EncodeRoute.
func (*Encoder) EncodeRoute(path topology.Path, protection []Hop) (*Route, error) {
	return EncodeRoute(path, protection)
}
