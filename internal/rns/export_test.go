package rns

// Len returns the number of moduli in the basis.
func (s *System) Len() int { return len(s.moduli) }

// M returns the dynamic range ∏ sᵢ (Eq. 1). Route IDs lie in [0, M).
func (s *System) M() RouteID {
	if s.small {
		return RouteIDFromUint64(s.m)
	}
	return RouteIDFromBig(s.mBig)
}
