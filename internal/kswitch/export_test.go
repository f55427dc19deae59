package kswitch

// Stats is a snapshot of switch counters.
type Stats struct {
	Received    int64
	Forwarded   int64
	Deflections int64
	TTLDrops    int64
	PolicyDrops int64
}

// Stats reads the counters: each cell's backing count plus its pending
// increments, exact whenever the control plane asks.
func (s *Switch) Stats() Stats {
	st := Stats{
		Received:    s.received.Value(),
		Forwarded:   s.forwarded.Value(),
		TTLDrops:    s.ttlDrops.Value(),
		PolicyDrops: s.policyDrops.Value(),
	}
	for i := range s.deflections {
		st.Deflections += s.deflections[i].Value()
	}
	return st
}
