package core

import "repro/internal/topology"

// NextFrom returns the neighbour this route drives packets to from the
// named switch, if the switch is encoded.
func (r *Route) NextFrom(name string) (*topology.Node, bool) {
	all := make([]Hop, 0, len(r.Primary)+len(r.Protection))
	all = append(all, r.Primary...)
	all = append(all, r.Protection...)
	for _, h := range all {
		if h.Switch.Name() == name {
			nb, ok := h.Switch.Neighbor(h.Port)
			return nb, ok
		}
	}
	return nil, false
}
