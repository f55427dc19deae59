package edge

// Stats is a snapshot of edge counters.
type Stats struct {
	Encapped     int64 // packets stamped and injected
	Delivered    int64 // packets decapsulated to a local receiver
	Misdelivered int64 // packets for another edge that landed here
	Reencoded    int64 // misdeliveries returned with a fresh route ID
	Unclaimed    int64 // packets for this edge with no attached flow
	NoRoute      int64 // injections refused for lack of a route
}

// Stats reads the counters back from the registry.
func (e *Edge) Stats() Stats {
	return Stats{
		Encapped:     e.cEncapped.Value(),
		Delivered:    e.cDelivered.Value(),
		Misdelivered: e.cMisdelivered.Value(),
		Reencoded:    e.cReencoded.Value(),
		Unclaimed:    e.cUnclaimed.Value(),
		NoRoute:      e.cNoRoute.Value(),
	}
}
