package simnet

import (
	"repro/internal/packet"
	"repro/internal/topology"
)

// LinkUp reports the physical state of a link (no outstanding
// down-holds), regardless of what the switches have detected.
func (n *Network) LinkUp(l *topology.Link) bool { return n.lines[l.Index()].downRefs == 0 }

// LinkSeenUp reports the adjacent switches' *detected* view of a link
// — what PortUp consults — which lags the physical state under a
// detection-latency model.
func (n *Network) LinkSeenUp(l *topology.Link) bool { return n.lines[l.Index()].seenUp }

// RepairLink releases FailLink's hold; the link comes back up unless
// other holds (overlapping failure windows, injectors) remain.
func (n *Network) RepairLink(l *topology.Link) {
	line := &n.lines[l.Index()]
	if !line.manualHold {
		return
	}
	line.manualHold = false
	n.releaseDown(line)
}

// QueueSpill reports, summed over the control scheduler and every
// lane, how many ring nodes and far-heap slots the world's queues came
// to need: the slab and the far heap only grow when an entry is
// spilled past the front heap, so non-zero means that path ran.
func (n *Network) QueueSpill() (ring, far int) {
	for _, s := range append([]*Scheduler{n.sched}, n.lanes...) {
		ring += len(s.nodes)
		far += cap(s.far)
	}
	return ring, far
}

// LineStats is a snapshot of one link's counters, summed over both
// directions.
type LineStats struct {
	SentPackets   int64
	SentBytes     int64
	QueueDrops    int64
	InFlightDrops int64
}

// LineStats returns a link's counters, read back from the registry plus
// what the sending lanes have not folded yet.
func (n *Network) LineStats(l *topology.Link) LineStats {
	line := &n.lines[l.Index()]
	var s LineStats
	for d := range line.dirs {
		ds := &line.dirs[d]
		s.SentPackets += ds.cSentPackets.Value() + ds.sentPackets
		s.SentBytes += ds.cSentBytes.Value() + ds.sentBytes
		s.QueueDrops += ds.queueDrops.Value()
		s.InFlightDrops += ds.inFlightDrops.Value()
	}
	return s
}

// emptyDepots empties the packet depot into a throwaway lane's cache and
// drops every ring the ring depots hold, so that what a Close hands back
// can be counted.
func emptyDepots() {
	var spare Scheduler
	for packet.DepotLen() > 0 {
		spare.pkts.Get()
	}
	for _, d := range ringDepots {
		d.Withdraw(nil, d.Len())
	}
}

// depotRings takes every ring out of the ring depots.
func depotRings() (rings [][]trainMember) {
	for _, d := range ringDepots {
		rings = d.Withdraw(rings, d.Len())
	}
	return rings
}
