package simnet

import "repro/internal/topology"

// LinkUp reports the physical state of a link (no outstanding
// down-holds), regardless of what the switches have detected.
func (n *Network) LinkUp(l *topology.Link) bool { return n.lines[l.Index()].downRefs == 0 }

// LinkSeenUp reports the adjacent switches' *detected* view of a link
// — what PortUp consults — which lags the physical state under a
// detection-latency model.
func (n *Network) LinkSeenUp(l *topology.Link) bool { return n.lines[l.Index()].seenUp }

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
