package simnet

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
