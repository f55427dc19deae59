package udpsim

import "repro/internal/edge"

// ReceiverOf returns the receiver the set attached to the destination
// edge named dst, so a test can observe deliveries and pass them on.
func (fs *FlowSet) ReceiverOf(dst string) edge.Receiver {
	return edge.ReceiverFunc(fs.rcvs[dst].onData)
}

// CounterBytes returns the bytes the set's per-flow counters take:
// every pump's sent counts, byte-wide or widened, and the words of
// delivered bits.
func (fs *FlowSet) CounterBytes() int {
	n := 8 * cap(fs.delivered)
	for _, p := range fs.pumps {
		n += cap(p.sent) + 4*cap(p.wide)
	}
	return n
}
