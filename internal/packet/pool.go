package packet

import "sync"

// Packet pooling. Per-packet allocation dominates the simulator's heap
// churn: every transport segment and ACK used to be a fresh Packet,
// dying within a few virtual microseconds. The pool below recycles them.
//
// Ownership rule: a packet obtained from Get is owned by whoever holds
// it last — the terminal sink (transport receiver on delivery, or
// simnet.Network.Drop on loss) calls Release. Release on a hand-built
// &Packet{} is a no-op, so code that constructs packets directly (and
// tests that retain them) never has to opt in.

var pktPool = sync.Pool{New: func() any { return new(Packet) }}

// Get returns a zeroed pool-owned Packet. The caller must hand it to
// exactly one sink that calls Release (or call Release itself on
// error paths).
func Get() *Packet {
	p := pktPool.Get().(*Packet)
	p.pooled = true
	return p
}

// Release recycles a pool-owned packet; it is a no-op for packets not
// obtained from Get, and for nil. The SACKBlocks backing array is kept
// so ACK senders can refill it without reallocating. After Release the
// caller must not touch the packet again.
func (p *Packet) Release() {
	if p == nil || !p.pooled {
		return
	}
	sack := p.SACKBlocks[:0]
	*p = Packet{SACKBlocks: sack}
	pktPool.Put(p)
}
