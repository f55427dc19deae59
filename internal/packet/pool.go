package packet

import "repro/internal/freelist"

// Packet pooling. Per-packet allocation dominates the simulator's heap
// churn: every transport segment and ACK used to be a fresh Packet,
// dying within a few virtual microseconds. Packets are recycled through
// freelist's two tiers: a Cache owned by one simulation lane in front of
// one process-wide depot, which keeps what a finished world hands back
// for the next one.
//
// Ownership rule: a packet obtained from Get (or a Cache) is owned by
// whoever holds it last — the terminal sink (transport receiver on
// delivery, simnet.Network.Drop on loss, or simnet.Network.Close for
// the packets still in flight when a world is discarded) recycles it.
// Recycling a hand-built &Packet{} is a no-op, so code that constructs
// packets directly (and tests that retain them) never has to opt in.

const (
	// cacheSize bounds a Cache at several bursts' worth of packets (a
	// saturating Net15 flow sends 100 at a time), so a lane trades with
	// the depot only when what it makes and what it ends stay unequal.
	cacheSize = 512
	// depotSize bounds the depot: what a process keeps for its next runs
	// (2.5 MB of packets, past the largest world's peak in flight).
	depotSize = 1 << 14
)

// depot is process-wide, as the sync.Pool it replaced was: worlds run
// one after another, or side by side in the daemon, share it.
var depot = freelist.NewDepot[*Packet](depotSize, cacheSize)

// DepotLen returns how many packets the depot holds for the next runs.
func DepotLen() int { return depot.Len() }

// Get returns a zeroed pool-owned Packet straight from the depot. It and
// Release remain only for the benchmark's kernels (bench/) and this
// package's tests; simulation code makes and recycles packets on its
// lane (simnet.Clock.NewPacket/Recycle), and TestDesignGuards' rule
// "packets are made and recycled on their lane" fails on a call
// anywhere else. The caller must hand the packet to exactly one
// sink that calls Release (or call Release itself on error paths).
func Get() *Packet {
	var one [1]*Packet
	if got := depot.Withdraw(one[:0], 1); len(got) == 1 {
		got[0].pooled = true
		return got[0]
	}
	return &Packet{pooled: true}
}

// Release recycles a pool-owned packet; it is a no-op for packets not
// obtained from Get, and for nil. The SACKBlocks backing array is kept
// so ACK senders can refill it without reallocating. After Release the
// caller must not touch the packet again.
func (p *Packet) Release() {
	if p.reset() {
		depot.Deposit([]*Packet{p})
	}
}

// reset zeroes a pool-owned packet for reuse, keeping its SACK backing
// array, and reports whether it was one. Zeroing clears pooled, so a
// second recycle of the same packet is a no-op.
func (p *Packet) reset() bool {
	if p == nil || !p.pooled {
		return false
	}
	sack := p.SACKBlocks[:0]
	*p = Packet{SACKBlocks: sack}
	return true
}

// Cache is a lane's free list of recycled packets (a freelist.Cache):
// only the goroutine driving the lane (simnet.Scheduler) may use it. The
// zero Cache is ready to use.
type Cache struct {
	free freelist.Cache[*Packet]
}

// Get returns a zeroed pool-owned Packet, like the package-level Get.
func (c *Cache) Get() *Packet {
	p, ok := c.free.Get(depot)
	if !ok {
		p = &Packet{}
	}
	p.pooled = true
	return p
}

// Put recycles a pool-owned packet, like Release; a no-op for packets
// not obtained from Get or a Cache, and for nil.
func (c *Cache) Put(p *Packet) {
	if p.reset() {
		c.free.Put(depot, p)
	}
}

// Spill hands every cached packet to the depot. A lane spills whenever
// its run returns control: its world may be done, and its packets should
// serve the next world rather than die with this one.
func (c *Cache) Spill() { c.free.Spill(depot) }
