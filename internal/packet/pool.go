package packet

import "sync"

// Packet pooling. Per-packet allocation dominates the simulator's heap
// churn: every transport segment and ACK used to be a fresh Packet,
// dying within a few virtual microseconds. Two tiers recycle them: a
// Cache owned by one simulation lane (a slice pop and push, no locks)
// in front of one shared depot. A full cache hands half of itself to the
// depot and an empty one takes a batch back, so packets that travel from
// one lane to another find their way home, and a run's lanes leave their
// packets there for the next run. Unlike a sync.Pool, the depot is not
// emptied by the garbage collector: how many packets a run allocates
// does not depend on when the collector last ran.
//
// Ownership rule: a packet obtained from Get (or a Cache) is owned by
// whoever holds it last — the terminal sink (transport receiver on
// delivery, or simnet.Network.Drop on loss) recycles it. Recycling a
// hand-built &Packet{} is a no-op, so code that constructs packets
// directly (and tests that retain them) never has to opt in.

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
var depot struct {
	sync.Mutex
	free []*Packet
}

// deposit moves ps into the depot, as many as fit; the rest are left to
// the collector.
func deposit(ps []*Packet) {
	depot.Lock()
	room := depotSize - len(depot.free)
	depot.free = append(depot.free, ps[:min(room, len(ps))]...)
	depot.Unlock()
}

// withdraw appends up to n packets from the depot to dst.
func withdraw(dst []*Packet, n int) []*Packet {
	depot.Lock()
	rest := len(depot.free) - min(n, len(depot.free))
	dst = append(dst, depot.free[rest:]...)
	clear(depot.free[rest:])
	depot.free = depot.free[:rest]
	depot.Unlock()
	return dst
}

// Get returns a zeroed pool-owned Packet straight from the depot. It and
// Release remain only for the benchmark's kernels (bench/) and this
// package's tests; simulation code makes and recycles packets on its
// lane (simnet.Clock.NewPacket/Recycle), and TestDesignGuards' rule
// "packets are made and recycled on their lane" fails on a call
// anywhere else. The caller must hand the packet to exactly one
// sink that calls Release (or call Release itself on error paths).
func Get() *Packet {
	var one [1]*Packet
	if got := withdraw(one[:0], 1); len(got) == 1 {
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
		deposit([]*Packet{p})
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

// Cache is a free list of recycled packets owned by one simulation lane
// (simnet.Scheduler): only the goroutine driving the lane may use it. A
// packet may be put into a different lane's cache than the one it came
// from; the depot evens out the imbalance. The zero Cache is ready to
// use.
type Cache struct {
	free []*Packet
}

// Get returns a zeroed pool-owned Packet, like the package-level Get.
func (c *Cache) Get() *Packet {
	if len(c.free) == 0 {
		if c.free = withdraw(c.free, cacheSize/2); len(c.free) == 0 {
			return &Packet{pooled: true}
		}
	}
	n := len(c.free) - 1
	p := c.free[n]
	c.free = c.free[:n]
	p.pooled = true
	return p
}

// Put recycles a pool-owned packet, like Release; a no-op for packets
// not obtained from Get or a Cache, and for nil.
func (c *Cache) Put(p *Packet) {
	if !p.reset() {
		return
	}
	if len(c.free) == cacheSize {
		c.spillFrom(cacheSize / 2)
	}
	c.free = append(c.free, p)
}

// Spill hands every cached packet to the depot. A lane spills whenever
// its run returns control: its world may be done, and its packets should
// serve the next world rather than die with this one.
func (c *Cache) Spill() { c.spillFrom(0) }

// spillFrom moves c.free[i:] to the depot.
func (c *Cache) spillFrom(i int) {
	deposit(c.free[i:])
	clear(c.free[i:])
	c.free = c.free[:i]
}
