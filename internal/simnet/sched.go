// Package simnet is a deterministic discrete-event network simulator:
// a virtual-time scheduler, plus link transmission/queueing/failure
// modelling over a topology.Graph. It replaces the paper's Mininet
// emulation substrate (see DESIGN.md §2): what the KAR experiments
// measure — serialization and queueing delays, loss at failed links,
// path changes — are exactly the first-order effects modelled here,
// with reproducible seeds instead of OS scheduling jitter.
package simnet

import (
	"math/bits"
	"time"

	"repro/internal/freelist"
	"repro/internal/packet"
	"repro/internal/rns"
	"repro/internal/telemetry"
)

// pending is what a queue entry dispatches: an At/After callback, the
// head of an active packet train (train.go) or one noBatch delivery.
// run is called with the entry at the queue's root and the clock and
// curKey already at the entry's (at, key); it removes or re-keys the
// entry before it runs anything that may schedule. None of the three
// boxes: funcs and pointers sit in the interface word itself.
type pending interface{ run(s *Scheduler) }

// entry is one queue slot, stored by value wherever it waits: 32 bytes,
// two to a cache line (layout_test.go pins the size).
type entry struct {
	at time.Duration
	// key is the equal-time tie-break: entity<<entShift | per-entity
	// count (Scheduler.allocKey; a link direction's: train.go). Unlike a
	// global FIFO sequence, the key an event gets depends only on which
	// entity posted it and how many that entity posted before — an order
	// that is identical however the world is sharded, which is what makes
	// N-shard runs replay the 1-shard dispatch order exactly.
	key  uint64
	what pending
}

// before is the queue order: time, then composite key.
func (e *entry) before(o *entry) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.key < o.key
}

// callback is a control-plane or user function scheduled by At/After.
type callback func()

func (fn callback) run(s *Scheduler) {
	s.pop()
	// Only control-plane callbacks may read a registry series (inside a
	// parallel window node-clock callbacks already run unfolded).
	if s.flush != nil && s.curKey>>entShift == ctlEntity {
		s.flush()
	}
	fn()
}

// delivery is the per-packet event of a noBatch direction (the scalar
// plane, and cut links always): pkt's transit over ds, then its
// endpoint. Typed fields rather than a closure, and the record is
// recycled through its lane's free list.
type delivery struct {
	ds   *dirState
	pkt  *packet.Packet
	free *delivery
}

func (d *delivery) run(s *Scheduler) {
	ds, pkt := d.ds, d.pkt
	sick := ds.line.sick()
	s.pop()
	*d = delivery{free: s.freeDeliv} // no stale packet pin
	s.freeDeliv = d
	if sick {
		if alive, _ := ds.line.transit(ds, pkt, s.now); !alive {
			return
		}
	}
	ds.line.net.deliver(ds.ep, ds.dstLane, pkt, int(ds.dstPort), 0, false)
}

// deliverAt queues v for (at, key) on this lane.
func (s *Scheduler) deliverAt(at time.Duration, key uint64, v delivery) {
	if s.freeDeliv == nil {
		// One allocation per 128 records, chained onto the free list.
		slab := make([]delivery, 128)
		for i := range slab[1:] {
			slab[i+1].free = &slab[i]
		}
		s.freeDeliv = &slab[len(slab)-1]
	}
	d := s.freeDeliv
	s.freeDeliv = d.free
	*d = v
	s.push(entry{at: at, key: key, what: d})
}

// entShift packs the posting entity into the key's high bits: entity
// index above, per-entity count below. 2^40 events per entity and 2^24
// entities bound nothing real (a saturated 200 Mb/s link carries ~1.6e4
// packets per simulated second).
const entShift = 40

// ctlEntity is entity 0: the control plane. Untagged At/After callbacks
// (experiment phases, fault injectors, detection timers) post here, so
// at equal times control events dispatch before any data event — a
// fixed rule instead of posting-order luck.
const ctlEntity = 0

// Scheduler is a virtual-time event loop — one priority lane of a
// simulated world. Events at equal times run in (entity, per-entity
// count) order, making runs fully deterministic and independent of how
// the world's entities are partitioned into lanes. Not safe for
// concurrent use: one lane is driven by one goroutine at a time (the
// Network coordinates multi-lane worlds).
//
// Everything pending — callbacks, deliveries, the heads of active
// packet trains — waits in one queue whose cost does not grow with its
// depth: a calendar keyed by bucket = at >> bucketShift.
//
//   - front, a 4-ary min-heap, holds every entry whose bucket is ≤ cur;
//   - the ring holds the entries of the next ringSize-1 buckets, each
//     bucket an unsorted list (insert is a list push; a bucket is
//     heap-ordered only when the clock reaches it);
//   - far, a second 4-ary heap, holds what lies past the ring's horizon
//     (RTO timers, experiment phases).
//
// Invariant: every ring entry's bucket lies in (cur, cur+ringSize) and
// every far entry's bucket is > cur ≥ every front entry's bucket. A
// smaller bucket means a strictly smaller time, so while front is
// non-empty its root is the exact global (at, key) minimum; when it is
// empty, cur moves to the earliest non-empty bucket behind it and that
// bucket's entries move in. The dispatch order is the one a single heap
// would give, whatever the constants are.
//
// The constants fit the traffic every topology here produces (1 ms
// links at 200 Mb/s: a delivery lands a link delay plus one 10–60 µs
// serialization ahead of the clock; DESIGN.md §9). Off that traffic the
// queue degrades to a plain heap, never below it: entries at one
// instant all meet in front, a world of distant timers sits in far.
// And small worlds do not pay for large ones: while the ring is empty
// and front holds fewer than smallWorld entries, an insert inside the
// horizon goes to front and cur follows it. All backing arrays are
// reused across the run: steady-state scheduling allocates nothing.
type Scheduler struct {
	now time.Duration

	front evHeap
	far   evHeap
	cur   int64 // bucket number: front covers every bucket ≤ cur

	// The ring's entries live in the nodes slab, chained per bucket
	// through link (1-based indexes, 0 ends a list; beside the slab, not
	// in it, so walking a list never waits for an entry to load); freed
	// nodes are reused last-in first-out, so the slab stays cache-warm.
	// ringN counts the entries.
	ringN int
	free  int32
	nodes []entry
	link  []int32

	freeDeliv *delivery

	// Lane-owned recycling: the free list of packets this lane's handlers
	// and timers create and terminate (Clock.NewPacket/Recycle, drops),
	// and the gather/scatter scratch of its trains' residue batches
	// (train.extendResidues).
	pkts packet.Cache
	ids  []rns.RouteID
	out  []uint16

	// ents holds the key counters of the control and node entities.
	// Lanes of one world share a single backing array (each entity is
	// owned by exactly one lane); a standalone scheduler lazily grows
	// its own. A link direction's keys are read off its train.
	ents []uint64

	// curKey is the key of the item currently (or most recently)
	// dispatched. A link direction's queue record compares against it
	// to decide whether a slot release with an equal timestamp has
	// already happened (at equal times things happen in key order).
	// After RunUntil drains everything ≤ t it is set to idleKey: every
	// release stamped so far has matured.
	curKey uint64

	// denyPost, when set, panics At/After: the Network sets it on the
	// control lane during parallel windows, because a control event
	// posted from a shard goroutine could race the control heap (data
	// contexts must schedule through their node's Clock instead).
	denyPost bool

	// cPast counts events scheduled for an already-elapsed virtual
	// time (clamped to "now"); nil until a Network attaches one.
	cPast *telemetry.Counter

	// flush surfaces the world's deferred telemetry at observation
	// boundaries: before a control-plane callback runs and whenever
	// Step/RunUntil returns control to the caller. Nil for a standalone
	// scheduler.
	flush func()

	// Lane-owned deferred telemetry (see defercount.go): the cells with
	// unfolded increments, the link directions this lane sent on since
	// the last fold, and this lane's share of the network-wide
	// delivered/sends totals. Written only by the goroutine driving the
	// lane.
	dirty     []*DeferredCounter
	dirtyH    []*DeferredHistogram
	dirtySent []*dirState
	delivered DeferredCounter
	sends     DeferredCounter

	// The free lists of this lane's train rings by size class: what its
	// trains outgrew (train.grow), kept apart from the fields a hop reads.
	rings [ringClasses]freelist.Cache[[]trainMember]

	// The ring's buckets: heads[b&ringMask] is bucket b's list, occ has
	// one bit per non-empty slot. heads (8 KB) is made by the first
	// entry to spill out of front: a small world never has one.
	heads []int32
	occ   [ringSize / 64]uint64

	// A world's lanes are same-sized heap objects, which the allocator
	// places back to back, and each is written by its own goroutine; the
	// pad keeps one lane's tail off the cache line holding the next
	// lane's clock.
	_ [64]byte
}

// idleKey marks "no dispatch in progress": all keys allocated so far
// compare below it (entity indexes stay far under 2^24).
const idleKey = ^uint64(0)

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// allocKey stamps one tie-break key for a control or node entity.
// Entity counters are single-writer: each entity posts only from its
// own lane's goroutine.
func (s *Scheduler) allocKey(ent uint32) uint64 {
	if int(ent) >= len(s.ents) {
		// Standalone scheduler (tests): grow a private counter array.
		grown := make([]uint64, int(ent)+1)
		copy(grown, s.ents)
		s.ents = grown
	}
	s.ents[ent]++
	return uint64(ent)<<entShift | s.ents[ent]
}

// SetPastEventCounter attaches the counter bumped whenever an event is
// scheduled in the virtual past. Nil (the default) disables counting.
func (s *Scheduler) SetPastEventCounter(c *telemetry.Counter) { s.cPast = c }

// At schedules fn at absolute virtual time t; times in the past run
// "now" (next step) and are counted on the past-event counter. At
// posts to the control entity: use Network.ClockOf to schedule from
// data-plane (per-node) contexts in sharded worlds.
func (s *Scheduler) At(t time.Duration, fn func()) {
	if s.denyPost {
		panic("simnet: control-plane At/After from inside a parallel shard window; use Network.ClockOf for per-node timers")
	}
	s.post(t, ctlEntity, fn)
}

// After schedules fn d from now.
func (s *Scheduler) After(d time.Duration, fn func()) { s.At(s.now+d, fn) }

// post clamps t, stamps ent's next key and pushes a callback event.
func (s *Scheduler) post(t time.Duration, ent uint32, fn func()) {
	if t < s.now {
		t = s.now
		if s.cPast != nil {
			s.cPast.Inc()
		}
	}
	s.push(entry{at: t, key: s.allocKey(ent), what: callback(fn)})
}

// The queue's three constants (see Scheduler).
const (
	bucketShift = 10   // a bucket spans 2^10 ns of virtual time
	ringSize    = 2048 // buckets in the ring: a 2.1 ms horizon
	ringMask    = ringSize - 1
	smallWorld  = 64 // front entries below which cur follows an insert

	// frontCap is every lane's starting front capacity (4 KB). Past
	// the small-world rule front holds the current bucket only, so its
	// depth follows a microsecond of the lane's traffic, not the size
	// of the topology; past frontCap it grows by append and keeps what
	// it grew to for the rest of the run.
	frontCap = 2 * smallWorld
)

// newLane makes one lane of a world, tie-breaking over the world's
// shared entity counters.
func newLane(ents []uint64) *Scheduler {
	return &Scheduler{ents: ents, front: make(evHeap, 0, frontCap)}
}

func bucketOf(at time.Duration) int64 { return int64(at) >> bucketShift }

// evHeap is a 4-ary min-heap of entries in a plain slice: shallower
// sift paths than a binary heap, and entries travel in registers.
type evHeap []entry

func (h *evHeap) push(e entry) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
	*h = q
}

// pop removes and returns the root. The vacated tail slot is zeroed so
// the heap never pins dead closures or deliveries.
func (h *evHeap) pop() entry {
	q := *h
	top := q[0]
	last := len(q) - 1
	e := q[last]
	q[last] = entry{}
	q = q[:last]
	if last > 0 {
		q.siftRoot(e)
	}
	*h = q
	return top
}

// siftRoot places e at the root and sifts it down: the root left and
// the last entry takes its place, or the root's key increased.
func (q evHeap) siftRoot(e entry) {
	i := 0
	for {
		c := 4*i + 1
		if c >= len(q) {
			break
		}
		end := c + 4
		if end > len(q) {
			end = len(q)
		}
		min := c
		for j := c + 1; j < end; j++ {
			if q[j].before(&q[min]) {
				min = j
			}
		}
		if !q[min].before(&e) {
			break
		}
		q[i] = q[min]
		i = min
	}
	q[i] = e
}

// push queues e: into front when its bucket is already covered (or the
// world is small enough that cur may follow it), into its ring bucket
// inside the horizon, into far past it.
func (s *Scheduler) push(e entry) {
	b := bucketOf(e.at)
	switch {
	case b <= s.cur || s.follow(b):
		s.front.push(e)
	case b-s.cur < ringSize:
		i := s.free
		if i != 0 {
			s.free = s.link[i-1]
		} else {
			s.nodes, s.link = append(s.nodes, entry{}), append(s.link, 0)
			i = int32(len(s.nodes))
		}
		if s.heads == nil {
			s.heads = make([]int32, ringSize)
		}
		slot := b & ringMask
		s.nodes[i-1], s.link[i-1] = e, s.heads[slot]
		s.heads[slot] = i
		s.occ[slot>>6] |= 1 << (slot & 63)
		s.ringN++
	default:
		// Nothing pending is earlier than the clock, so after an idle
		// stretch cur may catch up with it before e is judged far.
		if c := bucketOf(s.now) - 1; c > s.cur {
			s.cur = c
			s.push(e)
			return
		}
		s.far.push(e)
	}
}

// follow is the small-world rule: with an empty ring and a short front
// heap, cur advances to bucket b (inside the horizon, short of far's
// earliest) so that the entry may join front.
func (s *Scheduler) follow(b int64) bool {
	if s.ringN != 0 || len(s.front) >= smallWorld || b-s.cur >= ringSize ||
		(len(s.far) > 0 && b >= bucketOf(s.far[0].at)) {
		return false
	}
	s.cur = b
	return true
}

// peek returns the earliest pending entry — the exact (at, key)
// minimum — or nil when the lane is empty. It is idempotent, and moves
// cur no further than the ring reaches: a distant timer is looked at
// where it lies, in far, so that looking past the end of a run does not
// drag cur (and all later traffic into front) out to that timer.
func (s *Scheduler) peek() *entry {
	if len(s.front) > 0 {
		return &s.front[0]
	}
	return s.peekBehind()
}

// peekBehind is peek with an empty front heap: it moves cur to the
// ring's earliest bucket and that bucket's entries into front, unless
// far holds something earlier still.
func (s *Scheduler) peekBehind() *entry {
	if s.ringN == 0 {
		if len(s.far) == 0 {
			return nil
		}
		return &s.far[0]
	}
	// Next occupied slot at or after cur+1, circularly; the first word
	// is masked below the start, and seen whole if the scan comes back
	// round to it.
	start := (s.cur + 1) & ringMask
	w := start >> 6
	word := s.occ[w] &^ (1<<(start&63) - 1)
	for word == 0 {
		w = (w + 1) & (ringSize/64 - 1)
		word = s.occ[w]
	}
	slot := w<<6 | int64(bits.TrailingZeros64(word))
	b := s.cur + 1 + (slot-start)&ringMask
	if len(s.far) > 0 && bucketOf(s.far[0].at) < b {
		return &s.far[0]
	}
	i := s.heads[slot]
	s.heads[slot] = 0
	s.occ[w] &^= 1 << (slot & 63)
	for i != 0 {
		next := s.link[i-1]
		s.front.push(s.nodes[i-1])
		s.nodes[i-1].what = nil // no stale closure or delivery pins
		s.link[i-1] = s.free
		s.free = i
		s.ringN--
		i = next
	}
	s.loadFar(b)
	return &s.front[0]
}

// pop removes the queue's root: the entry being stepped.
func (s *Scheduler) pop() { s.front.pop() }

// loadFar moves cur to bucket b, no later than far's earliest, and
// far's entries of that bucket into front.
func (s *Scheduler) loadFar(b int64) {
	s.cur = b
	for len(s.far) > 0 && bucketOf(s.far[0].at) == b {
		s.front.push(s.far.pop())
	}
}

// rekey gives the root entry — a train head whose train advanced — its
// next (at, key): in place when front still covers it, through push
// otherwise.
func (s *Scheduler) rekey(at time.Duration, key uint64) {
	e := entry{at: at, key: key, what: s.front[0].what}
	if b := bucketOf(at); b <= s.cur || s.follow(b) {
		s.front.siftRoot(e)
		return
	}
	s.front.pop()
	s.push(e)
}

// step runs e, the entry the last peek returned, without the
// observation-boundary flush (RunUntil and the Network's multi-lane
// driver call it in a loop and flush at their own boundaries).
func (s *Scheduler) step(e *entry) {
	if len(s.front) == 0 {
		// e is far's root: the clock is moving to it, and cur with it.
		s.loadFar(bucketOf(e.at))
		e = &s.front[0]
	}
	s.now = e.at
	s.curKey = e.key
	e.what.run(s)
}

// Step runs the earliest pending item — event or train member — and
// reports false when none remain.
func (s *Scheduler) Step() bool {
	e := s.peek()
	if e == nil {
		return false
	}
	s.step(e)
	if s.flush != nil {
		s.flush()
	}
	return true
}

// RunUntil processes every event and train member scheduled at or
// before t — always the global (at, key) minimum first, so batched and
// scalar runs replay the same order — then advances the clock to t.
// Drive sharded worlds through Network.RunUntil instead: this runs one
// lane only.
func (s *Scheduler) RunUntil(t time.Duration) {
	for {
		e := s.peek()
		if e == nil || e.at > t {
			break
		}
		s.step(e)
	}
	if s.now < t {
		s.now = t
	}
	// Everything stamped ≤ t has run; implicit queue releases at
	// exactly t must all read as matured from here on.
	s.curKey = idleKey
	if s.flush != nil {
		s.flush()
	}
	s.pkts.Spill()
}

// runWindow processes this lane's items with at < end — one shard's
// share of a conservative parallel window. It leaves now/curKey at the
// last dispatched item: the window bound, not the clock, is the
// synchronization point.
func (s *Scheduler) runWindow(end time.Duration) {
	for {
		e := s.peek()
		if e == nil || e.at >= end {
			return
		}
		s.step(e)
	}
}

// close ends the lane: the packet of every queued delivery goes to the
// lane's cache, the queue is emptied, and the lane's packets and rings
// spill to their depots.
func (s *Scheduler) close() {
	for _, q := range [][]entry{s.front, s.nodes, s.far} {
		for i := range q {
			if d, ok := q[i].what.(*delivery); ok {
				s.pkts.Put(d.pkt)
			}
		}
	}
	s.front, s.far, s.nodes, s.link, s.heads, s.freeDeliv = nil, nil, nil, nil, nil, nil
	s.ringN, s.free, s.occ = 0, 0, [ringSize / 64]uint64{}
	s.pkts.Spill()
	for k := range s.rings {
		s.rings[k].Spill(ringDepots[k])
	}
}

// Pending returns the number of queue entries, one per busy train;
// Network.Pending adds the members behind each train's head.
func (s *Scheduler) Pending() int {
	return len(s.front) + s.ringN + len(s.far)
}

// Clock is a per-node scheduling handle: Now/At/After bound to the
// lane that owns one node, stamping events with that node's entity.
// Data-plane components (edges, transports, traffic generators) must
// schedule their timers through a Clock rather than the global
// Scheduler — that is what keeps their tie-break keys, and therefore
// whole-run determinism, independent of the shard count, and what
// makes their callbacks run on the owning shard in parallel windows.
// The zero Clock is not usable; obtain one from Network.ClockOf.
type Clock struct {
	s   *Scheduler
	ent uint32
}

// Now returns the owning lane's current virtual time — inside a
// handler or timer callback, the exact instant of the current event.
func (c Clock) Now() time.Duration { return c.s.now }

// At schedules fn at absolute virtual time t on the node's lane.
func (c Clock) At(t time.Duration, fn func()) { c.s.post(t, c.ent, fn) }

// After schedules fn d from the node's current time.
func (c Clock) After(d time.Duration, fn func()) { c.At(c.s.now+d, fn) }

// NewPacket returns a zeroed pool-owned packet from the node's lane
// cache: the way a traffic source on that node makes a packet.
func (c Clock) NewPacket() *packet.Packet { return c.s.pkts.Get() }

// Recycle returns a packet to the node's lane cache: the way the sink
// on that node that terminates a packet (a transport receiver, or a
// sender whose injection failed) disposes of it. Like
// packet.Release, it is a no-op for hand-built packets.
func (c Clock) Recycle(pkt *packet.Packet) { c.s.pkts.Put(pkt) }
