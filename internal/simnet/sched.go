// Package simnet is a deterministic discrete-event network simulator:
// a virtual-time scheduler, plus link transmission/queueing/failure
// modelling over a topology.Graph. It replaces the paper's Mininet
// emulation substrate (see DESIGN.md §2): what the KAR experiments
// measure — serialization and queueing delays, loss at failed links,
// path changes — are exactly the first-order effects modelled here,
// with reproducible seeds instead of OS scheduling jitter.
package simnet

import (
	"time"

	"repro/internal/packet"
	"repro/internal/telemetry"
)

// Event kinds. The per-packet event of the transport hot path
// (delivery) is encoded as typed fields on the event struct rather than
// a closure, so steady-state scheduling never allocates; evtFunc
// remains for control-plane and user callbacks.
const (
	evtFunc    = iota // fn()
	evtDeliver        // in-flight check, then deliver pkt over line/dir
)

// event is one scheduled occurrence. Exactly one kind-dependent field
// group is meaningful; the struct is stored by value in the heap slice
// so scheduling moves no separate allocation.
type event struct {
	at time.Duration
	// key is the equal-time tie-break: entity<<entShift | per-entity
	// count (see Scheduler.allocKey). Unlike a global FIFO sequence,
	// the key an event gets depends only on which entity posted it and
	// how many that entity posted before — an order that is identical
	// however the world is sharded, which is what makes N-shard runs
	// replay the 1-shard dispatch order exactly.
	key uint64

	kind uint8
	dir  uint8 // evtDeliver: line direction index

	fn      func()         // evtFunc
	line    *Line          // evtDeliver
	pkt     *packet.Packet // evtDeliver
	txStart time.Duration  // evtDeliver: serialization start (in-flight kill check)

	// Keeps an event at 64 bytes, one per cache line, so a heap sift's
	// swaps never straddle lines (layout_test.go pins the size).
	_ [8]byte
}

// before is the heap order: time, then composite key.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.key < o.key
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
// The queue is a 4-ary min-heap in a plain slice: no interface boxing
// on push/pop, shallower sift paths than a binary heap, and the
// backing array is reused across the run, so steady-state scheduling
// performs zero allocations.
type Scheduler struct {
	now    time.Duration
	events []event

	// ents holds the per-entity key counters. Lanes of one world share
	// a single backing array (each entity is owned by exactly one
	// lane); a standalone scheduler lazily grows its own.
	ents []uint64

	// curKey is the key of the item currently (or most recently)
	// dispatched. A link direction's queue record compares against it
	// to decide whether a slot release with an equal timestamp has
	// already happened (at equal times things happen in key order).
	// After RunUntil drains everything ≤ t it is set to idleKey: every
	// release stamped so far has matured.
	curKey uint64

	// trains is the second priority lane of the batched data plane: a
	// small 4-ary heap of active packet trains, each entry carrying its
	// train's head-member (at, key) by value. The main loop always
	// dispatches the global (at, key) minimum across both lanes, so
	// batch replays scalar event order exactly — but advancing a train
	// is one shallow sift in a heap of O(active links) instead of a
	// push/pop pair in the main event heap. trainMembers counts
	// undelivered members across all trains (Pending accounting).
	trains       []trainEnt
	trainMembers int

	// outbox buffers cross-lane deliveries produced inside a parallel
	// window; the Network drains it into the destination lanes at the
	// window barrier (heap order makes the drain order irrelevant).
	outbox []outMsg

	// denyPost, when set, panics At/After: the Network sets it on the
	// control lane during parallel windows, because a control event
	// posted from a shard goroutine could race the control heap (data
	// contexts must schedule through their node's Clock instead).
	denyPost bool

	// cPast counts events scheduled for an already-elapsed virtual
	// time (clamped to "now"); nil until a Network attaches one.
	cPast *telemetry.Counter

	// flush surfaces the world's deferred telemetry at observation
	// boundaries: before any evtFunc callback runs and whenever
	// Step/RunUntil returns control to the caller. Nil for a standalone
	// scheduler.
	flush func()

	// Lane-owned deferred telemetry (see defercount.go): the cells with
	// unfolded increments, and this lane's share of the network-wide
	// delivered/sends totals. Written only by the goroutine driving the
	// lane.
	dirty     []*DeferredCounter
	dirtyH    []*DeferredHistogram
	delivered DeferredCounter
	sends     DeferredCounter

	// A world's lanes are same-sized heap objects, which the allocator
	// places back to back, and each is written by its own goroutine; the
	// pad keeps one lane's tail off the cache line holding the next
	// lane's clock.
	_ [64]byte
}

// outMsg is one buffered cross-lane delivery.
type outMsg struct {
	dst *Scheduler
	ev  event
}

// idleKey marks "no dispatch in progress": all keys allocated so far
// compare below it (entity indexes stay far under 2^24).
const idleKey = ^uint64(0)

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Reserve pre-sizes the event heap (topology-derived: worlds size it
// from their link count so steady-state traffic never re-grows the
// backing array mid-run).
func (s *Scheduler) Reserve(n int) {
	if cap(s.events) >= n {
		return
	}
	q := make([]event, len(s.events), n)
	copy(q, s.events)
	s.events = q
}

// allocKey stamps one tie-break key for the given entity. A link
// direction takes two per packet — the queue-slot release, then the
// delivery — whether the delivery is a train member or a heap event,
// so tie-break order against every other event is identical in both
// data planes. Entity counters are single-writer: each entity posts
// only from its own lane's goroutine.
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
	s.push(event{at: t, key: s.allocKey(ent), kind: evtFunc, fn: fn})
}

// push appends e and sifts it up the 4-ary heap.
func (s *Scheduler) push(e event) {
	q := append(s.events, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !q[i].before(&q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	s.events = q
}

// pop removes and returns the earliest event. The vacated tail slot is
// zeroed so the heap never pins dead packets or closures.
func (s *Scheduler) pop() event {
	q := s.events
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q[last] = event{}
	q = q[:last]
	s.events = q
	i := 0
	for {
		min := i
		c := 4*i + 1
		end := c + 4
		if end > len(q) {
			end = len(q)
		}
		for ; c < end; c++ {
			if q[c].before(&q[min]) {
				min = c
			}
		}
		if min == i {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	return top
}

// dispatch runs one event at the already-advanced clock.
func (s *Scheduler) dispatch(e *event) {
	switch e.kind {
	case evtFunc:
		if s.flush != nil {
			s.flush()
		}
		e.fn()
	case evtDeliver:
		e.line.finishTransit(e.pkt, int(e.dir), e.txStart)
	}
}

// trainFirst reports whether the earliest pending item is a train
// member rather than a heap event (false when no trains are active).
func (s *Scheduler) trainFirst() bool {
	if len(s.trains) == 0 {
		return false
	}
	if len(s.events) == 0 {
		return true
	}
	tr := &s.trains[0]
	e := &s.events[0]
	if tr.at != e.at {
		return tr.at < e.at
	}
	return tr.key < e.key
}

// peekKey returns the (at, key) of the earliest pending item across
// both lanes, or ok=false when the lane is empty.
func (s *Scheduler) peekKey() (time.Duration, uint64, bool) {
	if s.trainFirst() {
		return s.trains[0].at, s.trains[0].key, true
	}
	if len(s.events) == 0 {
		return 0, 0, false
	}
	return s.events[0].at, s.events[0].key, true
}

// stepOnce runs the earliest pending item without the observation-
// boundary flush (RunUntil and the Network's multi-lane driver call it
// in a loop and flush at their own boundaries).
func (s *Scheduler) stepOnce() {
	if s.trainFirst() {
		s.stepTrain()
		return
	}
	e := s.pop()
	s.now = e.at
	s.curKey = e.key
	s.dispatch(&e)
}

// Step runs the earliest pending item — heap event or train member —
// and reports false when none remain.
func (s *Scheduler) Step() bool {
	if len(s.events) == 0 && len(s.trains) == 0 {
		return false
	}
	s.stepOnce()
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
		at, _, ok := s.peekKey()
		if !ok || at > t {
			break
		}
		s.stepOnce()
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
}

// runWindow processes this lane's items with at < endExcl (and ≤ tMax)
// — one shard's share of a conservative parallel window. It leaves
// now/curKey at the last dispatched item: the window bound, not the
// clock, is the synchronization point.
func (s *Scheduler) runWindow(endExcl, tMax time.Duration) {
	for {
		at, _, ok := s.peekKey()
		if !ok || at >= endExcl || at > tMax {
			return
		}
		s.stepOnce()
	}
}

// drainOutbox pushes buffered cross-lane deliveries into their
// destination heaps. Called single-threaded at window barriers; heap
// order by (at, key) makes the drain order irrelevant.
func (s *Scheduler) drainOutbox() {
	for i := range s.outbox {
		m := &s.outbox[i]
		m.dst.push(m.ev)
		s.outbox[i] = outMsg{} // no stale packet pins
	}
	s.outbox = s.outbox[:0]
}

// Pending returns the number of scheduled items — heap events plus
// undelivered train members (for tests and leak-detection assertions).
func (s *Scheduler) Pending() int { return len(s.events) + s.trainMembers }

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
