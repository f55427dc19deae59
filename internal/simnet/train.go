package simnet

import (
	"math/bits"
	"time"

	"repro/internal/freelist"
	"repro/internal/packet"
	"repro/internal/rns"
)

// This file is the batched data plane: packet trains. Every link
// direction keeps one train — a ring with one member per packet it has
// accepted and not yet both released and delivered. The members from
// deqHead on still hold a transmission-queue slot: that is the
// direction's queue record in both data planes, released lazily (no
// event) by the next enqueue. On a batched direction the members from
// head on are also the undelivered transmissions, and while there are
// any (head < tail) the train has one entry in its lane's queue
// (sched.go), keyed by its next member's (at, key). The queue always
// yields the global (at, key) minimum, so a batched run replays the
// scalar event order exactly; what changes is the cost: the queue holds
// O(busy links) train heads instead of O(in-flight packets) events, a
// busy train advances by re-keying its entry, and a switch-bound train
// resolves its members' output ports with one amortized
// rns.ReduceBatch instead of a per-packet policy call. On a noBatch
// direction (the scalar plane, and cut links always) the delivery is a
// queue entry of its own and the member is only the queue slot.
//
// Exactness is by construction, not by luck:
//
//   - Key parity: a direction's keys are read off its ring. Member i
//     (counting from the first packet the direction ever accepted) is
//     released under key 2i+1 and delivered under 2i+2 of the
//     direction's entity, whichever way the delivery travels, so every
//     other event's tie-break key is identical in both planes.
//   - Queue occupancy: the only reader of a direction's queue depth is
//     the tail-drop check in enqueue. The ring drains entries whose
//     (release time, key) precedes the dispatcher's current (now,
//     curKey) — precisely the releases that have happened.
//   - Fault semantics: link failures, repairs, detections and gray
//     windows are scheduler events; because train heads and events share
//     one queue, they split trains for free. Every delivery, train
//     member or event, runs Line.transit at its own delivery
//     instant: the in-flight kill check, then the gray impairment's RNG
//     draws in the global order.
//   - Peel-outs: sampled packets take the full scalar switch pipeline
//     (flight-recorder hooks), corrupted packets invalidate only their
//     own precomputed residue, and non-batch handlers (edges) receive
//     plain HandlePacket calls.

// BatchHandler is a Handler that can accept batched deliveries with a
// precomputed port residue. The simulated switch implements it; edges
// do not (their trains skip residue precomputation entirely).
type BatchHandler interface {
	Handler
	// BatchReducer exposes the handler's modulus reduction for train-
	// side residue precomputation; ok is false when the handler cannot
	// accept precomputed residues (modulus wider than uint16).
	BatchReducer() (rns.Reducer, bool)
	// HandleBatchPacket is HandlePacket with the route-ID reduction
	// already done: residue == RouteID mod the handler's modulus.
	HandleBatchPacket(pkt *packet.Packet, inPort int, residue uint16)
}

// trainMember is one queued transmission: its delivery key (at, key)
// and, on a batched direction, the packet and its precomputed port
// residue. Its queue release is keyed (at minus the link delay, key−1)
// (see Key parity above). Two members share a cache line.
type trainMember struct {
	at    time.Duration
	key   uint64
	pkt   *packet.Packet
	res   uint16
	resOK bool
}

// train is one link direction's queue record and pending
// transmissions: a power-of-two ring whose slots are addressed by
// free-running member counters (see at). Members [deqHead, tail) still
// hold their queue slot; on a batched direction [head, tail) are
// undelivered, those before resLen have residues, and the owning
// lane's queue holds an entry for the direction while head < tail. The
// releases drain lazily, so deqHead may trail head (delivered, not yet
// released) or lead it (released, not yet delivered); the live members
// are [min(head, deqHead), tail), and the ring holds the next power of
// two ≥ the most that ever were; the rings it outgrew went back to the
// sending lane's free lists, and Network.Close gives the last one back.
// It fills one cache line of its dirState.
type train struct {
	head    int // next member to deliver
	deqHead int // next queue slot to release (lazy)
	resLen  int // members with computed residues
	tail    int // next member to push
	members []trainMember
	_       [8]byte
}

// at returns member i's slot in the ring.
func (tr *train) at(i int) *trainMember { return &tr.members[i&(len(tr.members)-1)] }

// pendingQueue returns the occupied queue slots (after a drain).
func (tr *train) pendingQueue() int { return tr.tail - tr.deqHead }

// push appends a member, growing a full ring from s, the sending lane.
// Its fields are stored in place: a member built on the stack and
// copied in reloads its halves right behind the stores that wrote them,
// and that forwarding stall was a tenth of a healthy hop.
func (tr *train) push(s *Scheduler, at time.Duration, key uint64, pkt *packet.Packet) {
	if tr.tail-min(tr.head, tr.deqHead) == len(tr.members) {
		tr.grow(s)
	}
	m := tr.at(tr.tail)
	tr.tail++
	m.at, m.key, m.pkt, m.res, m.resOK = at, key, pkt, 0, false
}

// grow doubles a full ring — most directions a short run touches carry
// a packet or two at a time, so it starts at 4 — and moves each live
// member to its slot under the wider mask. The new ring comes from the
// lane's free list and the vacated one goes back to it.
func (tr *train) grow(s *Scheduler) {
	old := tr.members
	tr.members = s.ring(max(2*len(old), 4))
	for i := min(tr.head, tr.deqHead); i < tr.tail; i++ {
		*tr.at(i) = old[i&(len(old)-1)]
	}
	s.freeRing(old)
}

// Rings are recycled as packets are (package freelist): each lane keeps
// a free list per size class, 4<<k slots for class k, in front of one
// process-wide depot per class. A ring vacated by grow serves the lane's
// next ring of its size, in the same world, and Network.Close hands every
// ring of a finished world to the depots for the next one.
const (
	// ringClasses bounds the recycled sizes at 512 slots; a longer ring
	// (a queue of hundreds of packets) is left to the collector.
	ringClasses = 8
	// ringCacheSize bounds a lane's free list of one class.
	ringCacheSize = 64
	// ringDepotSlots bounds the depots together at 2 MB of members, an
	// equal share of the slots to each class.
	ringDepotSlots = 1 << 16
)

var ringDepots = func() (d [ringClasses]*freelist.Depot[[]trainMember]) {
	for k := range d {
		d[k] = freelist.NewDepot[[]trainMember](ringDepotSlots/ringClasses/(4<<k), ringCacheSize)
	}
	return d
}()

// ringClass returns the size class of a ring of n slots, n a power of
// two ≥ 4.
func ringClass(n int) int { return bits.Len(uint(n)) - 3 }

// ring returns a zeroed ring of n slots, n a power of two ≥ 4.
func (s *Scheduler) ring(n int) []trainMember {
	if k := ringClass(n); k < ringClasses {
		if r, ok := s.rings[k].Get(ringDepots[k]); ok {
			return r
		}
	}
	return make([]trainMember, n)
}

// freeRing clears a vacated ring and keeps it for the lane's next ring
// of its size. A nil ring is a direction's first and has nothing to give.
func (s *Scheduler) freeRing(r []trainMember) {
	if k := ringClass(len(r)); len(r) > 0 && k < ringClasses {
		clear(r)
		s.rings[k].Put(ringDepots[k], r)
	}
}

// extendResidues computes residues for every member past resLen with
// one ReduceBatch call — the word-parallel amortization: it runs once
// per train-load, not once per packet, regardless of how deliveries
// interleave with other links' traffic. The gather and scatter arrays
// are the running lane's scratch, shared by all its trains. An endpoint
// that takes no residues leaves its members without.
func (tr *train) extendResidues(s *Scheduler, ep *endpoint) {
	n := tr.tail
	if ep.bh == nil {
		tr.resLen = n
		return
	}
	need := n - tr.resLen
	if cap(s.ids) < need {
		c := max(2*need, 64)
		s.ids = make([]rns.RouteID, need, c)
		s.out = make([]uint16, need, c)
	}
	ids, out := s.ids[:need], s.out[:need]
	for i := 0; i < need; i++ {
		ids[i] = tr.at(tr.resLen + i).pkt.RouteID
	}
	ep.red.ReduceBatch(ids, out)
	for i := 0; i < need; i++ {
		m := tr.at(tr.resLen + i)
		m.res, m.resOK = out[i], true
	}
	tr.resLen = n
}

// --- Scheduler side -------------------------------------------------------

// trainGrew accounts for a member just appended to ds's train: a train
// that was empty gets its queue entry; a busy one's is keyed by its
// head member, which an append never changes.
func (s *Scheduler) trainGrew(ds *dirState) {
	tr := &ds.train
	if tr.tail-tr.head > 1 {
		return
	}
	head := tr.at(tr.head)
	s.push(entry{at: head.at, key: head.key, what: ds})
}

// trainNext advances tr past its head member, then re-keys tr's queue
// entry — the queue's root — to the following member or, when none is
// left, removes it. Only the root is ever advanced or removed, so
// trains need no back-pointer into the queue: head < tail says whether
// one has an entry.
func (s *Scheduler) trainNext(tr *train) {
	tr.at(tr.head).pkt = nil // a delivered slot pins no packet
	tr.head++
	if tr.head < tr.tail {
		next := tr.at(tr.head)
		s.rekey(next.at, next.key)
		return
	}
	s.pop()
	// Every member is delivered, so every slot is released too. The
	// ring stays.
	tr.deqHead, tr.resLen = tr.tail, tr.tail
}

// run delivers the next member of ds's train, whose entry is the
// queue's root (the clock and curKey are already the member's): take
// what delivery needs out of the member, fix the queue, then deliver —
// mirroring pop-then-dispatch so handlers may freely enqueue more
// traffic (including onto this train). The member is read field by
// field, not copied whole: its residue was usually stored a moment ago
// by extendResidues, and a wide load over narrow fresh stores stalls.
// Only a sick line pays for transit (and draws its RNG in the scalar
// order).
func (ds *dirState) run(s *Scheduler) {
	tr := &ds.train
	if tr.resLen <= tr.head {
		tr.extendResidues(s, ds.ep)
	}
	m := tr.at(tr.head)
	pkt, res, resOK := m.pkt, m.res, m.resOK
	sick := ds.line.sick()
	s.trainNext(tr)
	if sick {
		alive, intact := ds.line.transit(ds, pkt, s.now)
		if !alive {
			return
		}
		resOK = resOK && intact // a corrupted route ID invalidates its residue
	}
	ds.line.net.deliver(ds.ep, ds.dstLane, pkt, int(ds.dstPort), res, resOK)
}

// --- Line-side train operations -------------------------------------------

// drainDeq releases queue slots whose release — (time, key) — precedes
// the current dispatch position.
func (l *Line) drainDeq(tr *train, now time.Duration, cur uint64) {
	for tr.deqHead < tr.tail {
		m := tr.at(tr.deqHead)
		done := m.at - l.delay
		if done < now || (done == now && m.key-1 < cur) {
			tr.deqHead++
			continue
		}
		break
	}
}
