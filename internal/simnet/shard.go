package simnet

import (
	"sync"
	"time"

	"repro/internal/topology"
)

// This file is the sharded execution engine. A world built with
// WithShards(N>1) is partitioned by topology.PartitionRegions into N
// regions; each region's nodes, and every link direction whose sender
// is in the region, live on one scheduler lane. Lanes advance in
// parallel under conservative synchronization (classic Chandy-Misra
// lookahead, barrier-window flavor): the only inter-lane dependencies
// are cut-link deliveries, and a packet entering a cut link at time s
// arrives no earlier than s + delay ≥ s + W, where W = Lookahead() is
// the minimum propagation delay over cut links. So all lanes may
// safely run every event in [m, m+W) concurrently, where m is the
// global minimum pending event time.
//
// Determinism is stronger than the usual PDES guarantee: a sharded
// run is not merely repeatable, it is byte-identical to the 1-shard
// run. The argument:
//
//   - Every event carries a (time, entity<<40|count) key. Entities —
//     control plane, nodes, link directions — are each owned by one
//     lane, and an entity's events are numbered in its own posting
//     order, which is a function of the simulation's causal history,
//     not of lane interleaving.
//   - Each lane dispatches its own events in (at, key) order in every
//     mode. Cross-lane arrivals carry at ≥ window end, so they are
//     merged into the receiver's heap before the receiver can reach
//     them; within a window each lane sees exactly the event set the
//     serialized run would have given it.
//   - Control events (entity 0) sort below all data keys at equal
//     times and run single-threaded between windows, so failures,
//     repairs, detections and experiment phases interleave with the
//     data plane in one global order.
//   - Per-hop telemetry accumulates in lane-owned cells and is folded
//     into the shared registry single-threaded, between windows; the
//     folds are commutative (counter adds, bucketed histogram merges
//     of integral sums), and data-plane event-log records are
//     canonically sorted on export, so concurrent windows produce the
//     same observable bytes as the serialized order.
//
// Observers that demand the total global order — the flight recorder,
// drop/deliver hooks, the event-log tap — and gray impairments (whose
// RNG draw order is defined by the global event order) force the
// serialized driver: same lanes, same keys, one goroutine picking the
// global (at, key) minimum. It produces the identical dispatch
// sequence, just without the parallelism.

// RunUntil advances the whole world (all shard lanes plus the control
// plane) to virtual time t. With one shard it is exactly
// Scheduler.RunUntil; with several it picks the parallel window driver
// when every observer tolerates it, else the serialized global merge.
// The driver choice is invisible in every output byte.
func (n *Network) RunUntil(t time.Duration) {
	if len(n.lanes) == 1 {
		n.sched.RunUntil(t)
		return
	}
	if n.parallelOK() {
		n.runWindows(t)
	} else {
		n.runSerial(t)
	}
}

// parallelOK reports whether parallel windows may run: a positive
// lookahead and no observer or impairment that needs the total global
// event order.
func (n *Network) parallelOK() bool {
	return n.lookahead > 0 &&
		n.trace == nil &&
		n.dropHook == nil &&
		n.deliverHook == nil &&
		n.impaired == 0 &&
		!n.events.HasTap()
}

// peekMin returns the lane with the globally earliest pending (at,
// key), including the control lane; nil when everything is drained.
func (n *Network) peekMin() (best *Scheduler, bAt time.Duration, bKey uint64) {
	if at, key, ok := n.sched.peekKey(); ok {
		best, bAt, bKey = n.sched, at, key
	}
	for _, lane := range n.lanes {
		at, key, ok := lane.peekKey()
		if !ok {
			continue
		}
		if best == nil || at < bAt || (at == bAt && key < bKey) {
			best, bAt, bKey = lane, at, key
		}
	}
	return best, bAt, bKey
}

// runSerial advances a sharded world on one goroutine by always
// dispatching the global (at, key) minimum across the control lane
// and every shard lane — the reference order the parallel driver must
// (and does) reproduce. The control scheduler's clock is kept at the
// dispatch time throughout so global observers (trace stamps, drop
// hooks, the event log's Record) read the right virtual time whichever
// lane the event ran on.
func (n *Network) runSerial(t time.Duration) {
	for {
		best, bAt, _ := n.peekMin()
		if best == nil || bAt > t {
			break
		}
		n.sched.now = bAt
		best.stepOnce()
	}
	n.finishRun(t)
}

// runWindows advances a sharded world with parallel conservative
// windows: control events run single-threaded whenever one is due at
// or before the earliest data event (at equal times control sorts
// first — entity 0 — matching the serialized order); otherwise all
// lanes concurrently run their events in [m, min(m+W, next control
// event, t]] and meet at a barrier, where cross-lane deliveries
// buffered in the window are merged into their destination heaps.
func (n *Network) runWindows(t time.Duration) {
	var wg sync.WaitGroup
	for {
		ctlAt, _, ctlOK := n.sched.peekKey()
		var dataMin time.Duration
		dataAny := false
		for _, lane := range n.lanes {
			if at, _, ok := lane.peekKey(); ok && (!dataAny || at < dataMin) {
				dataMin, dataAny = at, true
			}
		}
		if ctlOK && ctlAt <= t && (!dataAny || ctlAt <= dataMin) {
			n.sched.stepOnce()
			continue
		}
		if !dataAny || dataMin > t {
			break
		}
		end := dataMin + n.lookahead
		if ctlOK && ctlAt < end {
			// Windows never span a control event: link state and
			// experiment phases must interleave at their exact global
			// position.
			end = ctlAt
		}
		if end > t {
			end = t + 1 // t itself is inside the run
		}
		n.inWindow = true
		n.sched.denyPost = true
		for _, lane := range n.lanes {
			wg.Add(1)
			go func(s *Scheduler) {
				defer wg.Done()
				s.runWindow(end, t)
			}(lane)
		}
		wg.Wait()
		n.sched.denyPost = false
		n.inWindow = false
		for _, lane := range n.lanes {
			lane.drainOutbox()
		}
	}
	n.finishRun(t)
}

// finishRun advances every lane's clock to t and marks all of them
// idle (every queue release stamped ≤ t has matured), then surfaces
// deferred telemetry — the multi-lane mirror of Scheduler.RunUntil's
// epilogue.
func (n *Network) finishRun(t time.Duration) {
	n.sched.now = t
	n.sched.curKey = idleKey
	for _, lane := range n.lanes {
		if lane.now < t {
			lane.now = t
		}
		lane.curKey = idleKey
	}
	n.flushCounters()
}

// ClockOf returns the scheduling handle for per-node timers: events
// land on the lane owning the node and are keyed by the node's entity.
// Data-plane components (edges, transports, traffic generators) must
// use it instead of Scheduler().At/After — in a 1-shard world the two
// are equivalent, in a sharded one only the Clock keeps timer keys
// shard-invariant and timer callbacks on the owning shard.
func (n *Network) ClockOf(node *topology.Node) Clock {
	return Clock{s: n.laneOf(node), ent: uint32(1 + node.Index())}
}

// laneOf returns the scheduler lane of the shard owning node.
func (n *Network) laneOf(node *topology.Node) *Scheduler {
	return n.lanes[n.nodeLane[node.Index()]]
}

// Pending returns the number of scheduled items across the control
// lane and every shard lane.
func (n *Network) Pending() int {
	p := n.sched.Pending()
	for _, lane := range n.lanes {
		if lane != n.sched {
			p += lane.Pending()
		}
	}
	return p
}
