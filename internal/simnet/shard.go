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
//     merged into the receiver's queue before the receiver can reach
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
// the drop hook, the event-log tap — and gray impairments (whose RNG
// draw order is defined by the global event order) veto windows: while
// one is attached the driver steps the global (at, key) minimum on one
// goroutine instead — same lanes, same keys, the identical dispatch
// sequence, just without the parallelism.

// RunUntil advances the whole world (all shard lanes plus the control
// plane) to virtual time t. With one shard it is exactly
// Scheduler.RunUntil. With several, one loop looks at the global (at,
// key) minimum across the control lane and every shard lane: a control
// event, or any item while parallelOK vetoes, is stepped single-
// threaded (at equal times control sorts first — entity 0); otherwise
// all lanes concurrently run their items in [m, min(m+W, next control
// event, t]] and meet at a barrier, where cross-lane deliveries
// buffered in the window are merged into their destination queues. The
// choice is re-made at every step, so an observer or impairment a
// control event attaches mid-run takes effect at once, and it is
// invisible in every output byte.
func (n *Network) RunUntil(t time.Duration) {
	if len(n.lanes) == 1 {
		n.sched.RunUntil(t)
		return
	}
	var wg sync.WaitGroup
	for {
		best, at, _ := n.peekMin()
		if best == nil || at > t {
			break
		}
		if best == n.sched || !n.parallelOK() {
			// The control clock follows every single-threaded step so
			// global observers (trace stamps, drop hooks, the event
			// log's Record) read the right virtual time whichever lane
			// the item ran on.
			n.sched.now = at
			best.step(best.peek())
			continue
		}
		end := at + n.lookahead
		if ctl := n.sched.peek(); ctl != nil && ctl.at < end {
			// Windows never span a control event: link state and
			// experiment phases must interleave at their exact global
			// position.
			end = ctl.at
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
	// Every lane's clock moves to t and reads idle (every queue release
	// stamped ≤ t has matured), and deferred telemetry surfaces — the
	// multi-lane mirror of Scheduler.RunUntil's epilogue.
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

// parallelOK reports whether a parallel window may open: a positive
// lookahead and no observer or impairment that needs the total global
// event order.
func (n *Network) parallelOK() bool {
	return n.lookahead > 0 &&
		n.trace == nil &&
		n.impaired == 0 &&
		!n.events.HasTap()
}

// peekMin returns the lane with the globally earliest pending (at,
// key), including the control lane; nil when everything is drained.
func (n *Network) peekMin() (best *Scheduler, bAt time.Duration, bKey uint64) {
	if e := n.sched.peek(); e != nil {
		best, bAt, bKey = n.sched, e.at, e.key
	}
	for _, lane := range n.lanes {
		e := lane.peek()
		if e == nil {
			continue
		}
		if best == nil || e.at < bAt || (e.at == bAt && e.key < bKey) {
			best, bAt, bKey = lane, e.at, e.key
		}
	}
	return best, bAt, bKey
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
