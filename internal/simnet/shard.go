package simnet

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/topology"
)

// This file is the sharded execution engine. A world built with
// WithShards(N>1) runs on N workers and is partitioned by
// topology.PartitionRegions into 2N regions (at most one per core);
// each region's nodes, and every link direction whose sender is in the
// region, live on one scheduler lane. Lanes advance in
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
//     not of lane interleaving. Each counter has one writer: the
//     control and node counters sit in the lanes' shared ents array, a
//     link direction's in its own dirState, beside the queue state its
//     sender writes anyway.
//   - Each lane dispatches its own events in (at, key) order in every
//     mode. Cross-lane arrivals carry at ≥ window end; they wait in an
//     inbox per (sender, receiver) pair, which the receiving lane
//     empties into its own queue at the start of the next window,
//     before it runs anything. So within a window each lane sees
//     exactly the event set the serialized run would have given it.
//   - Control events (entity 0) sort below all data keys at equal
//     times and run single-threaded between windows, so failures,
//     repairs, detections and experiment phases interleave with the
//     data plane in one global order. Before any single-threaded step,
//     and before RunUntil returns, the caller empties every inbox
//     itself: control callbacks, observers and Pending see whole
//     queues.
//   - Per-hop telemetry accumulates in lane-owned cells and is folded
//     into the shared registry single-threaded, between windows; the
//     folds are commutative (counter adds, bucketed histogram merges
//     of integral sums), and data-plane event-log records are
//     canonically sorted on export, so concurrent windows produce the
//     same observable bytes as the serialized order.
//
// Workers pull lanes: for the length of one RunUntil the caller and
// N−1 worker goroutines — started by the first window, parked on a
// channel between windows — are the crew, and in every window each of
// them draws lane indexes from one counter and runs the lanes it draws
// until none is left. A lane runs on exactly one goroutine per window
// and takes its own mail first, whichever goroutine that is. Lanes
// outnumber workers two to one, so the barrier waits for the last lane
// to finish, not for the busier half of the world: a worker that drew
// a light lane, or woke after the caller had started, takes up what is
// left. Which goroutine ran which lane reaches no output byte.
//
// Observers that demand the total global order — the flight recorder,
// the drop hook, the event-log tap — and gray impairments (whose RNG
// draw order is defined by the global event order) veto windows: while
// one is attached the driver steps the global (at, key) minimum on one
// goroutine instead — same lanes, same keys, the identical dispatch
// sequence, just without the parallelism.

// never is the time of an empty inbox's earliest delivery.
const never = time.Duration(math.MaxInt64)

// inbox holds the cut-link deliveries one lane sent another during one
// window, until the receiver takes them at the start of the next.
type inbox struct {
	msgs []outMsg
	min  time.Duration // earliest msgs[i].at
	// Neighbouring inboxes belong to different lane pairs; the pad
	// keeps each on a cache line of its own.
	_ [32]byte
}

// outMsg is one buffered cross-lane delivery.
type outMsg struct {
	at  time.Duration
	key uint64
	d   delivery
}

// RunUntil advances the whole world (all shard lanes plus the control
// plane) to virtual time t. With one shard it is exactly
// Scheduler.RunUntil. With several, one loop looks at the global (at,
// key) minimum across the control lane, every shard lane and the
// inboxes: a control event, or any item while parallelOK vetoes, is
// stepped single-threaded (at equal times control sorts first — entity
// 0); otherwise all lanes concurrently run their items in [m, min(m+W,
// next control event, t]] on the crew's workers and meet at a barrier.
// The choice is re-made at every step, so an observer or impairment a
// control event attaches mid-run takes effect at once, and it is
// invisible in every output byte.
func (n *Network) RunUntil(t time.Duration) {
	if len(n.lanes) == 1 {
		n.sched.RunUntil(t)
		return
	}
	var c *crew
	// Workers never outlive the call, whether it returns or unwinds a
	// lane's panic.
	defer func() { c.stop() }()
	for {
		best, at := n.peekMin()
		if at > t && n.inboxAt > t {
			break
		}
		if (best == n.sched && at <= n.inboxAt) || !n.parallelOK() {
			if n.inboxAt != never {
				n.takeAllMail()
				continue
			}
			// The control clock follows every single-threaded step so
			// global observers (trace stamps, drop hooks, the event
			// log's Record) read the right virtual time whichever lane
			// the item ran on.
			n.sched.now = at
			best.step(best.peek())
			continue
		}
		end := min(at, n.inboxAt) + n.lookahead
		if ctl := n.sched.peek(); ctl != nil && ctl.at < end {
			// Windows never span a control event: link state and
			// experiment phases must interleave at their exact global
			// position.
			end = ctl.at
		}
		if end > t {
			end = t + 1 // t itself is inside the run
		}
		if c == nil {
			c = n.hire()
		}
		n.window(c, end)
	}
	n.takeAllMail()
	// Every lane's clock moves to t and reads idle (every queue release
	// stamped ≤ t has matured), and deferred telemetry surfaces — the
	// multi-lane mirror of Scheduler.RunUntil's epilogue.
	n.sched.now = t
	n.sched.curKey = idleKey
	n.sched.pkts.Spill()
	for _, lane := range n.lanes {
		if lane.now < t {
			lane.now = t
		}
		lane.curKey = idleKey
		lane.pkts.Spill()
	}
	n.flushCounters()
}

// window runs every lane's items before end on c's workers — the
// caller among them — and waits until all of them have run. A lane's
// panic on a worker goroutine is raised here, on the caller, once the
// window is over.
func (n *Network) window(c *crew, end time.Duration) {
	n.inWindow, n.sched.denyPost = true, true
	c.end = end
	c.left.Store(int32(len(n.lanes)))
	c.next.Store(0)
	for _, wake := range c.wake {
		select {
		case wake <- struct{}{}:
		default: // still holds a wake-up it has not taken
		}
	}
	c.pull()
	<-c.done
	if c.fault != nil {
		panic(c.fault)
	}
	n.inWindow, n.sched.denyPost = false, false
	// What the senders just filled is the next window's mail.
	n.inboxAt = never
	for i := range n.boxes[n.fill] {
		if b := &n.boxes[n.fill][i]; len(b.msgs) > 0 && b.min < n.inboxAt {
			n.inboxAt = b.min
		}
	}
	n.fill ^= 1
}

// runLane is lane i's share of a window: it takes the mail other lanes
// sent it during the last one, then runs its items before end.
func (n *Network) runLane(i int, end time.Duration) {
	n.takeMail(i)
	n.lanes[i].runWindow(end)
}

// takeMail moves the deliveries waiting in lane i's inboxes into its
// queue; order by (at, key) makes the order of the moves irrelevant.
func (n *Network) takeMail(i int) {
	lane, boxes := n.lanes[i], n.boxes[n.fill^1]
	for _, b := range n.mail[i] {
		box := &boxes[b]
		for j := range box.msgs {
			m := &box.msgs[j]
			lane.deliverAt(m.at, m.key, m.d)
			box.msgs[j] = outMsg{} // no stale packet pins
		}
		box.msgs = box.msgs[:0]
	}
}

// takeAllMail empties every inbox from the calling goroutine, between
// windows.
func (n *Network) takeAllMail() {
	if n.inboxAt == never {
		return
	}
	for i := range n.lanes {
		n.takeMail(i)
	}
	n.inboxAt = never
}

// openMail gives every cut direction the inbox of its (sending lane,
// receiving lane) pair, and every lane the list of inboxes addressed to
// it. The first parallel window opens them: a world that never runs one
// pays nothing.
func (n *Network) openMail() {
	pairs := make(map[[2]int]int)
	n.mail = make([][]int, len(n.lanes))
	for _, line := range n.lines {
		for d := range line.dirs {
			ds := &line.dirs[d]
			if ds.lane == ds.dstLane {
				continue
			}
			src := line.link.A()
			if d == 1 {
				src = line.link.B()
			}
			pair := [2]int{n.nodeLane[src.Index()], n.nodeLane[ds.dst.Index()]}
			b, ok := pairs[pair]
			if !ok {
				b = len(pairs)
				pairs[pair] = b
				n.mail[pair[1]] = append(n.mail[pair[1]], b)
			}
			ds.box = b
		}
	}
	n.boxes[0], n.boxes[1] = make([]inbox, len(pairs)), make([]inbox, len(pairs))
}

// lanesPerWorker is how many regions a sharded world is cut into per
// worker. Lanes outnumber workers so that, inside a window, a worker
// that drew a light lane or woke late takes up what is left instead of
// the barrier waiting for the busiest region.
const lanesPerWorker = 2

// crew is a sharded world's workers for the length of one RunUntil: the
// caller and Shards()−1 goroutines, started by the first window and
// parked between windows. In a window every worker draws lane indexes
// from one counter and runs each lane it draws, until none is left: a
// lane runs on exactly one goroutine per window, though not always the
// same one, and whoever runs the window's last lane ends it.
type crew struct {
	n     *Network
	end   time.Duration   // the current window's end
	next  atomic.Int32    // the next lane index to draw
	left  atomic.Int32    // the window's lanes not yet run
	done  chan struct{}   // one signal per window, from its last lane
	wake  []chan struct{} // one per goroutine worker, capacity 1
	fault any             // the first lane panic a goroutine worker recovered
	once  sync.Once       // guards fault
	// exited counts the goroutine workers still running.
	exited sync.WaitGroup
}

// hire starts the goroutine workers of a sharded world, opening the
// inboxes on the world's first window.
func (n *Network) hire() *crew {
	if n.boxes[0] == nil {
		n.openMail()
	}
	c := &crew{
		n: n,
		// Sized so that the caller, when it runs the window's last lane
		// itself, signals the barrier it is about to wait at.
		done: make(chan struct{}, 1),
		wake: make([]chan struct{}, n.workers-1),
	}
	for i := range c.wake {
		wake := make(chan struct{}, 1)
		c.wake[i] = wake
		c.exited.Add(1)
		go func() {
			defer c.exited.Done()
			for range wake {
				c.serve()
			}
		}()
	}
	return c
}

// pull runs lanes of the current window until there is none left to
// draw. A worker that wakes after the others drew every lane draws an
// index past the end and goes back to sleep; one that draws after the
// next window opened is a worker of that window.
func (c *crew) pull() {
	for {
		i := int(c.next.Add(1)) - 1
		if i >= len(c.n.lanes) {
			return
		}
		c.n.runLane(i, c.end)
		c.ran()
	}
}

// ran counts a lane of the window as run; the last one ends the window.
func (c *crew) ran() {
	if c.left.Add(-1) == 0 {
		c.done <- struct{}{}
	}
}

// serve is pull on a goroutine worker: a lane's panic is recovered and
// handed to the caller, which raises it when the window is over, so
// that every lane's panic unwinds the same RunUntil whichever goroutine
// drew the lane.
func (c *crew) serve() {
	defer func() {
		if p := recover(); p != nil {
			c.once.Do(func() { c.fault = p })
			c.ran()
		}
	}()
	c.pull()
}

// stop ends the goroutine workers and waits until they have exited. A
// nil crew (no window opened) has nothing to stop.
func (c *crew) stop() {
	if c == nil {
		return
	}
	for _, wake := range c.wake {
		close(wake)
	}
	c.exited.Wait()
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

// peekMin returns the queue holding the globally earliest pending (at,
// key), including the control lane, and that entry's time; nil and
// never when every queue is empty. Inboxes are not looked at.
func (n *Network) peekMin() (best *Scheduler, at time.Duration) {
	at = never
	var key uint64
	if e := n.sched.peek(); e != nil {
		best, at, key = n.sched, e.at, e.key
	}
	for _, lane := range n.lanes {
		e := lane.peek()
		if e == nil {
			continue
		}
		if best == nil || e.at < at || (e.at == at && e.key < key) {
			best, at, key = lane, e.at, e.key
		}
	}
	return best, at
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
