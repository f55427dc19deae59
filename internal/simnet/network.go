package simnet

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/packet"
	"repro/internal/rns"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Handler consumes packets delivered to a node. Implementations are
// the simulated switch and edge types.
type Handler interface {
	// HandlePacket processes a packet arriving on inPort at the
	// node's current virtual time.
	HandlePacket(pkt *packet.Packet, inPort int)
}

// DropReason classifies packet losses.
type DropReason int

const (
	// DropNoPort: the chosen output port has no link attached.
	DropNoPort DropReason = iota + 1
	// DropLinkDown: the output link is administratively down.
	DropLinkDown
	// DropQueueFull: tail drop at a full transmission queue.
	DropQueueFull
	// DropInFlight: the link failed while the packet was in flight.
	DropInFlight
	// DropTTL: the packet's TTL reached zero.
	DropTTL
	// DropNoViablePort: the deflection policy found no usable port.
	DropNoViablePort
	// DropGray: a gray-failure impairment silently discarded the packet
	// in transit (distinct from queue and in-flight drops: the link is
	// nominally up and nobody detects anything).
	DropGray

	// dropReasonCount bounds the per-reason counter cache.
	dropReasonCount
)

func (r DropReason) String() string {
	switch r {
	case DropNoPort:
		return "no-port"
	case DropLinkDown:
		return "link-down"
	case DropQueueFull:
		return "queue-full"
	case DropInFlight:
		return "in-flight"
	case DropTTL:
		return "ttl"
	case DropNoViablePort:
		return "no-viable-port"
	case DropGray:
		return "gray"
	default:
		return "unknown"
	}
}

// Drop describes one lost packet.
type Drop struct {
	Packet *packet.Packet
	Reason DropReason
	Where  string // node or link name
	At     time.Duration
}

// TraceSink is the causal flight recorder's attachment surface. The
// network itself calls only the transport-level methods (PacketTx,
// PacketDrop, PacketCorrupt); switches and edges call the rest through
// Trace(). Every per-packet method is invoked only for packets with
// Sampled set, so an attached sink costs unsampled traffic one bool
// test per hook. Implementations must copy, never retain, packets.
type TraceSink interface {
	// SampleFlow decides once per injected packet whether its flow is
	// followed; the decision must be a pure function of the flow.
	SampleFlow(flow packet.FlowID) bool
	// PacketInject records ingress encapsulation: the edge, the chosen
	// output port, and the installed route's baseline hop count.
	PacketInject(pkt *packet.Packet, edge string, outPort, baselineHops int)
	// PacketHop records one switch forwarding decision: the modulo-
	// encoded port and the port actually used; cause is empty for an
	// on-path forward, else the deflection cause label.
	PacketHop(pkt *packet.Packet, sw string, inPort, encodedPort, outPort int, cause string)
	// PacketTx records a successful link enqueue: how long the packet
	// waits behind the serializer and its transmission time.
	PacketTx(pkt *packet.Packet, link string, queueWait, txTime time.Duration)
	// PacketDecap records egress decapsulation to a local receiver.
	PacketDecap(pkt *packet.Packet, edge string)
	// PacketReencode records a misdelivered packet re-entering the core
	// with a fresh route ID.
	PacketReencode(pkt *packet.Packet, edge string, outPort int)
	// PacketDrop records a loss (any reason, any layer).
	PacketDrop(d Drop)
	// PacketCorrupt records a gray-failure route-ID bit flip in transit.
	PacketCorrupt(pkt *packet.Packet, link string)
}

// dirState models one direction of a link: a FIFO transmission queue
// feeding a fixed-rate serializer. Counters live in the network's
// telemetry registry (labelled link/dir); the handles are cached here
// to keep the send path off the registry's mutex, and the receiving
// endpoint is resolved once at construction so per-packet delivery
// events carry no closures.
//
// The fields are grouped by who writes them. The first cache line is
// fixed at construction: on a cut direction the receiving lane reads
// it (finishTransit) while the sending lane is busy writing the rest,
// so the two groups must not share a line (layout_test.go pins the
// offsets).
type dirState struct {
	// Receiving endpoint of this direction, fixed by the topology.
	dst     *topology.Node
	dstPort int

	// Sharded execution (see shard.go). lane is the scheduler of the
	// shard owning the *sending* node — the only lane that may post
	// this direction's events; dstLane owns the receiving node. ent is
	// this direction's tie-break entity. noBatch marks directions whose
	// deliveries travel as per-packet queue entries, not train members:
	// every direction of a WithScalarDataPlane world, and cut (cross-
	// shard) directions always, so a delivery there is a self-contained
	// message rather than shared train state. In a 1-shard world lane ==
	// dstLane == the network scheduler.
	lane    *Scheduler
	dstLane *Scheduler
	ent     uint32
	noBatch bool

	// Exception-path counters (atomic registry cells).
	queueDrops    *telemetry.Counter
	inFlightDrops *telemetry.Counter

	// box is a cut direction's inbox index (Network.boxes), set before
	// the world's first parallel window.
	box int

	// Everything below is written per packet, by the sending lane only.
	busyUntil time.Duration
	// keys counts the tie-break keys this direction has stamped: its
	// one writer is the sender, so no other lane's line holds it.
	keys uint64

	// Per-packet counters: cells owned by the sending lane, embedded so
	// a hop writes only lines this direction already owns.
	sentPackets DeferredCounter
	sentBytes   DeferredCounter

	// train is this direction's queue record — one member per packet
	// still holding a queue slot — and, on batched directions, its
	// undelivered transmissions (see train.go).
	train train

	// The serialization time of the last packet size sent (enqueue).
	txSize int
	txTime time.Duration
	_      [32]byte // the next direction starts on a cache line of its own
}

// nextKey stamps this direction's next tie-break key. A direction takes
// two per packet — the queue-slot release, then the delivery — whether
// the delivery is a train member or a queue entry, so tie-break order
// against every other event is identical in both data planes.
func (ds *dirState) nextKey() uint64 {
	ds.keys++
	return uint64(ds.ent)<<entShift | ds.keys
}

// Impairment is a gray-failure model attached to a line: every packet
// that survives transit is independently dropped with DropProb or has
// one bit of its route ID flipped with CorruptProb (modelling a link
// that corrupts headers without failing — the receiving switch then
// forwards by a wrong modulo, exercising invalid-port deflection and
// edge re-encoding). Rand must be the installing injector's own seeded
// source so runs stay deterministic.
type Impairment struct {
	DropProb    float64
	CorruptProb float64
	Rand        *rand.Rand
}

// Line is the live state of one topology link inside a Network.
//
// Down-state is reference counted: every concurrent failure cause
// (scheduled windows, flap generators, switch crashes, the manual
// FailLink hold) takes one hold, and the link is up exactly when no
// holds remain. epoch stamps actual state transitions so delayed
// detection events can recognise that the world moved on under them.
type Line struct {
	// First cache line: what every hop reads. Nothing in the header is
	// written while a parallel window is open (link state changes are
	// control events), so lanes on both sides of a cut link share it
	// read-only.
	net        *Network
	downRefs   int  // outstanding down-holds; up ⇔ downRefs == 0
	manualHold bool // FailLink/RepairLink's dedicated (idempotent) hold
	seenUp     bool // the adjacent switches' *detected* view of the link
	everDown   bool
	lastDownAt time.Duration // most recent failure instant (for in-flight kills)

	// Link attributes cached off the topology (hot-path reads).
	delay    time.Duration
	rate     float64
	queueCap int

	// Gray-failure impairment (nil = healthy line) and its counters.
	imp        *Impairment
	cGrayDrops *telemetry.Counter
	cCorrupted *telemetry.Counter

	link    *topology.Link
	epoch   uint64
	gaugeUp *telemetry.Gauge
	_       [24]byte // dirs start on a cache line of their own

	dirs [2]dirState // 0: A→B, 1: B→A
}

// LineStats is a snapshot of one link's counters, summed over both
// directions.
type LineStats struct {
	SentPackets   int64
	SentBytes     int64
	QueueDrops    int64
	InFlightDrops int64
}

// Network binds a topology to node handlers and simulates packet
// transport. Create with New, Bind a handler per node, then drive the
// Scheduler.
type Network struct {
	sched    *Scheduler
	topo     *topology.Graph
	lines    []*Line   // by topology.Link.Index()
	handlers []Handler // by topology.Node.Index(); nil = unbound
	trace    TraceSink

	// Detection-latency model: how long after an actual link-state
	// transition the adjacent switches' local view (PortUp) follows.
	// Zero (the default) is the paper's instant local detection.
	detectDown time.Duration
	detectUp   time.Duration
	// linkStateHook fires when the *detected* state of a link changes
	// (after the detection delay) — the attachment point for delayed
	// controller failure notifications.
	linkStateHook func(l *topology.Link, up bool)

	// Telemetry: the registry and control-plane event log shared by
	// every component of this world.
	metrics *telemetry.Registry
	events  *telemetry.EventLog

	// Cached counter handles. The two per-hop totals are incremented
	// through one deferred cell per lane (Scheduler.delivered/sends, see
	// defercount.go) and only read through these.
	cDelivered *telemetry.Counter
	cSends     *telemetry.Counter
	cDrops     [dropReasonCount + 1]*telemetry.Counter

	// Sharded execution (see shard.go). lanes[i] is region i's
	// scheduler; with one shard, lanes[0] == sched. nodeLane maps node
	// insertion index → owning lane index; lookahead is the conservative
	// window bound (the minimum propagation delay over cut links);
	// impaired counts lines with an installed gray impairment (their RNG
	// draw order is defined by the global event order, so no window opens
	// while one is installed). inWindow is true exactly while lanes run
	// a parallel window: cross-lane deliveries go through inboxes and
	// telemetry folds wait for the barrier.
	lanes     []*Scheduler
	nodeLane  []int
	lookahead time.Duration
	impaired  int
	inWindow  bool

	// Cross-lane mail (shard.go), opened by the first parallel window:
	// boxes[p][b] is inbox b in parity p, one inbox per (sending lane,
	// receiving lane) pair a cut direction joins; mail[i] lists the
	// inboxes addressed to lane i. A window's senders fill parity fill
	// while its receivers take what the last window left in the other
	// one; inboxAt is the earliest delivery still waiting there, never
	// when there is none.
	boxes   [2][]inbox
	mail    [][]int
	fill    int
	inboxAt time.Duration

	// workers is the number of goroutines that run the lanes' windows,
	// the caller among them (Shards()).
	workers int
}

// Option configures a Network.
type Option func(*netConfig)

type netConfig struct {
	baseLabels []string
	eventCap   int
	detectDown time.Duration
	detectUp   time.Duration
	scalar     bool
	shards     int
}

// WithMetricLabels attaches constant key/value labels to every metric
// of this world's registry (e.g. "policy", "nip") so merged dumps stay
// separable per run configuration.
func WithMetricLabels(kv ...string) Option {
	return func(c *netConfig) { c.baseLabels = append(c.baseLabels, kv...) }
}

// WithEventCapacity bounds the control-plane event log's retention
// (default telemetry.DefaultEventCapacity).
func WithEventCapacity(n int) Option {
	return func(c *netConfig) { c.eventCap = n }
}

// WithDetectionDelay sets the failure-detection latency model: a link
// transition becomes visible to PortUp (and the detection hook) only
// down/up after it actually happens. Before a failure is detected,
// packets keep entering the dead link and black-hole as in-flight
// drops — the realistic pre-detection loss the paper's instant-
// detection evaluation never shows. Zero delays (the default) keep
// detection instantaneous.
func WithDetectionDelay(down, up time.Duration) Option {
	return func(c *netConfig) {
		c.detectDown = down
		c.detectUp = up
	}
}

// WithScalarDataPlane disables packet-train batching: every delivery is
// its own queue entry and takes the handler's plain HandlePacket. Batched
// and scalar runs on the same seed produce byte-identical metric dumps
// and trace exports; scalar mode exists as that oracle and as the perf
// baseline.
func WithScalarDataPlane() Option {
	return func(c *netConfig) { c.scalar = true }
}

// WithShards runs the world on n worker goroutines, the caller among
// them (see shard.go); the world is cut into two regions per worker:
// topology.PartitionRegions assigns every node to a region, each
// region advances on its own scheduler lane, and lanes synchronize
// conservatively with a lookahead window derived from the minimum
// cut-link propagation delay. n is clamped to the core count, and so
// is the region count. n ≤ 1 (the default) is one lane.
// Determinism is unaffected by construction: same seed ⇒ byte-identical
// dumps for every shard count.
func WithShards(n int) Option {
	return func(c *netConfig) { c.shards = n }
}

// dirNames are the "dir" label values of a link's two directions,
// indexed like Line.dirs.
var dirNames = [2]string{"fwd", "rev"}

// New builds a Network over a validated topology. Every topology link
// starts up.
func New(topo *topology.Graph, opts ...Option) *Network {
	var cfg netConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	nodes := topo.Nodes()
	links := topo.Links()
	// Never more workers than cores, and two lanes per worker but
	// never more lanes than cores: every lane holds a core.
	cores := len(topo.CoreNodes())
	workers := max(cfg.shards, 1)
	if workers > cores && cores > 0 {
		workers = cores
	}
	lanes := workers
	if workers > 1 {
		lanes = lanesPerWorker * workers
		if lanes > cores && cores > 0 {
			lanes = cores
		}
	}
	n := &Network{
		topo:       topo,
		lines:      make([]*Line, len(links)),
		handlers:   make([]Handler, len(nodes)),
		metrics:    telemetry.NewRegistry(telemetry.WithBaseLabels(cfg.baseLabels...)),
		detectDown: cfg.detectDown,
		detectUp:   cfg.detectUp,
		workers:    workers,
		inboxAt:    never,
	}
	// Tie-break entity layout: 0 is the control plane, 1..len(nodes)
	// the nodes (per-node timers), then two entities per link (one per
	// direction). All lanes share the control and node counters — each
	// entity is posted to from exactly one lane — so keys depend only on
	// per-entity posting order, never on which lane allocated them; a
	// link direction's counter lives in its dirState.
	ents := make([]uint64, 1+len(nodes))
	n.sched = &Scheduler{ents: ents}
	n.nodeLane = topology.PartitionRegions(topo, lanes)
	n.lanes = make([]*Scheduler, lanes)
	if lanes == 1 {
		// Single lane: the data lane is the control scheduler.
		n.lanes[0] = n.sched
	} else {
		// The control lane of a sharded world only ever holds control
		// events.
		n.sched.Reserve(64)
		for i := range n.lanes {
			n.lanes[i] = &Scheduler{ents: ents}
		}
	}
	n.events = telemetry.NewEventLog(cfg.eventCap, n.sched.Now)
	n.events.SetEvictedCounter(n.metrics.Counter("kar_events_evicted_total"))
	n.metrics.Help("kar_sched_past_events_total", "Events scheduled for an already-elapsed virtual time (clamped to now).")
	n.sched.SetPastEventCounter(n.metrics.Counter("kar_sched_past_events_total"))
	n.metrics.Help("kar_net_delivered_total", "Packets handed to node handlers.")
	n.metrics.Help("kar_net_drops_total", "Packets lost anywhere, by reason.")
	n.metrics.Help("kar_net_sends_total", "Packets submitted to links.")
	n.cDelivered = n.metrics.Counter("kar_net_delivered_total")
	n.cSends = n.metrics.Counter("kar_net_sends_total")
	flush := n.flushCounters
	n.sched.flush = flush
	// Pre-size each lane's front heap from the topology: enough for a
	// few events per link plus headroom, so world start-up never
	// re-grows it (visible as startup allocs in the Fig5 benchmarks).
	for _, lane := range n.lanes {
		lane.Reserve(4*len(links)/lanes + 64)
		lane.flush = flush
		lane.delivered = DeferredCounter{c: n.cDelivered, lane: lane}
		lane.sends = DeferredCounter{c: n.cSends, lane: lane}
	}
	drops := n.metrics.CounterVec("kar_net_drops_total", int(dropReasonCount)-1, func(i int) []string {
		return []string{"reason", DropReason(i + 1).String()}
	})
	for i := range drops {
		n.cDrops[i+1] = &drops[i]
	}
	// The nine per-link series are registered as blocks: one slab of
	// cells per family, indexed by link (and direction), whose labels are
	// built only if somebody reads the family by label — a job that runs
	// and reports totals never pays for 9·links label sets and link-name
	// concatenations.
	linkLabels := func(i int) []string { return []string{"link", links[i].Name()} }
	dirLabels := func(i int) []string {
		return []string{"link", links[i/2].Name(), "dir", dirNames[i%2]}
	}
	gaugeUp := n.metrics.GaugeVec("kar_link_up", len(links), linkLabels)
	sentPackets := n.metrics.CounterVec("kar_link_sent_packets_total", 2*len(links), dirLabels)
	sentBytes := n.metrics.CounterVec("kar_link_sent_bytes_total", 2*len(links), dirLabels)
	queueDrops := n.metrics.CounterVec("kar_link_queue_drops_total", 2*len(links), dirLabels)
	inFlightDrops := n.metrics.CounterVec("kar_link_inflight_drops_total", 2*len(links), dirLabels)
	lineSlab := make([]Line, len(links))
	for li, l := range links {
		line := &lineSlab[li]
		*line = Line{
			net: n, link: l, seenUp: true,
			delay: l.Delay(), rate: l.RateMbps(), queueCap: l.QueuePackets(),
			gaugeUp: &gaugeUp[li],
		}
		line.gaugeUp.Set(1)
		for d := range line.dirs {
			src, dst := l.A(), l.B()
			if d == 1 {
				src, dst = dst, src
			}
			cell := 2*li + d
			line.dirs[d] = dirState{
				dst:           dst,
				dstPort:       l.PortOf(dst),
				lane:          n.laneOf(src),
				dstLane:       n.laneOf(dst),
				ent:           uint32(1 + len(nodes) + cell),
				sentPackets:   n.DeferCounter(src, &sentPackets[cell]),
				sentBytes:     n.DeferCounter(src, &sentBytes[cell]),
				queueDrops:    &queueDrops[cell],
				inFlightDrops: &inFlightDrops[cell],
			}
			ds := &line.dirs[d]
			ds.train.line, ds.train.dir = line, uint8(d)
			ds.noBatch = cfg.scalar
			if ds.lane != ds.dstLane {
				// Cut direction: deliveries cross shards as scalar
				// messages, and its propagation delay bounds the
				// conservative window.
				ds.noBatch = true
				if n.lookahead == 0 || line.delay < n.lookahead {
					n.lookahead = line.delay
				}
			}
		}
		n.lines[li] = line
	}
	return n
}

// Shards returns the number of worker goroutines a sharded RunUntil
// runs on, the caller among them; the world is cut into two regions
// (scheduler lanes) per worker.
func (n *Network) Shards() int { return n.workers }

// Lookahead returns the conservative synchronization bound: the
// minimum propagation delay over links that cross region boundaries
// (zero in a 1-shard world, where no link does).
func (n *Network) Lookahead() time.Duration { return n.lookahead }

// Scheduler returns the network's virtual clock and event queue.
func (n *Network) Scheduler() *Scheduler { return n.sched }

// Topology returns the underlying graph.
func (n *Network) Topology() *topology.Graph { return n.topo }

// Metrics returns the world's telemetry registry. Switches, edges,
// transports and the controller all register their series here.
func (n *Network) Metrics() *telemetry.Registry { return n.metrics }

// Events returns the world's control-plane event log, stamped on the
// virtual clock.
func (n *Network) Events() *telemetry.EventLog { return n.events }

// Bind attaches the handler for a node. All nodes that can receive
// packets must be bound before traffic starts.
func (n *Network) Bind(node *topology.Node, h Handler) {
	n.handlers[node.Index()] = h
}

// SetTraceSink attaches (or, with nil, detaches) the causal flight
// recorder. Exactly one sink can be attached per world.
func (n *Network) SetTraceSink(s TraceSink) { n.trace = s }

// Trace returns the attached flight-recorder sink (nil when none).
// Switches and edges consult it on their own hot paths.
func (n *Network) Trace() TraceSink { return n.trace }

// Drop records a packet loss originating at a node (TTL expiry,
// no-viable-port). Links report their own drops internally. Drop is a
// lifecycle sink: pool-owned packets are recycled here, into the node's
// lane cache, after the trace sink has observed them (sinks must copy,
// never retain).
func (n *Network) Drop(pkt *packet.Packet, reason DropReason, node *topology.Node) {
	n.drop(n.laneOf(node), pkt, reason, node.Name())
}

// drop is Drop on the lane whose event lost the packet; where names the
// node or link.
func (n *Network) drop(lane *Scheduler, pkt *packet.Packet, reason DropReason, where string) {
	// Surface any deferred increments first, so whatever reads metrics
	// at a drop observes identical values under every driver and data
	// plane (a no-op inside a parallel window).
	n.flushCounters()
	n.countDrop(reason)
	if pkt.Sampled && n.trace != nil {
		n.trace.PacketDrop(Drop{Packet: pkt, Reason: reason, Where: where, At: n.sched.now})
	}
	lane.pkts.Put(pkt)
}

// countDrop bumps the per-reason drop counter; Dropped() sums these,
// so total and by-reason bookkeeping can never disagree.
func (n *Network) countDrop(reason DropReason) {
	if reason > 0 && reason < dropReasonCount {
		n.cDrops[reason].Inc()
		return
	}
	n.metrics.Counter("kar_net_drops_total", "reason", reason.String()).Inc()
}

// PortUp reports whether node's port i exists and its link is seen as
// up — the switch-local failure detection of the paper (a switch
// "realizes a link failure" on its own ports, with no control-plane
// round trip). Under a detection-latency model this is the *detected*
// state, which lags the physical one: a freshly dead link still reads
// up here, and packets routed into it black-hole.
func (n *Network) PortUp(node *topology.Node, i int) bool {
	l, ok := node.PortLink(i)
	if !ok {
		return false
	}
	return n.lines[l.Index()].seenUp
}

// Send transmits pkt out of node's port i: FIFO queueing, fixed-rate
// serialization, propagation delay, then delivery to the neighbour's
// handler. Losses are recorded, never returned — the data plane has
// nobody to report to.
func (n *Network) Send(node *topology.Node, i int, pkt *packet.Packet) {
	line, dir := n.LineAt(node, i)
	if line == nil {
		lane := n.laneOf(node)
		lane.sends.Inc()
		n.drop(lane, pkt, DropNoPort, fmt.Sprintf("%s:%d", node.Name(), i))
		return
	}
	n.SendOnLine(line, dir, pkt)
}

// LineAt resolves a node's port to its live line and sending
// direction; nil when no link is attached. Switches cache the result
// per port so their batched fast path never re-walks the topology.
func (n *Network) LineAt(node *topology.Node, i int) (*Line, uint8) {
	l, ok := node.PortLink(i)
	if !ok {
		return nil, 0
	}
	line := n.lines[l.Index()]
	var dir uint8
	if l.B() == node {
		dir = 1
	}
	return line, dir
}

// SeenUp reports the adjacent switches' detected view of the line —
// the value PortUp resolves to, for callers that cache LineAt's result.
func (l *Line) SeenUp() bool { return l.seenUp }

// SendOnLine is Send with the port already resolved to its (line,
// direction) — the batched switch pipeline's exit path, and the tail
// of Send.
func (n *Network) SendOnLine(line *Line, dir uint8, pkt *packet.Packet) {
	lane := line.dirs[dir].lane
	lane.sends.Inc()
	if line.downRefs > 0 && !line.seenUp {
		// The sending switch has detected the failure: local drop. While
		// the failure is still undetected the packet is accepted and
		// black-holes in flight instead.
		n.drop(lane, pkt, DropLinkDown, line.link.Name())
		return
	}
	n.enqueue(line, int(dir), pkt)
}

// enqueue queues pkt on one link direction: the tail-drop check against
// the direction's queue record, FIFO serialization, then a member
// append. On a batched direction the member is also the delivery (the
// train's queue entry dispatches it); on a noBatch direction it only
// holds the queue slot, and the delivery is a queue entry of its own —
// on a cut link routed to the receiving shard's lane (buffered in an
// inbox during parallel windows). Both arms bump identical
// counters in identical order and allocate the same two tie-break keys
// from the direction's entity (slot release, then delivery), which is
// what keeps batched and scalar runs byte-identical.
func (n *Network) enqueue(line *Line, dir int, pkt *packet.Packet) {
	ds := &line.dirs[dir]
	lane := ds.lane
	// The current dispatch instant. Usually the owning lane is the
	// dispatcher, but a control-plane callback (a test injecting via
	// Scheduler.At, a fault hook) sends while the lane clock still
	// shows its last data event — there the control clock is ahead
	// and is the truth. Taking the later of the two reproduces the
	// single-scheduler timeline exactly in every execution mode.
	now, cur := lane.now, lane.curKey
	if n.sched != lane && n.sched.now > now {
		now, cur = n.sched.now, n.sched.curKey
	}
	tr := &ds.train
	line.drainDeq(tr, now, cur)
	if ds.noBatch {
		// Nothing is delivered out of this ring: a released member is
		// a dead one.
		if tr.head = tr.deqHead; tr.head == len(tr.members) {
			tr.reset()
		}
	}
	tr.compact()
	if tr.pendingQueue() >= line.queueCap {
		ds.queueDrops.Inc()
		n.drop(lane, pkt, DropQueueFull, line.link.Name())
		return
	}

	// The last size's serialization time is remembered: a hop divides
	// only when the size changes. Counted per hop, that was never after a
	// direction's first packet on the CBR and flow-set workloads, and on
	// 2.4 % of hops where TCP segments and ACKs share a direction
	// (EXPERIMENTS.md, "A healthy hop pays for its modulo"). The zero
	// memo is exact too — a zero-byte packet serializes in no time.
	if pkt.Size != ds.txSize {
		ds.txSize, ds.txTime = pkt.Size, transmissionTime(pkt.Size, line.rate)
	}
	txTime := ds.txTime
	start := ds.busyUntil
	if start < now {
		start = now
	}
	done := start + txTime
	ds.busyUntil = done
	ds.sentPackets.Inc()
	ds.sentBytes.Add(int64(pkt.Size))
	if pkt.Sampled && n.trace != nil {
		n.trace.PacketTx(pkt, line.link.Name(), start-now, txTime)
	}

	at := done + line.delay
	deqKey := ds.nextKey()
	key := ds.nextKey()
	if !ds.noBatch {
		tr.push(at, key, deqKey, start, pkt)
		lane.trainGrew(tr)
		return
	}
	tr.push(at, key, deqKey, start, nil)
	d := delivery{line: line, pkt: pkt, txStart: start, dir: uint8(dir)}
	switch {
	case ds.dstLane == lane:
		lane.deliverAt(at, key, d)
	case n.inWindow:
		// Parallel window: lanes may not touch each other's queues.
		// The pair's inbox holds the delivery until the receiver takes
		// it at the start of the next window. The lookahead bound
		// guarantees at lands at or after this window's end, so the
		// receiver cannot have passed it.
		b := &n.boxes[n.fill][ds.box]
		if len(b.msgs) == 0 || at < b.min {
			b.min = at
		}
		b.msgs = append(b.msgs, outMsg{at: at, key: key, d: d})
	default:
		// Between windows: push directly.
		ds.dstLane.deliverAt(at, key, d)
	}
}

// transit decides the fate of a packet completing its flight on one
// direction of l: it dies if the link failed at any point after its
// transmission began, and otherwise runs the line's gray-failure
// impairment, if any. alive is false when the packet was dropped (and
// released); intact is false when its route ID no longer is the one
// that was sent.
func (l *Line) transit(ds *dirState, pkt *packet.Packet, txStart time.Duration) (alive, intact bool) {
	if l.downRefs > 0 || (l.everDown && l.lastDownAt >= txStart) {
		ds.inFlightDrops.Inc()
		l.net.drop(ds.dstLane, pkt, DropInFlight, l.link.Name())
		return false, false
	}
	if imp := l.imp; imp != nil {
		r := imp.Rand.Float64()
		switch {
		case r < imp.DropProb:
			l.cGrayDrops.Inc()
			l.net.drop(ds.dstLane, pkt, DropGray, l.link.Name())
			return false, false
		case r < imp.DropProb+imp.CorruptProb:
			return l.corrupt(ds, pkt, imp.Rand), false
		}
	}
	return true, true
}

// finishTransit completes one delivery entry: transit, then the endpoint
// precomputed for this direction.
func (l *Line) finishTransit(pkt *packet.Packet, dir int, txStart time.Duration) {
	ds := &l.dirs[dir]
	if alive, _ := l.transit(ds, pkt, txStart); alive {
		l.net.Deliver(pkt, ds.dst, ds.dstPort)
	}
}

// corrupt flips one random bit of the packet's route ID — the
// receiving switch will compute a wrong (possibly invalid) output
// port, which is exactly the failure mode KAR's deflection and edge
// re-encoding must absorb. The flip is confined to the ID's wire width
// (ByteLen bytes): a header on the wire has no bits above it, so
// corruption must not grow the ID's marshalled size mid-flight or
// conjure values past the route's modulus range. Wide (multi-word)
// route IDs and zero-width IDs fall back to a gray drop: the flip
// would land in heap-shared big.Int words, or there is no wire bit to
// flip.
func (l *Line) corrupt(ds *dirState, pkt *packet.Packet, rng *rand.Rand) bool {
	u, ok := pkt.RouteID.Uint64()
	width := pkt.RouteID.ByteLen() * 8
	if !ok || width == 0 {
		l.cGrayDrops.Inc()
		l.net.drop(ds.dstLane, pkt, DropGray, l.link.Name())
		return false
	}
	l.cCorrupted.Inc()
	pkt.RouteID = rns.RouteIDFromUint64(u ^ (1 << uint(rng.Intn(width))))
	if pkt.Sampled && l.net.trace != nil {
		l.net.trace.PacketCorrupt(pkt, l.link.Name())
	}
	return true
}

// SetImpairment installs (or, with nil, removes) a gray-failure
// impairment on a link. The per-link kar_fault_* counters are created
// on first installation so un-impaired worlds keep their exact metric
// surface.
func (n *Network) SetImpairment(l *topology.Link, imp *Impairment) {
	line := n.lines[l.Index()]
	if imp != nil && line.cGrayDrops == nil {
		n.metrics.Help("kar_fault_gray_drops_total", "Packets silently discarded by a gray-failure impairment, by link.")
		n.metrics.Help("kar_fault_corrupted_total", "Packets whose route ID a gray-failure impairment bit-flipped, by link.")
		line.cGrayDrops = n.metrics.Counter("kar_fault_gray_drops_total", "link", l.Name())
		line.cCorrupted = n.metrics.Counter("kar_fault_corrupted_total", "link", l.Name())
	}
	// Track how many lines are impaired: while any is, a sharded world
	// opens no parallel window, because gray RNG draws must happen in
	// the global event order (see shard.go).
	switch {
	case imp != nil && line.imp == nil:
		n.impaired++
	case imp == nil && line.imp != nil:
		n.impaired--
	}
	line.imp = imp
}

// Deliver hands a packet to a node's handler immediately: the endpoint
// of a noBatch direction's delivery (finishTransit), of a train member
// whose endpoint is unbound, and of tests injecting a packet.
func (n *Network) Deliver(pkt *packet.Packet, dst *topology.Node, inPort int) {
	h := n.handlers[dst.Index()]
	if h == nil {
		n.Drop(pkt, DropNoPort, dst)
		return
	}
	pkt.Hops++
	n.laneOf(dst).delivered.Inc()
	h.HandlePacket(pkt, inPort)
}

// transmissionTime returns size bytes at rate Mb/s as a duration.
func transmissionTime(size int, rateMbps float64) time.Duration {
	return time.Duration(float64(size*8) / rateMbps * float64(time.Microsecond))
}

// SetLinkDetectionHook registers a callback fired whenever a link's
// *detected* state changes (after any configured detection delay) —
// the attachment point for delayed controller notifications. Pass nil
// to disable.
//
// Reentrancy contract: the hook is dispatched as its own scheduler
// event at the instant of detection, never from inside a link-state
// transition. By the time it runs, the network has finished the
// transition (and any batch it was part of, e.g. a switch crash
// taking every port down at once), so the hook may freely call back
// into the Network — PortUp, AcquireLinkDown/ReleaseLinkDown,
// FailLink/RepairLink, or a controller reroute — without observing
// half-applied state or recursing into the dispatch path. Hooks run
// on the simulation goroutine in detection order; virtual timestamps
// are unchanged by the deferral.
func (n *Network) SetLinkDetectionHook(fn func(l *topology.Link, up bool)) {
	n.linkStateHook = fn
}

// AcquireLinkDown takes one down-hold on a link. The link goes
// physically down on the first hold and stays down until every hold is
// released, so overlapping failure windows compose instead of the
// earlier window's repair re-raising a link a later window still
// claims.
func (n *Network) AcquireLinkDown(l *topology.Link) { n.acquireDown(n.lines[l.Index()]) }

// ReleaseLinkDown releases one down-hold; the link comes back up when
// the last hold is gone. Releasing with no holds outstanding is a
// no-op.
func (n *Network) ReleaseLinkDown(l *topology.Link) { n.releaseDown(n.lines[l.Index()]) }

func (n *Network) acquireDown(line *Line) {
	line.downRefs++
	if line.downRefs > 1 {
		return
	}
	line.everDown = true
	line.lastDownAt = n.sched.now
	line.epoch++
	line.gaugeUp.Set(0)
	n.events.Record(telemetry.EventLinkFail, line.link.Name(), "")
	if n.detectDown <= 0 {
		n.setDetected(line, false)
		return
	}
	epoch := line.epoch
	n.sched.After(n.detectDown, func() {
		// Only detect if the link did not transition again meanwhile
		// (a sub-detection-latency flap is never seen at all).
		if line.epoch == epoch && line.downRefs > 0 {
			n.setDetected(line, false)
		}
	})
}

func (n *Network) releaseDown(line *Line) {
	if line.downRefs == 0 {
		return
	}
	line.downRefs--
	if line.downRefs > 0 {
		return
	}
	line.epoch++
	line.gaugeUp.Set(1)
	n.events.Record(telemetry.EventLinkRepair, line.link.Name(), "")
	if n.detectUp <= 0 {
		n.setDetected(line, true)
		return
	}
	epoch := line.epoch
	n.sched.After(n.detectUp, func() {
		if line.epoch == epoch && line.downRefs == 0 {
			n.setDetected(line, true)
		}
	})
}

// setDetected flips the switches' local view of a line and fires the
// detection hook. Detection events and counters appear only when a
// latency model is active, keeping zero-delay worlds' telemetry
// surface unchanged.
func (n *Network) setDetected(line *Line, up bool) {
	if line.seenUp == up {
		return
	}
	line.seenUp = up
	if n.detectDown > 0 || n.detectUp > 0 {
		kind, state := telemetry.EventLinkDetectDown, "down"
		if up {
			kind, state = telemetry.EventLinkDetectUp, "up"
		}
		n.events.Record(kind, line.link.Name(), "")
		n.metrics.Help("kar_fault_detections_total", "Delayed link-state detections by the adjacent switches, by resulting state.")
		n.metrics.Counter("kar_fault_detections_total", "state", state).Inc()
	}
	if n.linkStateHook != nil {
		// Deliver as a fresh scheduler event at the same virtual
		// instant: the hook must never run mid-transition (see the
		// SetLinkDetectionHook reentrancy contract), and acquireDown/
		// releaseDown callers may still be inside a multi-link batch.
		link := line.link
		n.sched.At(n.sched.now, func() {
			if n.linkStateHook != nil {
				n.linkStateHook(link, up)
			}
		})
	}
}

// FailLink takes a link down; queued and in-flight packets die. It is
// idempotent: it owns a single dedicated down-hold, so calling it
// twice needs only one RepairLink, and it composes with holds taken by
// scheduled windows or fault injectors.
func (n *Network) FailLink(l *topology.Link) {
	line := n.lines[l.Index()]
	if line.manualHold {
		return
	}
	line.manualHold = true
	n.acquireDown(line)
}

// RepairLink releases FailLink's hold; the link comes back up unless
// other holds (overlapping failure windows, injectors) remain.
func (n *Network) RepairLink(l *topology.Link) {
	line := n.lines[l.Index()]
	if !line.manualHold {
		return
	}
	line.manualHold = false
	n.releaseDown(line)
}

// ScheduleFailure fails the link during [from, from+duration). Each
// window owns its own down-hold: overlapping windows on the same link
// keep it down until the last one ends. A non-positive duration means
// the hold is never released — the link stays down for the rest of
// the run (it used to schedule an immediate release, turning "fail
// forever" into a same-instant blip).
func (n *Network) ScheduleFailure(l *topology.Link, from, duration time.Duration) {
	n.sched.At(from, func() { n.AcquireLinkDown(l) })
	if duration > 0 {
		n.sched.At(from+duration, func() { n.ReleaseLinkDown(l) })
	}
}

// LineStats returns a link's counters, read back from the registry.
func (n *Network) LineStats(l *topology.Link) LineStats {
	line := n.lines[l.Index()]
	var s LineStats
	for d := range line.dirs {
		s.SentPackets += line.dirs[d].sentPackets.Value()
		s.SentBytes += line.dirs[d].sentBytes.Value()
		s.QueueDrops += line.dirs[d].queueDrops.Value()
		s.InFlightDrops += line.dirs[d].inFlightDrops.Value()
	}
	return s
}

// Delivered returns the total packets handed to handlers, including
// every lane's not yet folded share.
func (n *Network) Delivered() int64 {
	v := n.cDelivered.Value()
	for _, lane := range n.lanes {
		v += lane.delivered.Pending()
	}
	return v
}

// Dropped returns the total packets lost anywhere: the sum of the
// per-reason drop counters (there is no separate total to fall out of
// sync with).
func (n *Network) Dropped() int64 { return n.metrics.SumCounter("kar_net_drops_total") }
