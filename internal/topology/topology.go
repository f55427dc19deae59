// Package topology models KAR network topologies: nodes with indexed
// ports, links with rate/delay/queue attributes, and the three
// topologies evaluated in the paper (the Fig. 1 six-node example, the
// Fig. 2 15-node network, and the Fig. 6 RNP 28-node backbone).
//
// Port indexes are the values the RNS route encoding addresses
// (output port = route ID mod switch ID), so they are first-class
// here: every link records the port it occupies on each endpoint, and
// validation guarantees each core switch ID exceeds its highest port
// index.
package topology

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/rns"
	"repro/internal/slab"
)

// Kind discriminates node roles.
type Kind int

const (
	// KindCore is a KAR core switch: stateless, forwards by modulo.
	KindCore Kind = iota + 1
	// KindEdge is a KAR edge node: attaches/removes route IDs and
	// terminates traffic in the experiments.
	KindEdge
)

func (k Kind) String() string {
	switch k {
	case KindCore:
		return "core"
	case KindEdge:
		return "edge"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Validation errors.
var (
	ErrDuplicateNode = errors.New("topology: duplicate node name")
	ErrUnknownNode   = errors.New("topology: unknown node")
	ErrSelfLoop      = errors.New("topology: self loop")
	ErrDuplicateLink = errors.New("topology: duplicate link")
	ErrPortInUse     = errors.New("topology: port already in use")
	ErrIDTooSmall    = errors.New("topology: switch ID not greater than max port index")
	ErrDisconnected  = errors.New("topology: graph is not connected")
	ErrNoCoreID      = errors.New("topology: core node without switch ID")
)

// Node is a switch or edge node. Create nodes through Graph methods.
type Node struct {
	name  string
	kind  Kind
	id    uint64 // switch ID; 0 for edge nodes
	idx   int    // insertion index, for deterministic iteration
	ports []*Link
}

// Name returns the node name (e.g. "SW7", "AS1").
func (n *Node) Name() string { return n.name }

// Kind returns the node role.
func (n *Node) Kind() Kind { return n.kind }

// ID returns the coprime switch ID (0 for edge nodes).
func (n *Node) ID() uint64 { return n.id }

// Index returns the node's stable insertion index within its graph.
func (n *Node) Index() int { return n.idx }

// Degree returns the number of attached links.
func (n *Node) Degree() int {
	d := 0
	for _, l := range n.ports {
		if l != nil {
			d++
		}
	}
	return d
}

// PortSpan returns the size of the port index space (the highest
// attached port index + 1); with pinned ports it can exceed Degree.
func (n *Node) PortSpan() int { return len(n.ports) }

// PortLink returns the link attached at port index i.
func (n *Node) PortLink(i int) (*Link, bool) {
	if i < 0 || i >= len(n.ports) || n.ports[i] == nil {
		return nil, false
	}
	return n.ports[i], true
}

// Neighbor returns the node on the other side of port i.
func (n *Node) Neighbor(i int) (*Node, bool) {
	l, ok := n.PortLink(i)
	if !ok {
		return nil, false
	}
	return l.Other(n), true
}

// PortToward returns the port index whose link leads to the named
// neighbour.
func (n *Node) PortToward(neighbor string) (int, bool) {
	for i, l := range n.ports {
		if l != nil && l.Other(n).name == neighbor {
			return i, true
		}
	}
	return 0, false
}

// Links returns the attached links in port order.
func (n *Node) Links() []*Link {
	out := make([]*Link, 0, len(n.ports))
	for _, l := range n.ports {
		if l != nil {
			out = append(out, l)
		}
	}
	return out
}

func (n *Node) String() string { return n.name }

// Link is an undirected link between two nodes, occupying one port on
// each. Rate, delay and queue capacity apply per direction.
type Link struct {
	a, b         *Node
	aPort, bPort int
	idx          int // insertion index, for sets of links kept as bitsets
	rateMbps     float64
	delay        time.Duration
	queuePkts    int

	// name is rendered on the first Name call, not at Connect: a
	// 980-switch fat tree has 11 368 links and most runs name a handful.
	nameOnce sync.Once
	name     string
}

// Index returns the link's stable insertion index within its graph:
// g.Links()[l.Index()] == l.
func (l *Link) Index() int { return l.idx }

// A and B return the endpoints in construction order.
func (l *Link) A() *Node { return l.a }

// B returns the second endpoint.
func (l *Link) B() *Node { return l.b }

// Other returns the endpoint opposite n. It panics if n is not an
// endpoint — that is a programming error, not an input error.
func (l *Link) Other(n *Node) *Node {
	switch n {
	case l.a:
		return l.b
	case l.b:
		return l.a
	default:
		panic(fmt.Sprintf("topology: node %s is not an endpoint of link %s", n, l))
	}
}

// PortOf returns the port index the link occupies on n.
func (l *Link) PortOf(n *Node) int {
	switch n {
	case l.a:
		return l.aPort
	case l.b:
		return l.bPort
	default:
		panic(fmt.Sprintf("topology: node %s is not an endpoint of link %s", n, l))
	}
}

// RateMbps returns the link rate in megabits per second.
func (l *Link) RateMbps() float64 { return l.rateMbps }

// Delay returns the one-way propagation delay.
func (l *Link) Delay() time.Duration { return l.delay }

// QueuePackets returns the per-direction queue capacity in packets.
func (l *Link) QueuePackets() int { return l.queuePkts }

// Name returns the canonical "A-B" name used by the paper (e.g.
// "SW7-SW13"). The string is built once, on the first call; graphs from
// Shared are named by many jobs at once, hence the Once.
func (l *Link) Name() string {
	l.nameOnce.Do(func() { l.name = l.a.name + "-" + l.b.name })
	return l.name
}

func (l *Link) String() string { return l.Name() }

// LinkOption configures a link at Connect time.
type LinkOption func(*linkConfig)

type linkConfig struct {
	rateMbps  float64
	delay     time.Duration
	queuePkts int
	aPort     int
	bPort     int
	hasPorts  bool
}

// Defaults mirror the emulated 15-node setup: 200 Mb/s links (the
// paper's nominal iperf ceiling), 1 ms propagation, 100-packet queues.
const (
	DefaultRateMbps     = 200
	DefaultDelay        = time.Millisecond
	DefaultQueuePackets = 100
	// HostQueuePackets is the queue used on host-facing (edge) links,
	// matching a Linux host's default txqueuelen.
	HostQueuePackets = 1000
)

// WithRateMbps sets the link rate in Mb/s.
func WithRateMbps(rate float64) LinkOption {
	return func(c *linkConfig) { c.rateMbps = rate }
}

// WithDelay sets the one-way propagation delay.
func WithDelay(d time.Duration) LinkOption {
	return func(c *linkConfig) { c.delay = d }
}

// WithQueuePackets sets the per-direction queue capacity.
func WithQueuePackets(n int) LinkOption {
	return func(c *linkConfig) { c.queuePkts = n }
}

// WithPorts pins the exact port indexes the link occupies on each
// endpoint (first the node given first to Connect). Without this
// option ports are assigned sequentially.
func WithPorts(aPort, bPort int) LinkOption {
	return func(c *linkConfig) {
		c.aPort, c.bPort, c.hasPorts = aPort, bPort, true
	}
}

// Graph is a mutable topology under construction; most consumers treat
// it as immutable after the builder returns. Not safe for concurrent
// mutation.
type Graph struct {
	name  string
	nodes map[string]*Node
	order []*Node
	links []*Link
	// Nodes, links and port tables are cut from these (sized by build).
	nodeSlab []Node
	linkSlab []Link
	portSlab []*Link
}

// New returns an empty graph with a display name.
func New(name string) *Graph { return newGraph(name, 0, 0, 0) }

// newGraph returns an empty graph with slab room for nodes, links and ports.
func newGraph(name string, nodes, links, ports int) *Graph {
	return &Graph{name: name, nodes: make(map[string]*Node, nodes),
		order: make([]*Node, 0, nodes), links: make([]*Link, 0, links), nodeSlab: make([]Node, 0, nodes),
		linkSlab: make([]Link, 0, links), portSlab: make([]*Link, 0, ports)}
}

// Name returns the topology's display name.
func (g *Graph) Name() string { return g.name }

// AddCore adds a core switch with the given coprime switch ID.
func (g *Graph) AddCore(name string, id uint64) (*Node, error) {
	if id < 2 {
		return nil, fmt.Errorf("core %q id %d: %w", name, id, rns.ErrModulusTooSmall)
	}
	return g.addNode(name, KindCore, id)
}

// AddEdge adds an edge node (no switch ID; it terminates traffic).
func (g *Graph) AddEdge(name string) (*Node, error) {
	return g.addNode(name, KindEdge, 0)
}

func (g *Graph) addNode(name string, kind Kind, id uint64) (*Node, error) {
	if _, ok := g.nodes[name]; ok {
		return nil, fmt.Errorf("%q: %w", name, ErrDuplicateNode)
	}
	n := &slab.Cut(&g.nodeSlab, 1)[0]
	*n = Node{name: name, kind: kind, id: id, idx: len(g.order)}
	g.nodes[name] = n
	g.order = append(g.order, n)
	return n, nil
}

// Connect links two named nodes. Ports are assigned sequentially
// unless pinned with WithPorts.
func (g *Graph) Connect(a, b string, opts ...LinkOption) (*Link, error) {
	na, ok := g.nodes[a]
	if !ok {
		return nil, fmt.Errorf("%q: %w", a, ErrUnknownNode)
	}
	nb, ok := g.nodes[b]
	if !ok {
		return nil, fmt.Errorf("%q: %w", b, ErrUnknownNode)
	}
	cfg := defaultLink
	for _, opt := range opts {
		opt(&cfg)
	}
	return g.connect(na, nb, cfg)
}

// defaultLink is the configuration of a link given no options.
var defaultLink = linkConfig{
	rateMbps:  DefaultRateMbps,
	delay:     DefaultDelay,
	queuePkts: DefaultQueuePackets,
}

// connect is Connect on resolved nodes and a resolved configuration.
func (g *Graph) connect(na, nb *Node, cfg linkConfig) (*Link, error) {
	if na == nb {
		return nil, fmt.Errorf("%q: %w", na.name, ErrSelfLoop)
	}
	if linkBetween(na, nb) != nil {
		return nil, fmt.Errorf("%s-%s: %w", na.name, nb.name, ErrDuplicateLink)
	}
	if !cfg.hasPorts {
		cfg.aPort, cfg.bPort = nextFreePort(na), nextFreePort(nb)
	}
	if err := checkPortFree(na, cfg.aPort); err != nil {
		return nil, err
	}
	if err := checkPortFree(nb, cfg.bPort); err != nil {
		return nil, err
	}

	l := &slab.Cut(&g.linkSlab, 1)[0]
	*l = Link{
		a: na, b: nb,
		aPort: cfg.aPort, bPort: cfg.bPort,
		idx:       len(g.links),
		rateMbps:  cfg.rateMbps,
		delay:     cfg.delay,
		queuePkts: cfg.queuePkts,
	}
	g.attachPort(na, cfg.aPort, l)
	g.attachPort(nb, cfg.bPort, l)
	g.links = append(g.links, l)
	return l, nil
}

func nextFreePort(n *Node) int {
	for i, l := range n.ports {
		if l == nil {
			return i
		}
	}
	return len(n.ports)
}

func checkPortFree(n *Node, port int) error {
	if port < 0 {
		return fmt.Errorf("node %s port %d: negative port", n, port)
	}
	if port < len(n.ports) && n.ports[port] != nil {
		return fmt.Errorf("node %s port %d: %w", n, port, ErrPortInUse)
	}
	return nil
}

// attachPort files l at n's port, moving a table too small to a larger cut.
func (g *Graph) attachPort(n *Node, port int, l *Link) {
	if port >= cap(n.ports) {
		n.ports = append(slab.Cut(&g.portSlab, max(port+1, 2*cap(n.ports)))[:0], n.ports...)
	}
	n.ports = n.ports[:max(len(n.ports), port+1)]
	n.ports[port] = l
}

// Node looks a node up by name.
func (g *Graph) Node(name string) (*Node, bool) {
	n, ok := g.nodes[name]
	return n, ok
}

// Nodes returns all nodes in insertion order (a copy).
func (g *Graph) Nodes() []*Node { return append([]*Node(nil), g.order...) }

// CoreNodes returns core switches in insertion order.
func (g *Graph) CoreNodes() []*Node {
	out := make([]*Node, 0, len(g.order))
	for _, n := range g.order {
		if n.kind == KindCore {
			out = append(out, n)
		}
	}
	return out
}

// EdgeNodes returns edge nodes in insertion order.
func (g *Graph) EdgeNodes() []*Node {
	out := make([]*Node, 0, 4)
	for _, n := range g.order {
		if n.kind == KindEdge {
			out = append(out, n)
		}
	}
	return out
}

// Links returns all links in insertion order (a copy).
func (g *Graph) Links() []*Link { return append([]*Link(nil), g.links...) }

// NumNodes returns the number of nodes: the bound of Node.Index.
func (g *Graph) NumNodes() int { return len(g.order) }

// NumLinks returns the number of links: the bound of Link.Index.
func (g *Graph) NumLinks() int { return len(g.links) }

// LinkBetween finds the link joining two named nodes, in either
// orientation.
func (g *Graph) LinkBetween(a, b string) (*Link, bool) {
	na, nb := g.nodes[a], g.nodes[b]
	if na == nil || nb == nil {
		return nil, false
	}
	l := linkBetween(na, nb)
	return l, l != nil
}

func linkBetween(na, nb *Node) *Link {
	for _, l := range na.ports {
		if l != nil && l.Other(na) == nb {
			return l
		}
	}
	return nil
}

// Validate checks the KAR invariants: pairwise-coprime core IDs, every
// core ID strictly greater than its highest port index (so residues
// can address every port), per-link sanity, and connectivity.
func (g *Graph) Validate() error {
	ids := make([]uint64, 0, len(g.order))
	for _, n := range g.order {
		if n.kind != KindCore {
			continue
		}
		if n.id == 0 {
			return fmt.Errorf("core %s: %w", n, ErrNoCoreID)
		}
		ids = append(ids, n.id)
	}
	if len(ids) > 0 {
		if err := rns.CheckPairwiseCoprime(ids); err != nil {
			return fmt.Errorf("core switch IDs: %w", err)
		}
	}
	for _, n := range g.order {
		if maxPort := len(n.ports) - 1; n.kind == KindCore && maxPort >= 0 && n.id <= uint64(maxPort) {
			return fmt.Errorf("core %s id %d with max port %d: %w", n, n.id, maxPort, ErrIDTooSmall)
		}
	}
	for _, l := range g.links {
		if l.rateMbps <= 0 {
			return fmt.Errorf("link %s: non-positive rate %v", l, l.rateMbps)
		}
		if l.delay < 0 {
			return fmt.Errorf("link %s: negative delay %v", l, l.delay)
		}
		if l.queuePkts <= 0 {
			return fmt.Errorf("link %s: non-positive queue %d", l, l.queuePkts)
		}
	}
	if len(g.order) > 0 && !g.connected() {
		return fmt.Errorf("%s: %w", g.name, ErrDisconnected)
	}
	return nil
}

// connected reports whether every node is reachable from the first,
// by a breadth-first search over a pooled search's forward ball: seen
// marks indexed by Node.Index() and a slice queue, no map.
func (g *Graph) connected() bool {
	s := searchPool.Get().(*pathSearch)
	defer searchPool.Put(s)
	s.begin(len(g.order))
	b := &s.fwd
	b.start(0, s.epoch)
	for k := 0; k < len(b.q); k++ {
		n := g.order[b.q[k]]
		for _, l := range n.ports {
			if l == nil {
				continue
			}
			if oi := l.Other(n).idx; b.at[oi] != s.epoch {
				b.at[oi] = s.epoch
				b.q = append(b.q, int32(oi))
			}
		}
	}
	return len(b.q) == len(g.order)
}

// Summary renders a one-line description.
func (g *Graph) Summary() string {
	return fmt.Sprintf("%s: %d nodes (%d core, %d edge), %d links",
		g.name, len(g.order), len(g.CoreNodes()), len(g.EdgeNodes()), len(g.links))
}

// SwitchIDs returns the sorted core switch IDs.
func (g *Graph) SwitchIDs() []uint64 {
	cores := g.CoreNodes()
	ids := make([]uint64, 0, len(cores))
	for _, n := range cores {
		ids = append(ids, n.id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
