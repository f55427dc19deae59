// Package analysis computes exact (closed-form) properties of KAR
// deflection walks via Markov-chain absorption: delivery probability,
// expected hop counts, and path stretch under a given failure set —
// the quantities the paper reasons about informally in §3.2 ("1/5
// each", "this protection loop will continue until SW109 is
// probabilistically chosen").
//
// The chain's states are (route ID in effect, node, input port,
// deflected flag); transitions follow the deflection policies exactly,
// including misdelivery re-encoding at wrong edges (the controller
// hands the packet a fresh route ID, so the walk continues under a
// different modulus vector). Absorption classes are delivery at the
// destination edge and policy drops. The linear systems are solved by
// Gaussian elimination — state spaces stay small (≈ nodes × ports ×
// 2 per active route).
//
// A policy whose shape has no random fallback (deflect.Shape.Random)
// makes the chain a single trajectory, every state with one successor:
// Analyze follows it under the simulator's TTL instead of solving it.
package analysis

import (
	"errors"
	"fmt"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/deflect"
	"repro/internal/packet"
	"repro/internal/rns"
	"repro/internal/topology"
)

// ErrPolicyUnsupported is returned for policies the analytic model
// does not cover.
var ErrPolicyUnsupported = errors.New("analysis: unsupported policy")

// ErrSingular is returned when the transition system cannot be solved
// (should not happen for well-formed chains).
var ErrSingular = errors.New("analysis: singular transition system")

// Result summarises a walk analysis.
type Result struct {
	// PDeliver is the probability the packet reaches its destination
	// edge (re-encoding at wrong edges included).
	PDeliver float64
	// ExpectedHops is E[link traversals | delivered].
	ExpectedHops float64
	// BaselineHops is the no-failure path length, for stretch.
	BaselineHops int
}

// Stretch returns ExpectedHops / BaselineHops.
func (r Result) Stretch() float64 {
	if r.BaselineHops == 0 {
		return 0
	}
	return r.ExpectedHops / float64(r.BaselineHops)
}

// LinkSet is a set of links of one graph: a bitset over
// topology.Link.Index().
type LinkSet []uint64

// NewLinkSet returns an empty set over g's links.
func NewLinkSet(g *topology.Graph) LinkSet { return make(LinkSet, (g.NumLinks()+63)/64) }

// Add puts l in the set.
func (s LinkSet) Add(l *topology.Link) { s[l.Index()>>6] |= 1 << (l.Index() & 63) }

// Has reports whether l is in the set.
func (s LinkSet) Has(l *topology.Link) bool { return s[l.Index()>>6]&(1<<(l.Index()&63)) != 0 }

// Analyzer owns the topology, a controller (for routes and
// re-encoding), a failure set and the scratch its chains are built in;
// it is not safe for concurrent use.
type Analyzer struct {
	g      *topology.Graph
	ctrl   *controller.Controller
	policy deflect.Policy
	shape  deflect.Shape
	failed LinkSet
	// consulted is every link whose state the last computation read.
	consulted LinkSet
	view      nodeView
	c         chain
}

// New builds an analyzer for the given policy name over the
// controller's topology. Install routes on the controller first.
func New(ctrl *controller.Controller, policy string, failed []*topology.Link) (*Analyzer, error) {
	pol, ok := deflect.ByName(policy)
	if !ok {
		return nil, fmt.Errorf("%q: %w", policy, ErrPolicyUnsupported)
	}
	a := &Analyzer{g: ctrl.Graph(), ctrl: ctrl, policy: pol, shape: pol.Shape()}
	a.failed, a.consulted = NewLinkSet(a.g), NewLinkSet(a.g)
	a.SetFailed(failed)
	a.view.a, a.c.a = a, a
	nodes := a.g.Nodes()
	for _, n := range nodes {
		a.c.span = max(a.c.span, n.PortSpan())
	}
	a.c.slots = len(nodes) * a.c.span * 2
	return a, nil
}

// SetFailed replaces the failure set, so one analyzer and its scratch
// serve a whole sweep.
func (a *Analyzer) SetFailed(failed []*topology.Link) {
	clear(a.failed)
	for _, l := range failed {
		a.failed.Add(l)
	}
}

// Consulted returns the links whose state the last Analyze or
// DeliverWithin looked at. The result is a pure function of the route,
// the policy and the state of exactly these links: any failure set that
// agrees with the analyzer's on them has the same Result. The set is
// overwritten by the next call.
func (a *Analyzer) Consulted() LinkSet { return a.consulted }

// linkUp is the one place an analysis reads link state, and so the one
// place that fills the consulted set.
func (a *Analyzer) linkUp(l *topology.Link) bool {
	a.consulted.Add(l)
	return !a.failed.Has(l)
}

// nodeView is one node under the analyzer's failure set as a
// deflect.SwitchView, so the analysis runs the very policy code the
// simulated switch does.
type nodeView struct {
	a    *Analyzer
	node *topology.Node
}

func (v *nodeView) SwitchID() uint64          { return v.node.ID() }
func (v *nodeView) Forward(r rns.RouteID) int { return core.Forward(r, v.node.ID()) }
func (v *nodeView) NumPorts() int             { return v.node.PortSpan() }
func (v *nodeView) PortUp(i int) bool {
	l, ok := v.node.PortLink(i)
	return ok && v.a.linkUp(l)
}
func (v *nodeView) EdgePort(i int) bool {
	l, ok := v.node.PortLink(i)
	return ok && l.Other(v.node).Kind() == topology.KindEdge
}

// ingress returns the installed route src→dst, the port it enters its
// first core switch on, and whether the link it enters by is up: the
// ingress edge sends on that link, and a dead one drops the packet
// before any switch sees it, under every policy.
func (a *Analyzer) ingress(src, dst string) (*core.Route, int, bool, error) {
	route, ok := a.ctrl.Route(src, dst)
	if !ok {
		return nil, 0, false, fmt.Errorf("analysis: no installed route %s->%s", src, dst)
	}
	first := route.Path.Nodes[1]
	inPort, ok := first.PortToward(route.Path.Nodes[0].Name())
	if !ok {
		return nil, 0, false, fmt.Errorf("analysis: %s has no port toward %s", first, route.Path.Nodes[0])
	}
	l, _ := first.PortLink(inPort)
	return route, inPort, a.linkUp(l), nil
}

// state identifies one Markov state.
type state struct {
	route     int32 // index into chain.routes
	inPort    int32
	node      *topology.Node
	deflected bool
}

// chain is the expanded transition system. It is the analyzer's
// scratch: every slice is reused by the next expansion.
type chain struct {
	a   *Analyzer
	dst string
	// routes interns the route IDs in effect (the installed one, then
	// one per wrong edge reached); index[r] maps a state under routes[r]
	// to its number + 1, addressed by (node, in-port, deflected).
	routes []rns.RouteID
	index  [][]int32
	span   int // the graph's largest port span, the in-port stride of index
	slots  int // entries per index table: nodes × span × 2

	states  []state
	off     []int32    // successors of state i: edges[off[i]:off[i+1]]
	edges   []edgeProb // successor distributions, in state order
	deliver []bool     // absorbing: delivered
	dropped []bool     // absorbing: dropped

	cands []int

	// Linear-system scratch: rows are headers into mat, so a pivot swap
	// moves two headers.
	mat        []float64
	rows       [][]float64
	orig       []int32 // orig[i]: the state whose equation sits in row i
	b, rhs     []float64
	pDel, hops []float64
	reach      []bool
}

type edgeProb struct {
	to int
	p  float64
}

// succ returns state i's successor distribution.
func (c *chain) succ(i int) []edgeProb { return c.edges[c.off[i]:c.off[i+1]] }

// reset empties the chain for the next expansion, clearing only the
// index entries the last one set.
func (c *chain) reset() {
	clear(c.a.consulted)
	for _, s := range c.states {
		c.index[s.route][c.slot(s)] = 0
	}
	c.routes = c.routes[:0]
	c.states, c.off, c.edges = c.states[:0], c.off[:0], c.edges[:0]
	c.deliver, c.dropped = c.deliver[:0], c.dropped[:0]
}

// buildChain expands the full reachable state space for the installed
// route src→dst, returning the chain and the start state (the packet's
// arrival at the first core switch; dropped when the ingress link is
// down).
func (a *Analyzer) buildChain(src, dst string) (*chain, int, *core.Route, error) {
	c := &a.c
	c.reset()
	route, inPort, up, err := a.ingress(src, dst)
	if err != nil {
		return nil, 0, nil, err
	}
	c.dst = dst
	// Seed: the packet leaves the ingress edge toward the first core.
	start := c.intern(state{route: c.internRoute(route.ID), node: route.Path.Nodes[1], inPort: int32(inPort)})
	c.dropped[start] = !up
	c.expand()
	return c, start, route, nil
}

// Analyze computes the walk properties for the installed route
// src→dst under the analyzer's failure set.
func (a *Analyzer) Analyze(src, dst string) (Result, error) {
	c, start, route, err := a.buildChain(src, dst)
	if err != nil {
		return Result{}, err
	}
	res := Result{BaselineHops: route.Path.Hops()}
	if !a.shape.Random() {
		res.PDeliver, res.ExpectedHops = c.follow(start)
		return res, nil
	}
	if res.PDeliver, res.ExpectedHops, err = c.absorb(start); err != nil {
		return Result{}, err
	}
	return res, nil
}

// absorb solves the chain from start: the delivery probability and, when
// it is positive, E[hops | delivered].
func (c *chain) absorb(start int) (pDel, hops float64, err error) {
	c.markTrapped()
	if err := c.solve(); err != nil {
		return 0, 0, err
	}
	if pDel = c.pDel[start]; pDel > 0 {
		// +1: the initial edge→first-switch traversal.
		hops = c.hops[start]/pDel + 1
	}
	return pDel, hops, nil
}

// follow reads a chain whose every state has at most one successor (a
// shape that never draws) by stepping along it under the simulator's
// TTL: the packet leaves the ingress edge and every re-encoding edge
// with packet.DefaultTTL, each core spends one and kills it at 0, and a
// trajectory longer than the chain has states has closed a loop. It
// returns 1 and the hop count on delivery, 0 and 0 on a loss.
func (c *chain) follow(start int) (pDel, hops float64) {
	ttl := packet.DefaultTTL
	for i, n := start, 1; n <= len(c.states); n++ {
		switch {
		case c.deliver[i]:
			return 1, float64(n) // n counts the ingress traversal too
		case c.dropped[i]:
			return 0, 0
		case c.states[i].node.Kind() == topology.KindEdge:
			ttl = packet.DefaultTTL // a re-encode restamps the TTL
		default:
			if ttl--; ttl == 0 {
				return 0, 0
			}
		}
		i = c.succ(i)[0].to
	}
	return 0, 0 // a loop
}

// DeliverWithin computes the exact probability that the walk delivers
// under the simulator's TTL discipline: the packet leaves an edge with
// a budget of ttl, every core switch decrements the budget and kills
// the packet when it hits zero, edges never decrement, and a
// wrong-edge re-encode refreshes the budget to ttl (edge.Inject and
// the re-encode path both stamp packet.DefaultTTL). For a policy that
// draws, Analyze's PDeliver is the ttl→∞ limit of this quantity; the
// difference is exactly the trajectory mass the TTL truncates, which is
// what a tight cross-validation band against the packet simulator
// needs. For one that never draws, Analyze follows the chain under
// this very discipline and equals it at packet.DefaultTTL.
//
// The computation is a finite-horizon value iteration over the same
// chain Analyze solves: d_t(s) = Σ T(s,s')·d_{t-1}(s') for core
// states, with edge states holding budget-independent values (they
// refresh the budget on exit). The refresh couples edge values to
// d_ttl of their successors, so an outer fixpoint iterates the edge
// values upward from zero — monotone and bounded, it converges
// geometrically in the number of re-encode rounds a trajectory can
// take.
func (a *Analyzer) DeliverWithin(src, dst string, ttl int) (float64, error) {
	if ttl <= 0 {
		return 0, fmt.Errorf("analysis: ttl %d must be positive", ttl)
	}
	c, start, _, err := a.buildChain(src, dst)
	if err != nil {
		return 0, err
	}
	n := len(c.states)
	isEdge := make([]bool, n)
	for i, s := range c.states {
		isEdge[i] = s.node.Kind() == topology.KindEdge
	}
	// fixed holds the budget-independent values: 1 on delivery, 0 on
	// drops, the current outer-iteration estimate on transient edges.
	fixed := make([]float64, n)
	for i := range fixed {
		if c.deliver[i] {
			fixed[i] = 1
		}
	}
	val := func(i int, prev []float64) float64 {
		if c.deliver[i] || c.dropped[i] || isEdge[i] {
			return fixed[i]
		}
		return prev[i]
	}
	cur, prev := make([]float64, n), make([]float64, n)
	for iter := 0; iter < 1<<20; iter++ {
		// Inner DP: d_t for core states, t = 1..ttl. A core arriving
		// with budget t forwards only if t-1 > 0.
		for i := range prev {
			prev[i] = 0
		}
		for t := 1; t <= ttl; t++ {
			for i := range c.states {
				if c.deliver[i] || c.dropped[i] || isEdge[i] {
					continue
				}
				var sum float64
				if t > 1 {
					for _, e := range c.succ(i) {
						sum += e.p * val(e.to, prev)
					}
				}
				cur[i] = sum
			}
			cur, prev = prev, cur
		}
		// prev now holds d_ttl. Refresh transient edge values: a
		// re-encode hands the successor a full budget.
		var delta float64
		for i := range c.states {
			if !isEdge[i] || c.deliver[i] || c.dropped[i] {
				continue
			}
			var v float64
			for _, e := range c.succ(i) {
				v += e.p * val(e.to, prev)
			}
			if d := v - fixed[i]; d > delta {
				delta = d
			}
			fixed[i] = v
		}
		if delta < 1e-13 {
			break
		}
	}
	return val(start, prev), nil
}

// slot is s's place in its route's index table.
func (c *chain) slot(s state) int {
	i := (s.node.Index()*c.span + int(s.inPort)) * 2
	if s.deflected {
		i++
	}
	return i
}

func (c *chain) intern(s state) int {
	at := &c.index[s.route][c.slot(s)]
	if *at == 0 {
		c.states = append(c.states, s)
		c.deliver = append(c.deliver, false)
		c.dropped = append(c.dropped, false)
		*at = int32(len(c.states))
	}
	return int(*at) - 1
}

// internRoute numbers id among the chain's route IDs, by value.
func (c *chain) internRoute(id rns.RouteID) int32 {
	for r := range c.routes {
		if c.routes[r].Equal(id) {
			return int32(r)
		}
	}
	c.routes = append(c.routes, id)
	if len(c.index) < len(c.routes) {
		c.index = append(c.index, make([]int32, c.slots))
	}
	return int32(len(c.routes) - 1)
}

// expand performs a work-list expansion of the reachable state space.
// A state dropped before its expansion (a start behind a dead ingress
// link) has no successors.
func (c *chain) expand() {
	for i := 0; i < len(c.states); i++ {
		c.off = append(c.off, int32(len(c.edges)))
		switch s := c.states[i]; {
		case c.dropped[i]:
		case s.node.Kind() == topology.KindEdge:
			c.expandEdge(i, s)
		default:
			c.expandCore(i, s)
		}
	}
	c.off = append(c.off, int32(len(c.edges)))
}

func (c *chain) expandEdge(i int, s state) {
	if s.node.Name() == c.dst {
		c.deliver[i] = true
		return
	}
	// Misdelivery: the controller re-encodes from this edge. The walk
	// continues under the new route ID, leaving through the returned
	// port, undeflected.
	id, outPort, err := c.a.ctrl.ReencodeRoute(s.node.Name(), c.dst)
	if err != nil {
		c.dropped[i] = true
		return
	}
	l, ok := s.node.PortLink(outPort)
	if !ok || !c.a.linkUp(l) {
		c.dropped[i] = true
		return
	}
	s.route = c.internRoute(id)
	c.step(s, outPort, false, 1)
}

// step appends the transition of the state being expanded (s) through
// outPort, taken with probability p.
func (c *chain) step(s state, outPort int, deflected bool, p float64) {
	l, _ := s.node.PortLink(outPort)
	next := l.Other(s.node)
	// The deflected flag is irrelevant at edges (re-encode resets it).
	defl := (s.deflected || deflected) && next.Kind() != topology.KindEdge
	to := c.intern(state{route: s.route, node: next, inPort: int32(l.PortOf(next)), deflected: defl})
	c.edges = append(c.edges, edgeProb{to: to, p: p})
}

// expandCore expands a core state from the policy's shape: one step on
// an accepted encoded port; otherwise the uniform fallback's candidates
// or — for a shape that never draws — the policy's own decision, run on
// the analyzer's view so the chain cannot drift from the switch.
func (c *chain) expandCore(i int, s state) {
	a, id := c.a, c.routes[s.route]
	a.view.node = s.node
	if !a.shape.Random() {
		// Exactly one successor per state: PDeliver is 0 or 1.
		d := a.policy.Decide(&a.view, id, int(s.inPort), s.deflected, nil)
		if d.Drop {
			c.dropped[i] = true
			return
		}
		c.step(s, d.Port, d.Deflected, 1)
		return
	}
	if port, ok := a.shape.OnPath(&a.view, id, int(s.inPort), s.deflected); ok {
		c.step(s, port, false, 1)
		return
	}
	// Every healthy port (but the in-port, for a fallback that excludes
	// it) with equal probability; with none, s drops.
	excludeIn := a.shape.Otherwise == deflect.FallbackUniformNotInput
	c.cands = c.cands[:0]
	for p := 0; p < s.node.PortSpan(); p++ {
		if excludeIn && p == int(s.inPort) {
			continue
		}
		if a.view.PortUp(p) {
			c.cands = append(c.cands, p)
		}
	}
	if len(c.cands) == 0 {
		c.dropped[i] = true
		return
	}
	p := 1 / float64(len(c.cands))
	for _, cp := range c.cands {
		c.step(s, cp, true, p)
	}
}

// markTrapped flags states from which no absorbing state is reachable
// — closed deterministic cycles (e.g. two "valid by chance" residues
// pointing at each other). In the real network the TTL kills such
// packets, so they count as drops; removing them keeps the linear
// system non-singular.
func (c *chain) markTrapped() {
	n := len(c.states)
	c.reach = grow(c.reach, n)
	for i := range c.reach {
		c.reach[i] = c.deliver[i] || c.dropped[i]
	}
	// Reverse reachability from the absorbing states, as a fixpoint over
	// the forward lists. Successors mostly carry higher numbers than
	// their state (work-list order), so a descending pass settles all
	// but the back edges.
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			if c.reach[i] {
				continue
			}
			for _, e := range c.succ(i) {
				if c.reach[e.to] {
					c.reach[i], changed = true, true
					break
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		if !c.reach[i] {
			c.dropped[i] = true
		}
	}
}

// grow returns s with length n, reallocating only when it must. The
// contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// solve computes, for every state, pDel — D(s) = Σ T(s,t) D(t) with
// D = 1 on delivery states and D = 0 on drop states — and hops —
// H(s) = Σ T(s,t)·(D(t) + H(t)), the expected number of traversals
// accumulated on delivering trajectories; E[hops | delivered] =
// H(start)/D(start). Both are (I - T)x = b with absorbing states
// pinning x to a boundary value, so the matrix is eliminated once and
// the second right-hand side replays the recorded row operations.
func (c *chain) solve() error {
	n := len(c.states)
	c.mat = grow(c.mat, n*n)
	clear(c.mat)
	c.rows, c.orig = grow(c.rows, n), grow(c.orig, n)
	c.b, c.rhs = grow(c.b, n), grow(c.rhs, n)
	c.pDel, c.hops = grow(c.pDel, n), grow(c.hops, n)
	for i := range c.rows {
		row := c.mat[i*n : (i+1)*n]
		c.rows[i], c.orig[i] = row, int32(i)
		row[i] = 1
		c.b[i] = 0
		switch {
		case c.deliver[i]:
			c.b[i] = 1
		case !c.dropped[i]:
			for _, e := range c.succ(i) {
				row[e.to] -= e.p
			}
		}
	}
	if err := eliminate(c.rows, c.b, c.orig); err != nil {
		return err
	}
	backSubstitute(c.rows, c.b, c.pDel)

	for i := range c.rhs {
		o := int(c.orig[i])
		c.rhs[i] = 0
		if c.deliver[o] || c.dropped[o] {
			continue
		}
		for _, e := range c.succ(o) {
			c.rhs[i] += e.p * c.pDel[e.to]
		}
	}
	forward(c.rows, c.rhs)
	backSubstitute(c.rows, c.rhs, c.hops)
	return nil
}

// eliminate reduces m to upper-triangular form by Gaussian elimination
// with partial pivoting, applying every row operation to b and every
// row swap to orig. The multiplier of each operation is left in the
// position it eliminated — the lower triangle, which nothing reads
// afterwards — so forward can repeat the operations on another
// right-hand side.
func eliminate(m [][]float64, b []float64, orig []int32) error {
	n := len(m)
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if abs(m[r][col]) > abs(m[pivot][col]) {
				pivot = r
			}
		}
		if abs(m[pivot][col]) < 1e-12 {
			return ErrSingular
		}
		m[col], m[pivot] = m[pivot], m[col]
		b[col], b[pivot] = b[pivot], b[col]
		orig[col], orig[pivot] = orig[pivot], orig[col]
		top := m[col]
		for r := col + 1; r < n; r++ {
			row := m[r]
			f := row[col] / top[col]
			row[col] = f
			if f == 0 {
				continue
			}
			for k := col + 1; k < n; k++ {
				row[k] -= f * top[k]
			}
			b[r] -= f * b[col]
		}
	}
	return nil
}

// forward applies eliminate's row operations to b, a right-hand side
// already in the eliminated system's row order.
func forward(m [][]float64, b []float64) {
	for col := range m {
		for r := col + 1; r < len(m); r++ {
			if f := m[r][col]; f != 0 {
				b[r] -= f * b[col]
			}
		}
	}
}

// backSubstitute solves the upper-triangular system m·x = b.
func backSubstitute(m [][]float64, b, x []float64) {
	n := len(m)
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for k := i + 1; k < n; k++ {
			sum -= m[i][k] * x[k]
		}
		x[i] = sum / m[i][i]
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
