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
package analysis

import (
	"errors"
	"fmt"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/deflect"
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
	// PDrop is the probability it dies (no viable port).
	PDrop float64
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

// Analyzer owns the topology, a controller (for routes and
// re-encoding) and a failure set.
type Analyzer struct {
	g      *topology.Graph
	ctrl   *controller.Controller
	failed map[*topology.Link]bool
	policy string
}

// New builds an analyzer for the given policy name over the
// controller's topology. Install routes on the controller first.
func New(ctrl *controller.Controller, policy string, failed []*topology.Link) (*Analyzer, error) {
	if _, ok := deflect.ByName(policy); !ok {
		return nil, fmt.Errorf("%q: %w", policy, ErrPolicyUnsupported)
	}
	fm := make(map[*topology.Link]bool, len(failed))
	for _, l := range failed {
		fm[l] = true
	}
	return &Analyzer{g: ctrl.Graph(), ctrl: ctrl, failed: fm, policy: policy}, nil
}

// state identifies one Markov state.
type state struct {
	routeID   string // decimal route ID (routes are few; string keys are simple and exact)
	node      *topology.Node
	inPort    int
	deflected bool
}

// chain is the expanded transition system.
type chain struct {
	a       *Analyzer
	dst     string
	states  []state
	index   map[state]int
	trans   [][]edgeProb // per state: successor distribution
	deliver []bool       // absorbing: delivered
	dropped []bool       // absorbing: dropped
	routes  map[string]rns.RouteID
}

type edgeProb struct {
	to int
	p  float64
}

// buildChain expands the full reachable state space for the installed
// route src→dst, returning the chain and the start state (the packet's
// arrival at the first core switch).
func (a *Analyzer) buildChain(src, dst string) (*chain, int, *core.Route, error) {
	route, ok := a.ctrl.Route(src, dst)
	if !ok {
		return nil, 0, nil, fmt.Errorf("analysis: no installed route %s->%s", src, dst)
	}
	c := &chain{
		a:      a,
		dst:    dst,
		index:  make(map[state]int),
		routes: make(map[string]rns.RouteID),
	}
	// Seed: the packet leaves the ingress edge toward the first core.
	first := route.Path.Nodes[1]
	inPort, ok := first.PortToward(route.Path.Nodes[0].Name())
	if !ok {
		return nil, 0, nil, fmt.Errorf("analysis: %s has no port toward %s", first, route.Path.Nodes[0])
	}
	start := c.intern(state{routeID: route.ID.String(), node: first, inPort: inPort, deflected: false})
	c.routes[route.ID.String()] = route.ID

	if err := c.expand(); err != nil {
		return nil, 0, nil, err
	}
	return c, start, route, nil
}

// Analyze computes the walk properties for the installed route
// src→dst under the analyzer's failure set.
func (a *Analyzer) Analyze(src, dst string) (Result, error) {
	c, start, route, err := a.buildChain(src, dst)
	if err != nil {
		return Result{}, err
	}
	c.markTrapped()
	pDel, err := c.solveProbability()
	if err != nil {
		return Result{}, err
	}
	hops, err := c.solveHops(pDel)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		PDeliver:     pDel[start],
		PDrop:        1 - pDel[start],
		BaselineHops: route.Path.Hops(),
	}
	if pDel[start] > 0 {
		// +1: the initial edge→first-switch traversal.
		res.ExpectedHops = hops[start]/pDel[start] + 1
	}
	return res, nil
}

// DeliverWithin computes the exact probability that the walk delivers
// under the simulator's TTL discipline: the packet leaves an edge with
// a budget of ttl, every core switch decrements the budget and kills
// the packet when it hits zero, edges never decrement, and a
// wrong-edge re-encode refreshes the budget to ttl (edge.Inject and
// the re-encode path both stamp packet.DefaultTTL). Analyze's PDeliver
// is the ttl→∞ limit of this quantity; the difference is exactly the
// trajectory mass the TTL truncates, which is what a tight
// cross-validation band against the packet simulator needs.
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
					for _, e := range c.trans[i] {
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
			for _, e := range c.trans[i] {
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

func (c *chain) intern(s state) int {
	if i, ok := c.index[s]; ok {
		return i
	}
	i := len(c.states)
	c.index[s] = i
	c.states = append(c.states, s)
	c.trans = append(c.trans, nil)
	c.deliver = append(c.deliver, false)
	c.dropped = append(c.dropped, false)
	return i
}

func (c *chain) linkUp(l *topology.Link) bool { return l != nil && !c.a.failed[l] }

// chainView adapts one chain node to deflect.SwitchView so the dtree
// expansion runs the exact policy code the simulated switch does.
type chainView struct {
	c    *chain
	node *topology.Node
}

func (v chainView) SwitchID() uint64          { return v.node.ID() }
func (v chainView) Forward(r rns.RouteID) int { return core.Forward(r, v.node.ID()) }
func (v chainView) NumPorts() int             { return v.node.PortSpan() }
func (v chainView) PortUp(i int) bool         { return v.c.portUp(v.node, i) }
func (v chainView) EdgePort(i int) bool {
	l, ok := v.node.PortLink(i)
	return ok && l.Other(v.node).Kind() == topology.KindEdge
}

func (c *chain) portUp(n *topology.Node, i int) bool {
	l, ok := n.PortLink(i)
	return ok && c.linkUp(l)
}

// expand performs a work-list expansion of the reachable state space.
func (c *chain) expand() error {
	for i := 0; i < len(c.states); i++ {
		s := c.states[i]
		if s.node.Kind() == topology.KindEdge {
			if err := c.expandEdge(i, s); err != nil {
				return err
			}
			continue
		}
		if err := c.expandCore(i, s); err != nil {
			return err
		}
	}
	return nil
}

func (c *chain) expandEdge(i int, s state) error {
	if s.node.Name() == c.dst {
		c.deliver[i] = true
		return nil
	}
	// Misdelivery: the controller re-encodes from this edge. The walk
	// continues under the new route ID, leaving through the returned
	// port, undeflected.
	id, outPort, err := c.a.ctrl.ReencodeRoute(s.node.Name(), c.dst)
	if err != nil {
		c.dropped[i] = true
		return nil
	}
	c.routes[id.String()] = id
	l, ok := s.node.PortLink(outPort)
	if !ok || !c.linkUp(l) {
		c.dropped[i] = true
		return nil
	}
	next := l.Other(s.node)
	np := l.PortOf(next)
	to := c.intern(state{routeID: id.String(), node: next, inPort: np, deflected: false})
	c.trans[i] = []edgeProb{{to: to, p: 1}}
	return nil
}

func (c *chain) expandCore(i int, s state) error {
	id := c.routes[s.routeID]
	port := core.Forward(id, s.node.ID())
	span := s.node.PortSpan()

	step := func(outPort int, deflected bool, p float64) edgeProb {
		l, _ := s.node.PortLink(outPort)
		next := l.Other(s.node)
		np := l.PortOf(next)
		defl := s.deflected || deflected
		if next.Kind() == topology.KindEdge {
			// Deflected flag is irrelevant at edges (re-encode resets it).
			defl = false
		}
		return edgeProb{to: c.intern(state{routeID: s.routeID, node: next, inPort: np, deflected: defl}), p: p}
	}

	candidates := func(excludeIn bool) []int {
		var out []int
		for p := 0; p < span; p++ {
			if excludeIn && p == s.inPort {
				continue
			}
			if c.portUp(s.node, p) {
				out = append(out, p)
			}
		}
		return out
	}

	switch c.a.policy {
	case "none":
		if c.portUp(s.node, port) {
			c.trans[i] = []edgeProb{step(port, false, 1)}
		} else {
			c.dropped[i] = true
		}
	case "avp":
		if c.portUp(s.node, port) {
			c.trans[i] = []edgeProb{step(port, false, 1)}
			return nil
		}
		c.uniform(i, s, candidates(false), step)
	case "nip":
		if c.portUp(s.node, port) && port != s.inPort {
			c.trans[i] = []edgeProb{step(port, false, 1)}
			return nil
		}
		c.uniform(i, s, candidates(true), step)
	case "hp":
		if !s.deflected && c.portUp(s.node, port) {
			c.trans[i] = []edgeProb{step(port, false, 1)}
			return nil
		}
		c.uniform(i, s, candidates(false), step)
	case "dtree":
		// Deterministic structured failover: delegate to the very
		// same deflect.DTree decision procedure the data plane runs
		// (no RNG is consumed), so the chain cannot drift from the
		// switch implementation. Exactly one successor per state —
		// the chain collapses to a walk, and PDeliver is 0 or 1.
		d := deflect.DTree{}.Decide(chainView{c: c, node: s.node}, id, s.inPort, s.deflected, nil)
		if d.Drop {
			c.dropped[i] = true
			return nil
		}
		c.trans[i] = []edgeProb{step(d.Port, d.Deflected, 1)}
	}
	return nil
}

func (c *chain) uniform(i int, s state, cands []int, step func(int, bool, float64) edgeProb) {
	if len(cands) == 0 {
		c.dropped[i] = true
		return
	}
	p := 1 / float64(len(cands))
	out := make([]edgeProb, 0, len(cands))
	for _, cp := range cands {
		out = append(out, step(cp, true, p))
	}
	c.trans[i] = out
}

// markTrapped flags states from which no absorbing state is reachable
// — closed deterministic cycles (e.g. two "valid by chance" residues
// pointing at each other). In the real network the TTL kills such
// packets, so they count as drops; removing them keeps the linear
// system non-singular.
func (c *chain) markTrapped() {
	n := len(c.states)
	// Reverse reachability from absorbing states.
	rev := make([][]int, n)
	for i, ts := range c.trans {
		for _, e := range ts {
			rev[e.to] = append(rev[e.to], i)
		}
	}
	reach := make([]bool, n)
	var stack []int
	for i := 0; i < n; i++ {
		if c.deliver[i] || c.dropped[i] {
			reach[i] = true
			stack = append(stack, i)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range rev[v] {
			if !reach[u] {
				reach[u] = true
				stack = append(stack, u)
			}
		}
	}
	for i := 0; i < n; i++ {
		if !reach[i] {
			c.dropped[i] = true
			c.trans[i] = nil
		}
	}
}

// solveProbability solves D(s) = Σ T(s,t) D(t) with D=1 on delivery
// states and D=0 on drop states.
func (c *chain) solveProbability() ([]float64, error) {
	m, b := c.buildSystem(func(i int) float64 {
		if c.deliver[i] {
			return 1
		}
		return 0
	}, nil)
	return solve(m, b)
}

// solveHops solves H(s) = Σ T(s,t)·(D(t) + H(t)) — the expected number
// of traversals accumulated on delivering trajectories. E[hops |
// delivered] = H(start)/D(start).
func (c *chain) solveHops(pDel []float64) ([]float64, error) {
	m, b := c.buildSystem(func(i int) float64 { return 0 }, func(i, j int, p float64) float64 {
		return p * pDel[j]
	})
	return solve(m, b)
}

// buildSystem assembles (I - T)x = b where absorbing states pin x to
// the boundary value and extra adds per-transition constants to b.
func (c *chain) buildSystem(boundary func(int) float64, extra func(i, j int, p float64) float64) ([][]float64, []float64) {
	n := len(c.states)
	m := make([][]float64, n)
	b := make([]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		m[i][i] = 1
		if c.deliver[i] || c.dropped[i] {
			b[i] = boundary(i)
			continue
		}
		for _, e := range c.trans[i] {
			m[i][e.to] -= e.p
			if extra != nil {
				b[i] += extra(i, e.to, e.p)
			}
		}
	}
	return m, b
}

// solve performs Gaussian elimination with partial pivoting.
func solve(m [][]float64, b []float64) ([]float64, error) {
	n := len(m)
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if abs(m[r][col]) > abs(m[pivot][col]) {
				pivot = r
			}
		}
		if abs(m[pivot][col]) < 1e-12 {
			return nil, ErrSingular
		}
		m[col], m[pivot] = m[pivot], m[col]
		b[col], b[pivot] = b[pivot], b[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			if f == 0 {
				continue
			}
			for k := col; k < n; k++ {
				m[r][k] -= f * m[col][k]
			}
			b[r] -= f * b[col]
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for k := i + 1; k < n; k++ {
			sum -= m[i][k] * x[k]
		}
		x[i] = sum / m[i][i]
	}
	return x, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
