package analysis

// The analyzer as it stood before it kept scratch between cases: a
// string-keyed state map, per-state successor slices, a reverse
// adjacency for trapped-state detection and two independent dense
// eliminations. Kept as the oracle TestLeanChainMatchesReference holds
// Analyze against, bit for bit; its one later rule is the simulator's:
// a dead ingress link drops the packet at the start state.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/deflect"
	"repro/internal/rns"
	"repro/internal/topology"
)

// refAnalyzer owns the topology, a controller (for routes and
// re-encoding) and a failure set.
type refAnalyzer struct {
	g      *topology.Graph
	ctrl   *controller.Controller
	failed map[*topology.Link]bool
	policy string
}

// newRef builds a reference analyzer for the given policy name over the
// controller's topology. Install routes on the controller first.
func newRef(ctrl *controller.Controller, policy string, failed []*topology.Link) (*refAnalyzer, error) {
	if _, ok := deflect.ByName(policy); !ok {
		return nil, fmt.Errorf("%q: %w", policy, ErrPolicyUnsupported)
	}
	fm := make(map[*topology.Link]bool, len(failed))
	for _, l := range failed {
		fm[l] = true
	}
	return &refAnalyzer{g: ctrl.Graph(), ctrl: ctrl, failed: fm, policy: policy}, nil
}

// refState identifies one Markov refState.
type refState struct {
	routeID   string // decimal route ID (routes are few; string keys are simple and exact)
	node      *topology.Node
	inPort    int
	deflected bool
}

// refChain is the expanded transition system.
type refChain struct {
	a       *refAnalyzer
	dst     string
	states  []refState
	index   map[refState]int
	trans   [][]refEdgeProb // per refState: successor distribution
	deliver []bool          // absorbing: delivered
	dropped []bool          // absorbing: dropped
	routes  map[string]rns.RouteID
}

type refEdgeProb struct {
	to int
	p  float64
}

// buildChain expands the full reachable refState space for the installed
// route src→dst, returning the refChain and the start refState (the packet's
// arrival at the first core switch).
func (a *refAnalyzer) buildChain(src, dst string) (*refChain, int, *core.Route, error) {
	route, ok := a.ctrl.Route(src, dst)
	if !ok {
		return nil, 0, nil, fmt.Errorf("analysis: no installed route %s->%s", src, dst)
	}
	c := &refChain{
		a:      a,
		dst:    dst,
		index:  make(map[refState]int),
		routes: make(map[string]rns.RouteID),
	}
	// Seed: the packet leaves the ingress edge toward the first core.
	first := route.Path.Nodes[1]
	inPort, ok := first.PortToward(route.Path.Nodes[0].Name())
	if !ok {
		return nil, 0, nil, fmt.Errorf("analysis: %s has no port toward %s", first, route.Path.Nodes[0])
	}
	start := c.intern(refState{routeID: route.ID.String(), node: first, inPort: inPort, deflected: false})
	c.routes[route.ID.String()] = route.ID
	// The ingress edge sends on the first link: a dead one drops the
	// packet before the first core, so the start state is dropped.
	if l, _ := first.PortLink(inPort); !c.linkUp(l) {
		c.dropped[start] = true
		return c, start, route, nil
	}

	if err := c.expand(); err != nil {
		return nil, 0, nil, err
	}
	return c, start, route, nil
}

// Analyze computes the walk properties for the installed route
// src→dst under the analyzer's failure set.
func (a *refAnalyzer) Analyze(src, dst string) (Result, error) {
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
		BaselineHops: route.Path.Hops(),
	}
	if pDel[start] > 0 {
		// +1: the initial edge→first-switch traversal.
		res.ExpectedHops = hops[start]/pDel[start] + 1
	}
	return res, nil
}

func (c *refChain) intern(s refState) int {
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

func (c *refChain) linkUp(l *topology.Link) bool { return l != nil && !c.a.failed[l] }

// refChainView adapts one refChain node to deflect.SwitchView so the dtree
// expansion runs the exact policy code the simulated switch does.
type refChainView struct {
	c    *refChain
	node *topology.Node
}

func (v refChainView) SwitchID() uint64          { return v.node.ID() }
func (v refChainView) Forward(r rns.RouteID) int { return core.Forward(r, v.node.ID()) }
func (v refChainView) NumPorts() int             { return v.node.PortSpan() }
func (v refChainView) PortUp(i int) bool         { return v.c.portUp(v.node, i) }
func (v refChainView) EdgePort(i int) bool {
	l, ok := v.node.PortLink(i)
	return ok && l.Other(v.node).Kind() == topology.KindEdge
}

func (c *refChain) portUp(n *topology.Node, i int) bool {
	l, ok := n.PortLink(i)
	return ok && c.linkUp(l)
}

// expand performs a work-list expansion of the reachable refState space.
func (c *refChain) expand() error {
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

func (c *refChain) expandEdge(i int, s refState) error {
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
	to := c.intern(refState{routeID: id.String(), node: next, inPort: np, deflected: false})
	c.trans[i] = []refEdgeProb{{to: to, p: 1}}
	return nil
}

func (c *refChain) expandCore(i int, s refState) error {
	id := c.routes[s.routeID]
	port := core.Forward(id, s.node.ID())
	span := s.node.PortSpan()

	step := func(outPort int, deflected bool, p float64) refEdgeProb {
		l, _ := s.node.PortLink(outPort)
		next := l.Other(s.node)
		np := l.PortOf(next)
		defl := s.deflected || deflected
		if next.Kind() == topology.KindEdge {
			// Deflected flag is irrelevant at edges (re-encode resets it).
			defl = false
		}
		return refEdgeProb{to: c.intern(refState{routeID: s.routeID, node: next, inPort: np, deflected: defl}), p: p}
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
			c.trans[i] = []refEdgeProb{step(port, false, 1)}
		} else {
			c.dropped[i] = true
		}
	case "avp":
		if c.portUp(s.node, port) {
			c.trans[i] = []refEdgeProb{step(port, false, 1)}
			return nil
		}
		c.uniform(i, s, candidates(false), step)
	case "nip":
		if c.portUp(s.node, port) && port != s.inPort {
			c.trans[i] = []refEdgeProb{step(port, false, 1)}
			return nil
		}
		c.uniform(i, s, candidates(true), step)
	case "hp":
		if !s.deflected && c.portUp(s.node, port) {
			c.trans[i] = []refEdgeProb{step(port, false, 1)}
			return nil
		}
		c.uniform(i, s, candidates(false), step)
	case "dtree":
		// Deterministic structured failover: delegate to the very
		// same deflect.DTree decision procedure the data plane runs
		// (no RNG is consumed), so the refChain cannot drift from the
		// switch implementation. Exactly one successor per refState —
		// the refChain collapses to a walk, and PDeliver is 0 or 1.
		d := deflect.DTree{}.Decide(refChainView{c: c, node: s.node}, id, s.inPort, s.deflected, nil)
		if d.Drop {
			c.dropped[i] = true
			return nil
		}
		c.trans[i] = []refEdgeProb{step(d.Port, d.Deflected, 1)}
	}
	return nil
}

func (c *refChain) uniform(i int, s refState, cands []int, step func(int, bool, float64) refEdgeProb) {
	if len(cands) == 0 {
		c.dropped[i] = true
		return
	}
	p := 1 / float64(len(cands))
	out := make([]refEdgeProb, 0, len(cands))
	for _, cp := range cands {
		out = append(out, step(cp, true, p))
	}
	c.trans[i] = out
}

// markTrapped flags states from which no absorbing refState is reachable
// — closed deterministic cycles (e.g. two "valid by chance" residues
// pointing at each other). In the real network the TTL kills such
// packets, so they count as drops; removing them keeps the linear
// system non-singular.
func (c *refChain) markTrapped() {
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
func (c *refChain) solveProbability() ([]float64, error) {
	m, b := c.buildSystem(func(i int) float64 {
		if c.deliver[i] {
			return 1
		}
		return 0
	}, nil)
	return refSolve(m, b)
}

// solveHops solves H(s) = Σ T(s,t)·(D(t) + H(t)) — the expected number
// of traversals accumulated on delivering trajectories. E[hops |
// delivered] = H(start)/D(start).
func (c *refChain) solveHops(pDel []float64) ([]float64, error) {
	m, b := c.buildSystem(func(i int) float64 { return 0 }, func(i, j int, p float64) float64 {
		return p * pDel[j]
	})
	return refSolve(m, b)
}

// buildSystem assembles (I - T)x = b where absorbing states pin x to
// the boundary value and extra adds per-transition constants to b.
func (c *refChain) buildSystem(boundary func(int) float64, extra func(i, j int, p float64) float64) ([][]float64, []float64) {
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
func refSolve(m [][]float64, b []float64) ([]float64, error) {
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

// TestLeanChainMatchesReference: one reused analyzer per policy — its
// scratch carried from case to case through SetFailed — gives, for every
// route under every single failure, seeded failure pairs and seeded
// triples, the reference's Result to the last bit.
func TestLeanChainMatchesReference(t *testing.T) {
	for _, topo := range []string{"fig1", "net15", "rnp28", "fattree:4"} {
		for _, auto := range []bool{false, true} {
			// Random deflection over an unprotected fat tree makes chains of
			// hundreds of states, a second of reference elimination per route.
			maxRoutes := 40
			if topo == "fattree:4" && !auto {
				maxRoutes = 4
			}
			t.Run(fmt.Sprintf("%s/auto=%v", topo, auto), func(t *testing.T) {
				g, err := topology.ByName(topo)
				if err != nil {
					t.Fatal(err)
				}
				var opts []controller.Option
				if auto {
					opts = append(opts, controller.WithAutoProtection())
				}
				ctrl := controller.New(g, opts...)
				var routes [][2]string
				for _, a := range g.EdgeNodes() {
					for _, b := range g.EdgeNodes() {
						if a == b || len(routes) >= maxRoutes {
							continue
						}
						if _, err := ctrl.InstallRoute(a.Name(), b.Name(), nil); err != nil {
							t.Fatal(err)
						}
						routes = append(routes, [2]string{a.Name(), b.Name()})
					}
				}
				links := g.Links()
				sets := [][]*topology.Link{nil}
				for _, l := range links {
					sets = append(sets, []*topology.Link{l})
				}
				rng := rand.New(rand.NewSource(17))
				for i := 0; i < 90; i++ {
					set := []*topology.Link{links[rng.Intn(len(links))], links[rng.Intn(len(links))]}
					if i%3 == 0 {
						set = append(set, links[rng.Intn(len(links))])
					}
					sets = append(sets, set)
				}
				for _, pol := range []string{"none", "hp", "avp", "nip", "dtree"} {
					lean, err := New(ctrl, pol, nil)
					if err != nil {
						t.Fatal(err)
					}
					for _, set := range sets {
						lean.SetFailed(set)
						ref, err := newRef(ctrl, pol, set)
						if err != nil {
							t.Fatal(err)
						}
						for _, rt := range routes {
							want, werr := ref.Analyze(rt[0], rt[1])
							got, gerr := lean.Analyze(rt[0], rt[1])
							if (gerr == nil) != (werr == nil) {
								t.Fatalf("%s %s->%s failed=%v: err %v, reference %v", pol, rt[0], rt[1], set, gerr, werr)
							}
							if math.Float64bits(got.PDeliver) != math.Float64bits(want.PDeliver) ||
								math.Float64bits(got.ExpectedHops) != math.Float64bits(want.ExpectedHops) ||
								got.BaselineHops != want.BaselineHops {
								t.Fatalf("%s %s->%s failed=%v:\n got %+v\nwant %+v", pol, rt[0], rt[1], set, got, want)
							}
						}
					}
				}
			})
		}
	}
}
