// Package deflect implements the paper's three deflection routing
// techniques (§2.1) plus the no-deflection baseline, behind a single
// Policy interface:
//
//   - None: forward by modulo; drop when the computed port is down.
//   - HP (Hot-Potato): once a packet has been deflected, every
//     subsequent hop is uniformly random — the paper's lower bound.
//   - AVP (Any Valid Port): always compute the modulo; when the result
//     is not a valid, healthy port, pick a random healthy port (the
//     input port included).
//   - NIP (Not the Input Port): AVP, additionally excluding the input
//     port both when validating the modulo result and when drawing a
//     random port (Algorithm 1).
//   - DTree (Destination Tree): fully deterministic structured
//     failover. The modulo residue — which per-destination protection
//     planning points along a destination-rooted tree on every switch
//     — is the primary choice; when it is unusable the packet follows
//     a fixed circular fallback scan anchored just past the input
//     port (edge-facing ports deferred to a second pass, odd-ID
//     switches scanning descending once deflected to break cycle
//     symmetry), never the input port unless it is the only healthy
//     port left (then it bounces rather than drops). No RNG is ever
//     consumed, so a DTree trajectory is a pure function of the
//     failure set and delivery is all-or-nothing.
//
// Policies are pure decision functions over a SwitchView; all
// randomness comes from the Rand the caller injects (a *rand.Rand, or
// the switch's own xrand.Source), keeping simulations reproducible.
package deflect

import "repro/internal/rns"

// SwitchView is what a deflection policy may observe about a switch:
// its KAR ID, the modulo-forwarding function over that ID, and the
// state of its ports. Implemented by the simulated switch; small on
// purpose so policies stay decoupled from the simulator.
type SwitchView interface {
	// SwitchID returns the switch's coprime KAR ID.
	SwitchID() uint64
	// Forward returns the modulo-computed output port for routeID
	// (Eq. 3, routeID mod SwitchID). Implementations hold the
	// switch's precomputed rns.Reducer so the per-packet path never
	// re-derives division constants.
	Forward(routeID rns.RouteID) int
	// NumPorts returns the size of the port index space.
	NumPorts() int
	// PortUp reports whether port i exists, is attached and healthy.
	PortUp(i int) bool
	// EdgePort reports whether port i attaches an edge function
	// (host-facing) rather than another core switch. Switches know
	// this from link-local discovery; structured failover uses it to
	// keep fallback traffic inside the core when any core port is
	// available.
	EdgePort(i int) bool
}

// Rand is the randomness a policy draws: math/rand's Intn. Both
// *rand.Rand and *xrand.Source implement it with the same stream.
type Rand interface {
	// Intn returns a uniform value in [0, n); n > 0.
	Intn(n int) int
}

// Decision is the outcome of a forwarding decision.
type Decision struct {
	// Port is the chosen output port (meaningless when Drop is set).
	Port int
	// Deflected is true when Port is not the healthy modulo-computed
	// port, i.e. the packet leaves its encoded path here.
	Deflected bool
	// Drop is true when no viable output port exists.
	Drop bool
}

// Policy decides the output port for a packet carrying routeID that
// entered the switch on inPort. wasDeflected carries the packet's
// deflection flag (hot-potato keeps random-walking such packets).
// inPort is -1 for packets originated by a locally attached edge
// function (nothing to exclude). Every draw comes from rng, a Rand.
type Policy interface {
	// Name returns the short name used in experiment output
	// ("none", "hp", "avp", "nip", "dtree").
	Name() string
	// Shape declares the decision's two halves. The zero Shape declares
	// nothing: every packet of such a policy runs Decide.
	Shape() Shape
	Decide(view SwitchView, routeID rns.RouteID, inPort int, wasDeflected bool, rng Rand) Decision
}

// Shape is a policy as the paper states one (§2.1, Algorithm 1): take
// the encoded port when it is healthy and Accept admits it, otherwise
// do Otherwise. It is the only statement of that knowledge — Decide is
// built from it, the switch's batched fast path forwards on Accepts
// alone, and the analytic model expands a state from Otherwise — so a
// policy's Decide must return {Port: encoded port} without drawing from
// the RNG exactly when the encoded port is up and Accepts holds.
type Shape struct {
	Accept    Accept
	Otherwise Fallback
}

// Accept says which healthy encoded ports a policy forwards on.
type Accept uint8

const (
	_                 Accept = iota
	AcceptAlways             // none, avp
	AcceptUndeflected        // hp: until the packet's first deflection
	AcceptNotInput           // nip, dtree: any port but the input port
)

// Fallback says what a policy does with a packet whose encoded port it
// did not take.
type Fallback uint8

const (
	_                       Fallback = iota
	FallbackDrop                     // none
	FallbackUniform                  // hp, avp: uniform over healthy ports
	FallbackUniformNotInput          // nip: uniform, the input port excluded
	FallbackDeterministic            // dtree: the policy's own scan, no RNG
)

// Accepts reports whether the policy forwards on the encoded port, given
// that it is healthy.
func (s Shape) Accepts(port, inPort int, wasDeflected bool) bool {
	return s.Accept == AcceptNotInput && port != inPort ||
		s.Accept == AcceptAlways ||
		s.Accept == AcceptUndeflected && !wasDeflected
}

// Random reports whether the fallback draws from the RNG. A policy
// whose fallback does not is a pure function of the link state it reads:
// its Decide may be called with a nil rng, and a packet's trajectory
// under it is a walk, not a distribution.
func (s Shape) Random() bool {
	return s.Otherwise == FallbackUniform || s.Otherwise == FallbackUniformNotInput
}

// OnPath computes the encoded port and reports whether the policy
// forwards on it. A hot-potato packet already walking reads nothing of
// the view.
func (s Shape) OnPath(view SwitchView, routeID rns.RouteID, inPort int, wasDeflected bool) (int, bool) {
	if s.Accept == AcceptUndeflected && wasDeflected {
		return 0, false
	}
	port := view.Forward(routeID)
	return port, view.PortUp(port) && s.Accepts(port, inPort, wasDeflected)
}

// decide is Decide for the shapes with no fallback of their own.
func (s Shape) decide(view SwitchView, routeID rns.RouteID, inPort int, wasDeflected bool, rng Rand) Decision {
	if port, ok := s.OnPath(view, routeID, inPort, wasDeflected); ok {
		return Decision{Port: port}
	}
	return s.Fallback(view, inPort, rng)
}

// Fallback is the decision of a drop or uniform fallback for a packet
// whose encoded port the policy did not take. It reads only the port
// states, so a caller that has already rejected the encoded port —
// the switch, on its own cached lines — skips OnPath. A deterministic
// fallback is its policy's Decide and is not stated here: Fallback
// drops.
func (s Shape) Fallback(view SwitchView, inPort int, rng Rand) Decision {
	exclude := -1
	switch s.Otherwise {
	case FallbackUniform:
	case FallbackUniformNotInput:
		exclude = inPort
	default:
		return Decision{Drop: true}
	}
	port, ok := randomPort(view, rng, exclude)
	if !ok {
		return Decision{Drop: true}
	}
	return Decision{Port: port, Deflected: true}
}

// Compile-time interface compliance.
var (
	_ Policy = None{}
	_ Policy = HotPotato{}
	_ Policy = AnyValidPort{}
	_ Policy = NotInputPort{}
	_ Policy = DTree{}
)

// ByName returns the policy with the given short name.
func ByName(name string) (Policy, bool) {
	for _, p := range All() {
		if p.Name() == name {
			return p, true
		}
	}
	return nil, false
}

// All returns the five policies in presentation order.
func All() []Policy {
	return []Policy{None{}, HotPotato{}, AnyValidPort{}, NotInputPort{}, DTree{}}
}

// None is the no-deflection baseline: pure modulo forwarding, packets
// to a down or invalid port are dropped.
type None struct{}

func (None) Name() string { return "none" }
func (None) Shape() Shape { return Shape{AcceptAlways, FallbackDrop} }
func (p None) Decide(view SwitchView, routeID rns.RouteID, inPort int, wasDeflected bool, rng Rand) Decision {
	return p.Shape().decide(view, routeID, inPort, wasDeflected, rng)
}

// HotPotato implements the HP technique: the first deflection switches
// the packet into a permanent uniform random walk, the input port
// included.
type HotPotato struct{}

func (HotPotato) Name() string { return "hp" }
func (HotPotato) Shape() Shape { return Shape{AcceptUndeflected, FallbackUniform} }
func (p HotPotato) Decide(view SwitchView, routeID rns.RouteID, inPort int, wasDeflected bool, rng Rand) Decision {
	return p.Shape().decide(view, routeID, inPort, wasDeflected, rng)
}

// AnyValidPort implements AVP: modulo first, random healthy port (the
// input port allowed) when the modulo result is invalid or down.
type AnyValidPort struct{}

func (AnyValidPort) Name() string { return "avp" }
func (AnyValidPort) Shape() Shape { return Shape{AcceptAlways, FallbackUniform} }
func (p AnyValidPort) Decide(view SwitchView, routeID rns.RouteID, inPort int, wasDeflected bool, rng Rand) Decision {
	return p.Shape().decide(view, routeID, inPort, wasDeflected, rng)
}

// NotInputPort implements NIP (Algorithm 1): like AVP but the input
// port is never used, neither as an accepted modulo result nor as a
// random draw — avoiding two-node routing loops.
type NotInputPort struct{}

func (NotInputPort) Name() string { return "nip" }
func (NotInputPort) Shape() Shape { return Shape{AcceptNotInput, FallbackUniformNotInput} }
func (p NotInputPort) Decide(view SwitchView, routeID rns.RouteID, inPort int, wasDeflected bool, rng Rand) Decision {
	return p.Shape().decide(view, routeID, inPort, wasDeflected, rng)
}

// DTree implements deterministic structured failover over
// destination-rooted trees. It assumes per-destination protection
// planning (the controller's auto-protection mode): every core switch
// then carries a residue pointing toward the packet's own destination
// — on-route switches along the primary path, off-route switches along
// the destination-rooted shortest-path tree. The decision is:
//
//  1. The encoded port, when healthy and not the input port, is taken
//     (NIP's Accept).
//  2. Otherwise the fallback is a circular port scan anchored just
//     past the input port, skipping down ports, the input port, and —
//     on a first pass — edge-facing ports, so fallback traffic stays
//     in the core while any core port is available; a second pass
//     admits edge ports (a misdelivered packet is re-encoded by the
//     edge, which can rescue it). The scan normally ascends; when the
//     packet was already deflected and the encoded port is down (it is
//     wandering a region whose tree links are broken, the state where
//     deterministic cycles form), odd-ID switches scan descending —
//     ID-parity symmetry breaking, so adjacent switches sweep in
//     opposite orientations and cycles unwind.
//  3. When the input port is the only healthy port, the packet bounces
//     back on it (the upstream switch sees its own encoded port as the
//     input port and is forced into its fallback order, so two-node
//     loops resolve after one bounce). Only a switch with no healthy
//     port at all drops.
//
// No step consumes randomness: the walk is a pure function of
// (route ID, failure set), making k-resilience a checkable property
// rather than a probability — internal/resilience scores it by
// following the chain (internal/analysis) under the simulator's TTL,
// and delivery is always 0 or 1.
type DTree struct{}

func (DTree) Name() string { return "dtree" }
func (DTree) Shape() Shape { return Shape{AcceptNotInput, FallbackDeterministic} }

// Decide implements Policy. rng is never touched and may be nil.
func (p DTree) Decide(view SwitchView, routeID rns.RouteID, inPort int, wasDeflected bool, rng Rand) Decision {
	port := view.Forward(routeID)
	span := view.NumPorts()
	if port < span && view.PortUp(port) && p.Shape().Accepts(port, inPort, wasDeflected) {
		return Decision{Port: port}
	}
	if span > 0 {
		// port can exceed span (invalid residue); reduce it so the
		// anchor stays well-defined. Packets originated by a local
		// edge function (inPort -1) anchor at the residue instead.
		anchor := port % span
		if inPort >= 0 && inPort < span {
			anchor = inPort
		}
		dir := 1
		if wasDeflected && port != inPort && view.SwitchID()%2 == 1 {
			dir = -1
		}
		for pass := 0; pass < 2; pass++ {
			for i := 1; i <= span; i++ {
				cand := (anchor + dir*i) % span
				if cand < 0 {
					cand += span
				}
				if cand == inPort || !view.PortUp(cand) {
					continue
				}
				if pass == 0 && view.EdgePort(cand) {
					continue
				}
				return Decision{Port: cand, Deflected: true}
			}
		}
	}
	if inPort >= 0 && inPort < span && view.PortUp(inPort) {
		return Decision{Port: inPort, Deflected: true}
	}
	return Decision{Drop: true}
}

// randomPort draws uniformly among healthy ports, excluding exclude
// (pass -1 to exclude nothing). It reports failure when no candidate
// exists. Reservoir-style single pass keeps the draw uniform without
// allocating.
func randomPort(view SwitchView, rng Rand, exclude int) (int, bool) {
	chosen, seen := -1, 0
	for i, n := 0, view.NumPorts(); i < n; i++ {
		if i == exclude || !view.PortUp(i) {
			continue
		}
		seen++
		if rng.Intn(seen) == 0 {
			chosen = i
		}
	}
	return chosen, chosen >= 0
}
