// Package core implements the KAR routing system's contribution: the
// mapping between forwarding paths and RNS route IDs (paper §2.2), the
// driven-deflection protection planning that embeds extra forwarding
// hops in the same route ID (§2, Fig. 1b), the single-residue
// constraint (§3.2), and the encoding-size accounting (§2.3).
//
// The core data-plane rule is one line: a switch with ID s forwards a
// packet carrying route ID R out of port R mod s. Everything else in
// this package runs at the controller.
package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/rns"
	"repro/internal/topology"
)

// Errors reported by route construction.
var (
	ErrPathTooShort      = errors.New("core: path needs at least one core switch between two edges")
	ErrPathEndpoints     = errors.New("core: path must start and end at edge nodes")
	ErrNotAdjacent       = errors.New("core: consecutive path nodes are not adjacent")
	ErrDuplicateSwitch   = errors.New("core: switch appears more than once in route ID (single-residue constraint)")
	ErrPortTooLarge      = errors.New("core: port index not below switch ID")
	ErrBudgetTooSmall    = errors.New("core: bit budget cannot fit even the unprotected route")
	ErrProtectionOverlap = errors.New("core: protection hop duplicates a route switch")
)

// Hop is one encoded (switch, output port) pair — a single RNS residue.
type Hop struct {
	Switch *topology.Node
	Port   int
}

// String renders "SW7→2".
func (h Hop) String() string {
	return fmt.Sprintf("%s→%d", h.Switch.Name(), h.Port)
}

// HopToward builds the hop at switch from toward neighbour to.
func HopToward(g *topology.Graph, from, to string) (Hop, error) {
	n, ok := g.Node(from)
	if !ok {
		return Hop{}, fmt.Errorf("hop switch %q: %w", from, topology.ErrUnknownNode)
	}
	port, ok := n.PortToward(to)
	if !ok {
		return Hop{}, fmt.Errorf("hop %s→%s: %w", from, to, ErrNotAdjacent)
	}
	return Hop{Switch: n, Port: port}, nil
}

// HopsFromPairs converts (switch, neighbour) name pairs into hops; it
// is how experiments express the paper's named protection sets.
func HopsFromPairs(g *topology.Graph, pairs [][2]string) ([]Hop, error) {
	out := make([]Hop, 0, len(pairs))
	for _, p := range pairs {
		h, err := HopToward(g, p[0], p[1])
		if err != nil {
			return nil, err
		}
		out = append(out, h)
	}
	return out, nil
}

// Route is a fully encoded KAR route: the primary path, the protection
// hops sharing its route ID, the RNS basis, and the route ID itself.
// It is immutable once EncodeRoute returns: the controllers on one
// graph share it through the graph's route book, so nothing writes
// into it or its slices (TestRoutesAreImmutable audits the module).
type Route struct {
	// Path is the edge-to-edge primary path.
	Path topology.Path
	// Primary holds the encoded hops of the primary path, in path order.
	Primary []Hop
	// Protection holds the driven-deflection hops, if any.
	Protection []Hop
	// System is the RNS basis (primary then protection switch IDs).
	System *rns.System
	// ID is the route ID to stamp on packets.
	ID rns.RouteID
}

// BitLength returns the header bits this route requires (Eq. 9).
func (r *Route) BitLength() int { return r.System.BitLength() }

// SwitchCount returns how many switches the route ID encodes (the
// second column of the paper's Table 1).
func (r *Route) SwitchCount() int { return len(r.Primary) + len(r.Protection) }

// String renders a compact description.
func (r *Route) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "R=%s (%d bits, %d switches) path=%s", r.ID, r.BitLength(), r.SwitchCount(), r.Path)
	if len(r.Protection) > 0 {
		prot := make([]string, len(r.Protection))
		for i, h := range r.Protection {
			prot[i] = h.String()
		}
		fmt.Fprintf(&b, " protection=[%s]", strings.Join(prot, " "))
	}
	return b.String()
}

// EncodeRoute encodes an edge-to-edge path plus optional protection
// hops into a route ID. The path must alternate
// edge–core…core–edge; hops are derived from the ports between
// consecutive path nodes, with the last core's hop pointing at the
// egress edge. Enforces the single-residue constraint: a switch may
// appear at most once across primary and protection hops.
func EncodeRoute(path topology.Path, protection []Hop) (*Route, error) {
	// One array holds the primary hops, then the protection hops.
	hops, err := primaryHops(make([]Hop, 0, len(path.Nodes)+len(protection)), path)
	if err == nil {
		err = checkHops(hops, protection)
	}
	if err != nil {
		return nil, err
	}
	primary := hops[:len(hops):len(hops)]
	hops = append(hops, protection...)
	moduli := make([]uint64, len(hops))
	residues := make([]uint64, len(hops))
	for i, h := range hops {
		moduli[i] = h.Switch.ID()
		residues[i] = uint64(h.Port)
	}
	sys, err := rns.NewSystem(moduli)
	if err != nil {
		return nil, fmt.Errorf("route basis: %w", err)
	}
	id, err := sys.Encode(residues)
	if err != nil {
		return nil, fmt.Errorf("route encoding: %w", err)
	}
	return &Route{
		Path:       path,
		Primary:    primary,
		Protection: append([]Hop(nil), protection...),
		System:     sys,
		ID:         id,
	}, nil
}

// CheckRoute reports why EncodeRoute would refuse path with
// protection, without encoding; nil means the route encodes. It
// allocates nothing for a valid path of up to 16 switches.
func CheckRoute(path topology.Path, protection []Hop) error {
	var buf [16]Hop
	primary, err := primaryHops(buf[:0], path)
	if err != nil {
		return err
	}
	return checkHops(primary, protection)
}

// primaryHops appends the encoded hops of an edge-to-edge path to hops;
// the ingress edge must be adjacent to the first switch too.
func primaryHops(hops []Hop, path topology.Path) ([]Hop, error) {
	nodes := path.Nodes
	if len(nodes) < 3 {
		return nil, fmt.Errorf("path %s: %w", path.String(), ErrPathTooShort)
	}
	if nodes[0].Kind() != topology.KindEdge || nodes[len(nodes)-1].Kind() != topology.KindEdge {
		return nil, fmt.Errorf("path %s: %w", path.String(), ErrPathEndpoints)
	}
	for i := 0; i+1 < len(nodes); i++ {
		cur, next := nodes[i], nodes[i+1]
		if i > 0 && cur.Kind() != topology.KindCore {
			return nil, fmt.Errorf("path %s: transit node %s is not a core switch: %w", path.String(), cur, ErrPathEndpoints)
		}
		port, ok := cur.PortToward(next.Name())
		if !ok {
			return nil, fmt.Errorf("path %s: %s and %s: %w", path.String(), cur, next, ErrNotAdjacent)
		}
		if i > 0 {
			hops = append(hops, Hop{Switch: cur, Port: port})
		}
	}
	return hops, nil
}

// checkHops enforces the single-residue constraint over a route's
// primary and protection hops, and that each residue is below its
// switch's ID.
func checkHops(primary, protection []Hop) error {
	for i, h := range primary {
		if hasSwitch(primary[:i], h.Switch) {
			return fmt.Errorf("switch %s: %w", h.Switch, ErrDuplicateSwitch)
		}
	}
	for i, h := range protection {
		if h.Switch.Kind() != topology.KindCore {
			return fmt.Errorf("protection hop %s: not a core switch", h)
		}
		if hasSwitch(primary, h.Switch) || hasSwitch(protection[:i], h.Switch) {
			return fmt.Errorf("protection hop %s: %w", h, ErrProtectionOverlap)
		}
	}
	for _, hops := range [2][]Hop{primary, protection} {
		for _, h := range hops {
			if uint64(h.Port) >= h.Switch.ID() {
				return fmt.Errorf("hop %s with switch ID %d: %w", h, h.Switch.ID(), ErrPortTooLarge)
			}
		}
	}
	return nil
}

func hasSwitch(hops []Hop, sw *topology.Node) bool {
	return slices.ContainsFunc(hops, func(h Hop) bool { return h.Switch == sw })
}

// Forward is the entire KAR core data plane (Algorithm 1, line 3):
// the output port of a switch for a packet carrying route ID r.
// The result may not correspond to an existing or healthy port; that
// is what deflection policies handle.
//
// Hot paths should precompute a per-switch rns.NewReducer(switchID)
// once and use ForwardReduced, which replaces the per-packet division
// with two multiplications.
func Forward(r rns.RouteID, switchID uint64) int {
	return int(r.Mod(switchID))
}

// ForwardReduced is Forward with the switch's precomputed reduction
// constants: the per-packet pipeline of a running switch, division-free.
func ForwardReduced(red rns.Reducer, r rns.RouteID) int {
	return int(red.Mod(r))
}
