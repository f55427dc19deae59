package deflect

import (
	"math/rand"
	"testing"

	"repro/internal/rns"
)

// fakeView is a test SwitchView: a switch ID plus per-port health and
// optional edge-facing port marks.
type fakeView struct {
	id    uint64
	ports []bool // up/down per port; length = NumPorts
	edges []bool // true when the port faces an edge function; nil = all core
}

func (f fakeView) SwitchID() uint64 { return f.id }
func (f fakeView) Forward(r rns.RouteID) int {
	return int(rns.NewReducer(f.id).Mod(r))
}
func (f fakeView) NumPorts() int { return len(f.ports) }
func (f fakeView) PortUp(i int) bool {
	return i >= 0 && i < len(f.ports) && f.ports[i]
}
func (f fakeView) EdgePort(i int) bool {
	return f.edges != nil && i >= 0 && i < len(f.edges) && f.edges[i]
}

func rid(v uint64) rns.RouteID { return rns.RouteIDFromUint64(v) }

func TestByName(t *testing.T) {
	for _, name := range []string{"none", "hp", "avp", "nip", "dtree"} {
		p, ok := ByName(name)
		if !ok {
			t.Fatalf("ByName(%q) not found", name)
		}
		if p.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, ok := ByName("bogus"); ok {
		t.Error("ByName(bogus) succeeded")
	}
	if got := len(All()); got != 5 {
		t.Errorf("All() returned %d policies, want 5", got)
	}
}

// TestHealthyPathAllPoliciesAgree: with the encoded port healthy,
// every policy (except NIP when the modulo points backwards) forwards
// by modulo without deflecting.
func TestHealthyPathAllPoliciesAgree(t *testing.T) {
	// Paper example: R=660 at SW7 → port 2.
	view := fakeView{id: 7, ports: []bool{true, true, true}}
	rng := rand.New(rand.NewSource(1))
	for _, p := range All() {
		d := p.Decide(view, rid(660), 0, false, rng)
		if d.Drop || d.Deflected || d.Port != 2 {
			t.Errorf("%s: decision = %+v, want healthy forward to port 2", p.Name(), d)
		}
	}
}

func TestNoneDropsOnFailure(t *testing.T) {
	view := fakeView{id: 7, ports: []bool{true, true, false}} // port 2 down
	rng := rand.New(rand.NewSource(1))
	d := (None{}).Decide(view, rid(660), 0, false, rng)
	if !d.Drop {
		t.Errorf("decision = %+v, want drop", d)
	}
}

func TestNoneDropsOnInvalidPort(t *testing.T) {
	// R mod 11 = 660 mod 11 = 0; make the switch have port 0 down.
	view := fakeView{id: 11, ports: []bool{false, true}}
	rng := rand.New(rand.NewSource(1))
	if d := (None{}).Decide(view, rid(660), 1, false, rng); !d.Drop {
		t.Errorf("decision = %+v, want drop", d)
	}
	// A modulo result beyond the port space is also a drop.
	view = fakeView{id: 97, ports: []bool{true, true}} // 660 mod 97 = 78
	if d := (None{}).Decide(view, rid(660), 1, false, rng); !d.Drop {
		t.Errorf("decision = %+v, want drop for out-of-range port", d)
	}
}

// TestAVPDeflectsUniformly: with the encoded port down, AVP picks
// among ALL healthy ports, including the input port.
func TestAVPDeflectsUniformly(t *testing.T) {
	view := fakeView{id: 7, ports: []bool{true, true, false}} // encoded port 2 down
	rng := rand.New(rand.NewSource(42))
	counts := map[int]int{}
	const trials = 20000
	for i := 0; i < trials; i++ {
		d := AnyValidPort{}.Decide(view, rid(660), 0, false, rng)
		if d.Drop || !d.Deflected {
			t.Fatalf("decision = %+v, want deflection", d)
		}
		counts[d.Port]++
	}
	if len(counts) != 2 {
		t.Fatalf("AVP used ports %v, want exactly {0, 1}", counts)
	}
	for port, c := range counts {
		frac := float64(c) / trials
		if frac < 0.45 || frac > 0.55 {
			t.Errorf("port %d drawn with frequency %.3f, want ~0.5 (uniform)", port, frac)
		}
	}
	if counts[0] == 0 {
		t.Error("AVP never used the input port; it must be allowed to")
	}
}

// TestNIPExcludesInputPort: same scenario, NIP must never pick port 0
// (the input port) — the paper's two-node loop avoidance.
func TestNIPExcludesInputPort(t *testing.T) {
	view := fakeView{id: 7, ports: []bool{true, true, false}}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		d := NotInputPort{}.Decide(view, rid(660), 0, false, rng)
		if d.Drop {
			t.Fatal("NIP dropped with a healthy candidate available")
		}
		if d.Port == 0 {
			t.Fatal("NIP chose the input port")
		}
		if d.Port != 1 {
			t.Fatalf("NIP chose port %d, want 1 (only non-input healthy port)", d.Port)
		}
	}
}

// TestNIPRejectsModuloEqualInput: when the modulo result equals the
// input port, NIP re-draws even though the port is healthy (Algorithm
// 1's "or output = in_port" clause).
func TestNIPRejectsModuloEqualInput(t *testing.T) {
	// R=660, switch 7 → port 2; make 2 the input port.
	view := fakeView{id: 7, ports: []bool{true, true, true}}
	rng := rand.New(rand.NewSource(7))
	seen := map[int]bool{}
	for i := 0; i < 2000; i++ {
		d := NotInputPort{}.Decide(view, rid(660), 2, false, rng)
		if d.Drop {
			t.Fatal("unexpected drop")
		}
		if !d.Deflected {
			t.Fatal("NIP must mark the re-draw as a deflection")
		}
		if d.Port == 2 {
			t.Fatal("NIP returned the input port")
		}
		seen[d.Port] = true
	}
	if !seen[0] || !seen[1] {
		t.Errorf("NIP random draw covered ports %v, want both 0 and 1", seen)
	}
}

// TestAVPAcceptsModuloEqualInput: AVP, by contrast, happily bounces
// the packet back out of its incoming port (the paper's only stated
// difference between AVP and NIP).
func TestAVPAcceptsModuloEqualInput(t *testing.T) {
	view := fakeView{id: 7, ports: []bool{true, true, true}}
	rng := rand.New(rand.NewSource(7))
	d := AnyValidPort{}.Decide(view, rid(660), 2, false, rng)
	if d.Drop || d.Deflected || d.Port != 2 {
		t.Errorf("decision = %+v, want undeflected forward to port 2", d)
	}
}

// TestHotPotatoRandomWalkIsSticky: once deflected, HP ignores the
// modulo even when the encoded port is healthy.
func TestHotPotatoRandomWalkIsSticky(t *testing.T) {
	view := fakeView{id: 7, ports: []bool{true, true, true}}
	rng := rand.New(rand.NewSource(3))
	sawNonModulo := false
	for i := 0; i < 200; i++ {
		d := HotPotato{}.Decide(view, rid(660), 0, true, rng)
		if d.Drop {
			t.Fatal("unexpected drop")
		}
		if !d.Deflected {
			t.Fatal("HP walk decision must stay flagged as deflected")
		}
		if d.Port != 2 {
			sawNonModulo = true
		}
	}
	if !sawNonModulo {
		t.Error("HP random walk always followed the modulo port; it must roam")
	}
}

// TestHotPotatoFollowsModuloBeforeDeflection: an undeflected packet on
// a healthy path is forwarded normally.
func TestHotPotatoFollowsModuloBeforeDeflection(t *testing.T) {
	view := fakeView{id: 7, ports: []bool{true, true, true}}
	rng := rand.New(rand.NewSource(3))
	d := HotPotato{}.Decide(view, rid(660), 0, false, rng)
	if d.Drop || d.Deflected || d.Port != 2 {
		t.Errorf("decision = %+v, want modulo forward to port 2", d)
	}
}

// TestAllPoliciesDropWhenNoPortViable: a switch whose only healthy
// port is the input port leaves NIP with nothing; a switch with no
// healthy ports leaves everyone with nothing.
func TestAllPoliciesDropWhenNoPortViable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dead := fakeView{id: 7, ports: []bool{false, false, false}}
	for _, p := range All() {
		if d := p.Decide(dead, rid(660), 0, false, rng); !d.Drop {
			t.Errorf("%s on a dead switch: decision = %+v, want drop", p.Name(), d)
		}
	}
	onlyInput := fakeView{id: 7, ports: []bool{true, false, false}}
	if d := (NotInputPort{}).Decide(onlyInput, rid(660), 0, false, rng); !d.Drop {
		t.Errorf("NIP with only the input port healthy: decision = %+v, want drop", d)
	}
	// AVP can still bounce it back.
	if d := (AnyValidPort{}).Decide(onlyInput, rid(660), 0, false, rng); d.Drop || d.Port != 0 {
		t.Errorf("AVP with only the input port healthy: decision = %+v, want bounce to port 0", d)
	}
}

// TestOnlyHealthyPortIsInput pins the policy split when the single
// healthy port is the packet's input port: NIP must drop (it may never
// reuse the input port), AVP and DTree must bounce the packet back out
// of it, and None's verdict depends only on whether the modulo result
// happens to be that port. The degenerate 1-port switch is the same
// situation in its purest form.
func TestOnlyHealthyPortIsInput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// R=660 at SW7 → encoded port 2. Ports 1 and 2 down; only the
	// input port 0 survives.
	only := fakeView{id: 7, ports: []bool{true, false, false}}
	// R=660 at SW11 → encoded port 0: the 1-port switch's only port,
	// which is also the input port.
	onePort := fakeView{id: 11, ports: []bool{true}}
	cases := []struct {
		name       string
		policy     Policy
		view       fakeView
		inPort     int
		wantDrop   bool
		wantPort   int
		wantBounce bool
	}{
		{"nip/only-input", NotInputPort{}, only, 0, true, 0, false},
		{"avp/only-input", AnyValidPort{}, only, 0, false, 0, true},
		{"dtree/only-input", DTree{}, only, 0, false, 0, true},
		{"hp/only-input", HotPotato{}, only, 0, false, 0, true},
		{"none/only-input", None{}, only, 0, true, 0, false}, // encoded port 2 is down
		{"nip/one-port", NotInputPort{}, onePort, 0, true, 0, false},
		{"avp/one-port", AnyValidPort{}, onePort, 0, false, 0, false}, // encoded==0 is up: plain forward
		{"dtree/one-port", DTree{}, onePort, 0, false, 0, true},       // encoded==input: bounce
		{"none/one-port", None{}, onePort, 0, false, 0, false},        // no input-port exclusion at all
	}
	for _, tc := range cases {
		d := tc.policy.Decide(tc.view, rid(660), tc.inPort, false, rng)
		if d.Drop != tc.wantDrop {
			t.Errorf("%s: drop = %v, want %v (decision %+v)", tc.name, d.Drop, tc.wantDrop, d)
			continue
		}
		if !tc.wantDrop && d.Port != tc.wantPort {
			t.Errorf("%s: port = %d, want %d", tc.name, d.Port, tc.wantPort)
		}
		if !tc.wantDrop && d.Deflected != tc.wantBounce {
			t.Errorf("%s: deflected = %v, want %v", tc.name, d.Deflected, tc.wantBounce)
		}
	}
}

// TestDTreeDeterministicFallback pins the structured-failover scan:
// anchored just past the input port, core ports before edge ports,
// descending on odd switch IDs once the packet is already deflected
// and the encoded port is down. rng is nil throughout — DTree may
// never consume randomness.
func TestDTreeDeterministicFallback(t *testing.T) {
	// R=660 at SW7 → encoded port 2 (down). Input port 0. Healthy: 0,1,3.
	v := fakeView{id: 7, ports: []bool{true, true, false, true}}
	// Fresh packet: scan ascends from input+1 → port 1.
	if d := (DTree{}).Decide(v, rid(660), 0, false, nil); d.Drop || d.Port != 1 || !d.Deflected {
		t.Errorf("fresh fallback: %+v, want deflect to port 1", d)
	}
	// Already-deflected packet on an odd-ID switch: scan descends from
	// input-1 → span-1 = port 3.
	if d := (DTree{}).Decide(v, rid(660), 0, true, nil); d.Drop || d.Port != 3 {
		t.Errorf("deflected fallback (odd ID): %+v, want port 3", d)
	}
	// Same state on an even-ID switch ascends: 660 mod 10 = 0 = input;
	// that is the bounce case, which ascends regardless of parity —
	// use input 1 instead (encoded 0 down to force the scan).
	ve := fakeView{id: 10, ports: []bool{false, true, true, true}}
	if d := (DTree{}).Decide(ve, rid(660), 1, true, nil); d.Drop || d.Port != 2 {
		t.Errorf("deflected fallback (even ID): %+v, want port 2", d)
	}
	// Edge ports lose to core ports: mark port 1 edge-facing; the
	// ascending scan must skip to port 3.
	vSkip := fakeView{id: 7, ports: []bool{true, true, false, true}, edges: []bool{false, true, false, false}}
	if d := (DTree{}).Decide(vSkip, rid(660), 0, false, nil); d.Drop || d.Port != 3 {
		t.Errorf("edge-skip fallback: %+v, want port 3", d)
	}
	// ...but an edge port is taken when it is the only alternative
	// (second pass): re-encoding at a wrong edge can rescue the packet.
	vOnlyEdge := fakeView{id: 7, ports: []bool{true, true, false, false}, edges: []bool{false, true, false, false}}
	if d := (DTree{}).Decide(vOnlyEdge, rid(660), 0, false, nil); d.Drop || d.Port != 1 {
		t.Errorf("edge-only fallback: %+v, want port 1", d)
	}
	// Bounce (encoded == input) keeps ascending on odd IDs too.
	vb := fakeView{id: 7, ports: []bool{true, true, true}}
	if d := (DTree{}).Decide(vb, rid(660), 2, true, nil); d.Drop || d.Port != 0 {
		t.Errorf("bounce-case scan: %+v, want port 0", d)
	}
}

// TestDrivenDeflectionAtSW5: the paper's Fig. 1 contrast — at SW5 with
// R=660 every policy forwards to port 0 (toward SW11) because SW5 is
// encoded; deflected packets cease their random walk there under
// AVP/NIP but NOT under HP.
func TestDrivenDeflectionAtSW5(t *testing.T) {
	view := fakeView{id: 5, ports: []bool{true, true}}
	rng := rand.New(rand.NewSource(11))
	for _, p := range []Policy{AnyValidPort{}, NotInputPort{}} {
		d := p.Decide(view, rid(660), 1, true, rng)
		if d.Drop || d.Port != 0 {
			t.Errorf("%s at SW5: decision = %+v, want driven forward to port 0", p.Name(), d)
		}
	}
	// HP keeps roaming: over many draws it must sometimes pick port 1.
	sawOther := false
	for i := 0; i < 500; i++ {
		if d := (HotPotato{}).Decide(view, rid(660), 1, true, rng); d.Port != 0 {
			sawOther = true
		}
	}
	if !sawOther {
		t.Error("HP at SW5 always chose the driven port; its walk must stay random")
	}
}

// The five Decide bodies as they stood when each policy was written out
// on its own, kept verbatim as the reference TestShapeMatchesReference
// holds the shape-driven Decide against.

func refNone(view SwitchView, routeID rns.RouteID, inPort int, wasDeflected bool, rng *rand.Rand) Decision {
	port := view.Forward(routeID)
	if !view.PortUp(port) {
		return Decision{Drop: true}
	}
	return Decision{Port: port}
}

func refHotPotato(view SwitchView, routeID rns.RouteID, inPort int, wasDeflected bool, rng *rand.Rand) Decision {
	if !wasDeflected {
		if port := view.Forward(routeID); view.PortUp(port) {
			return Decision{Port: port}
		}
	}
	// Complete random path: uniform over healthy ports, the input
	// port included.
	port, ok := refRandomPort(view, rng, -1)
	if !ok {
		return Decision{Drop: true}
	}
	return Decision{Port: port, Deflected: true}
}

func refAnyValidPort(view SwitchView, routeID rns.RouteID, inPort int, wasDeflected bool, rng *rand.Rand) Decision {
	if port := view.Forward(routeID); view.PortUp(port) {
		return Decision{Port: port}
	}
	port, ok := refRandomPort(view, rng, -1)
	if !ok {
		return Decision{Drop: true}
	}
	return Decision{Port: port, Deflected: true}
}

func refNotInputPort(view SwitchView, routeID rns.RouteID, inPort int, wasDeflected bool, rng *rand.Rand) Decision {
	if port := view.Forward(routeID); view.PortUp(port) && port != inPort {
		return Decision{Port: port}
	}
	port, ok := refRandomPort(view, rng, inPort)
	if !ok {
		return Decision{Drop: true}
	}
	return Decision{Port: port, Deflected: true}
}

func refDTree(view SwitchView, routeID rns.RouteID, inPort int, wasDeflected bool, rng *rand.Rand) Decision {
	port := view.Forward(routeID)
	span := view.NumPorts()
	if port < span && view.PortUp(port) && port != inPort {
		return Decision{Port: port}
	}
	if span > 0 {
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

func refRandomPort(view SwitchView, rng *rand.Rand, exclude int) (int, bool) {
	chosen, seen := -1, 0
	for i := 0; i < view.NumPorts(); i++ {
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

// countingSource counts the draws made from a seeded source.
type countingSource struct {
	rand.Source64
	draws int
}

func (c *countingSource) Int63() int64   { c.draws++; return c.Source64.Int63() }
func (c *countingSource) Uint64() uint64 { c.draws++; return c.Source64.Uint64() }

// TestShapeMatchesReference: for every built-in policy, over every view
// of up to four ports × health mask × edge mask × input port × deflected
// flag × residue, on an odd and an even switch ID, the shape-driven
// Decide returns the reference's decision and leaves an RNG seeded alike
// in the same state after the same number of draws; and the shape's
// Accepts is exactly "the reference forwards on a healthy encoded port".
func TestShapeMatchesReference(t *testing.T) {
	refs := map[string]func(SwitchView, rns.RouteID, int, bool, *rand.Rand) Decision{
		"none": refNone, "hp": refHotPotato, "avp": refAnyValidPort, "nip": refNotInputPort, "dtree": refDTree,
	}
	for _, p := range All() {
		ref := refs[p.Name()]
		if ref == nil {
			t.Fatalf("%s: no reference", p.Name())
		}
		if p.Shape() == (Shape{}) {
			t.Fatalf("%s declares no shape", p.Name())
		}
		gotSrc := &countingSource{Source64: rand.NewSource(99).(rand.Source64)}
		wantSrc := &countingSource{Source64: rand.NewSource(99).(rand.Source64)}
		gotRNG, wantRNG := rand.New(gotSrc), rand.New(wantSrc)
		var cases, drew int
		for n := 0; n <= 4; n++ {
			for mask := 0; mask < 1<<(2*n); mask++ {
				view := fakeView{ports: make([]bool, n), edges: make([]bool, n)}
				for i := 0; i < n; i++ {
					view.ports[i] = mask>>i&1 == 1
					view.edges[i] = mask>>(n+i)&1 == 1
				}
				for _, view.id = range []uint64{7, 8} {
					for inPort := -1; inPort < 4; inPort++ {
						for _, deflected := range []bool{false, true} {
							for residue := 0; residue < 6; residue++ {
								before := wantSrc.draws
								got := p.Decide(view, rid(uint64(residue)), inPort, deflected, gotRNG)
								want := ref(view, rid(uint64(residue)), inPort, deflected, wantRNG)
								if got != want || gotSrc.draws != wantSrc.draws {
									t.Fatalf("%s ports=%v edges=%v id=%d in=%d deflected=%v residue=%d: %+v after %d draws, reference %+v after %d",
										p.Name(), view.ports, view.edges, view.id, inPort, deflected, residue, got, gotSrc.draws, want, wantSrc.draws)
								}
								onPath := !want.Drop && !want.Deflected
								if onPath && (want.Port != residue || wantSrc.draws != before) {
									t.Fatalf("%s: reference forwards on-path to %d after %d draws, residue %d", p.Name(), want.Port, wantSrc.draws-before, residue)
								}
								if accepts := view.PortUp(residue) && p.Shape().Accepts(residue, inPort, deflected); accepts != onPath {
									t.Fatalf("%s ports=%v in=%d deflected=%v residue=%d: shape accepts=%v, reference on-path=%v",
										p.Name(), view.ports, inPort, deflected, residue, accepts, onPath)
								}
								cases++
								if wantSrc.draws != before {
									drew++
								}
							}
						}
					}
				}
			}
		}
		if p.Shape().Random() != (drew > 0) {
			t.Errorf("%s: shape says Random=%v, the reference drew in %d of %d cases", p.Name(), p.Shape().Random(), drew, cases)
		}
		if gotRNG.Int63() != wantRNG.Int63() {
			t.Errorf("%s: RNG streams diverged", p.Name())
		}
	}
}
