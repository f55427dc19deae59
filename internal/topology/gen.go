package topology

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/coprime"
	"repro/internal/slab"
	"repro/internal/xrand"
)

// wire is one link of a generated graph, named by its endpoints: core
// i is i, host h is cores+h. Only a may be a host.
type wire struct{ a, b int }

// build assembles a generated graph from its wire list. Each core's
// switch ID is pairwise coprime with the others and above its degree in
// wires (coprime.Assign over degree+1 minimums), and coreName appends
// its name. Cores are inserted first, in index order. Host h is named
// E<hostBase+h> and inserted just before its first wire, hosts being
// numbered in that order; every host wire carries HostQueuePackets.
// Wires are connected in list order, which fixes every port. The graph's
// slabs are sized from the list, each core's port table at its degree,
// and every node name is a slice of one string.
func build(name string, cores int, coreName func(b []byte, i int, id uint64) []byte, hostBase int, wires []wire) (*Graph, error) {
	mins := make([]uint64, cores)
	hostWires := 0
	for _, w := range wires {
		if w.a < cores {
			mins[w.a]++
		} else {
			hostWires++
		}
		mins[w.b]++
	}
	for i := range mins {
		mins[i]++
	}
	ids, err := coprime.Assign(mins)
	if err != nil {
		return nil, fmt.Errorf("topology: %s: %w", name, err)
	}

	names := nodeNames(ids, coreName, hostBase, hostWires)
	g := newGraph(name, cores+hostWires, len(wires), 2*len(wires))
	for i, id := range ids {
		n, err := g.AddCore(names(i), id)
		if err != nil {
			return nil, err
		}
		n.ports = slab.Cut(&g.portSlab, int(mins[i]-1))[:0]
	}
	for _, w := range wires { // wire endpoint i is node i: g.order[i]
		cfg := defaultLink
		if w.a >= cores {
			if w.a == len(g.order) {
				if _, err := g.AddEdge(names(w.a)); err != nil {
					return nil, err
				}
			}
			cfg.queuePkts = HostQueuePackets
		}
		if _, err := g.connect(g.order[w.a], g.order[w.b], cfg); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// nodeNames appends the name of every core, then of every host, into
// one buffer sized from the node count, converts it to a string once,
// and returns node i's name as a slice of that string.
func nodeNames(ids []uint64, coreName func(b []byte, i int, id uint64) []byte, hostBase, hosts int) func(i int) string {
	n := len(ids) + hosts
	buf := make([]byte, 0, 8*n)
	ends := make([]int32, n)
	for i, id := range ids {
		buf = coreName(buf, i, id)
		ends[i] = int32(len(buf))
	}
	for h := 0; h < hosts; h++ {
		buf = strconv.AppendInt(append(buf, 'E'), int64(hostBase+h), 10)
		ends[len(ids)+h] = int32(len(buf))
	}
	all := string(buf)
	return func(i int) string {
		start := int32(0)
		if i > 0 {
			start = ends[i-1]
		}
		return all[start:ends[i]]
	}
}

// idName names a core by its switch ID, as the rand and isp generators do.
func idName(b []byte, _ int, id uint64) []byte { return strconv.AppendUint(append(b, "SW"...), id, 10) }

// appendPair appends the name <prefix><x>_<y>.
func appendPair(b []byte, prefix byte, x, y int) []byte {
	b = strconv.AppendInt(append(b, prefix), int64(x), 10)
	return strconv.AppendInt(append(b, '_'), int64(y), 10)
}

// generate builds a random connected topology: a random spanning tree
// over the cores plus extra random chords, and edge hosts on distinct
// random cores. Deterministic per seed.
func generate(cores, extra, edges int, seed int64) (*Graph, error) {
	if cores < 2 {
		return nil, fmt.Errorf("topology: generate: need >= 2 cores, got %d", cores)
	}
	if edges < 0 || edges > cores {
		return nil, fmt.Errorf("topology: generate: edges %d out of range [0, %d]", edges, cores)
	}
	rng := xrand.New(seed)

	// The host wires lead the list; their cores are drawn after the chords.
	_, links := randSize(int64(cores), int64(extra), int64(edges))
	wires := make([]wire, edges, links)
	seen := make(map[[2]int]bool)
	addLink := func(a, b int) bool {
		if a == b {
			return false
		}
		if a > b {
			a, b = b, a
		}
		if seen[[2]int{a, b}] {
			return false
		}
		seen[[2]int{a, b}] = true
		wires = append(wires, wire{a, b})
		return true
	}
	// Random spanning tree: attach node i to a random predecessor.
	perm := rng.Perm(cores)
	for i := 1; i < cores; i++ {
		addLink(perm[i], perm[rng.Intn(i)])
	}
	for added := 0; added < extra && len(wires)-edges < cores*(cores-1)/2; {
		if addLink(rng.Intn(cores), rng.Intn(cores)) {
			added++
		}
	}
	for i, c := range rng.Perm(cores)[:edges] {
		wires[i] = wire{cores + i, c}
	}
	return build(fmt.Sprintf("rand-%d-%d", cores, seed), cores, idName, 1, wires)
}

// fatTree builds the standard k-ary fat-tree datacenter fabric (k even,
// k >= 2): k pods of k/2 aggregation and k/2 top-of-rack switches,
// (k/2)^2 core-layer switches, and one edge host per ToR. Core group i
// connects to aggregation switch i of every pod; every ToR connects to
// every aggregation switch in its pod. Pod switches are inserted pod by
// pod (aggregation, then ToR) before the core layer, so a contiguous
// region partition (PartitionRegions) keeps whole every pod no cut
// falls in; it cuts by weight, not at pod boundaries.
func fatTree(k int) (*Graph, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topology: fattree: k must be even and >= 2, got %d", k)
	}
	half := k / 2
	switches, links := fatTreeSize(int64(k))
	cores := int(switches)
	agg := func(p, i int) int { return p*k + i }
	tor := func(p, i int) int { return p*k + half + i }

	// Hosts and intra-pod fabric, pod by pod; core uplinks last.
	wires := make([]wire, 0, links)
	for p := 0; p < k; p++ {
		for t := 0; t < half; t++ {
			wires = append(wires, wire{cores + p*half + t, tor(p, t)})
		}
		for t := 0; t < half; t++ {
			for a := 0; a < half; a++ {
				wires = append(wires, wire{tor(p, t), agg(p, a)})
			}
		}
	}
	for c := 0; c < half*half; c++ {
		for p := 0; p < k; p++ {
			wires = append(wires, wire{k*k + c, agg(p, c/half)})
		}
	}
	name := func(b []byte, i int, _ uint64) []byte {
		if c := i - k*k; c >= 0 {
			return appendPair(b, 'C', c/half, c%half)
		}
		p, j := i/k, i%k
		if j < half {
			return appendPair(b, 'A', p, j)
		}
		return appendPair(b, 'T', p, j-half)
	}
	return build(fmt.Sprintf("fattree-%d", k), cores, name, 0, wires)
}

// clos builds a two-tier leaf-spine fabric: every leaf connects to
// every spine, with one edge host per leaf.
func clos(leaves, spines int) (*Graph, error) {
	if leaves < 2 || spines < 1 {
		return nil, fmt.Errorf("topology: clos: need >= 2 leaves and >= 1 spine, got %d/%d", leaves, spines)
	}
	_, links := closSize(int64(leaves), int64(spines))
	wires := make([]wire, 0, links)
	for i := 0; i < leaves; i++ {
		wires = append(wires, wire{leaves + spines + i, i})
		for s := 0; s < spines; s++ {
			wires = append(wires, wire{i, leaves + s})
		}
	}
	name := func(b []byte, i int, _ uint64) []byte {
		if i < leaves {
			return strconv.AppendInt(append(b, 'L'), int64(i), 10)
		}
		return strconv.AppendInt(append(b, 'S'), int64(i-leaves), 10)
	}
	return build(fmt.Sprintf("clos-%d-%d", leaves, spines), leaves+spines, name, 0, wires)
}

// isp builds an ISP-like backbone by Barabási–Albert preferential
// attachment: an (m+1)-clique seed, then each new switch attaches to m
// distinct existing switches chosen proportionally to degree. The hosts
// attach to switches spread evenly across the insertion order.
// Deterministic per seed.
func isp(cores, m, hosts int, seed int64) (*Graph, error) {
	if m < 1 || cores < m+2 {
		return nil, fmt.Errorf("topology: isp: need m >= 1 and cores >= m+2, got cores=%d m=%d", cores, m)
	}
	if hosts < 0 || hosts > cores {
		return nil, fmt.Errorf("topology: isp: hosts %d out of range [0, %d]", hosts, cores)
	}
	rng := xrand.New(seed)

	_, links := ispSize(int64(cores), int64(m), int64(hosts))
	wires := make([]wire, 0, links)
	for i := 0; i < hosts; i++ {
		wires = append(wires, wire{cores + i, i * cores / hosts})
	}
	// Preferential-attachment urn: every link endpoint appears once.
	urn := make([]int, 0, 2*(m*cores))
	for a := 0; a <= m; a++ {
		for b := a + 1; b <= m; b++ {
			wires = append(wires, wire{a, b})
			urn = append(urn, a, b)
		}
	}
	picked := make(map[int]bool, m)
	targets := make([]int, 0, m)
	for v := m + 1; v < cores; v++ {
		clear(picked)
		for len(picked) < m {
			picked[urn[rng.Intn(len(urn))]] = true
		}
		// Deterministic link order for the chosen targets.
		targets = targets[:0]
		for t := range picked {
			targets = append(targets, t)
		}
		sort.Ints(targets)
		for _, t := range targets {
			wires = append(wires, wire{t, v})
			urn = append(urn, t, v)
		}
	}
	return build(fmt.Sprintf("isp-%d-%d-%d", cores, m, seed), cores, idName, 0, wires)
}

// The switches and links (host links included) a generator's counts
// imply, computed before it runs. rand's are an upper bound: it stops
// adding chords when the cores are fully meshed.
func randSize(cores, extra, edges int64) (int64, int64) {
	return cores, min(cores-1+max(extra, 0), cores*(cores-1)/2) + edges
}

func fatTreeSize(k int64) (int64, int64) { return k*k + k*k/4, k*k/2 + k*k*k/2 }

func closSize(leaves, spines int64) (int64, int64) { return leaves + spines, leaves * (spines + 1) }

func ispSize(cores, m, hosts int64) (int64, int64) {
	return cores, m*(m+1)/2 + (cores-m-1)*m + hosts
}

// MaxSpecSwitches is the largest topology FromSpec builds, in switches
// (fattree:56 has 3 920; the largest any experiment uses, fattree:28,
// has 980). A spec arrives from a flag, a scenario file or a daemon
// request, and every generator sizes its slices from it.
const MaxSpecSwitches = 4096

// MaxSpecLinks bounds the links a spec implies, host links included
// (fattree:56 has 89 376): inside MaxSpecSwitches, a clos or isp spec
// can still ask for millions.
const MaxSpecLinks = 1 << 18

// specKinds are the FromSpec generators: each one's grammar, the
// switches and links its counts imply, and the builder of its numbers.
var specKinds = map[string]struct {
	usage string
	arity int
	size  func(n []int64) (switches, links int64)
	build func(n []int64) (*Graph, error)
}{
	"rand": {"rand:<cores>:<extra-links>:<edges>:<seed>", 4,
		func(n []int64) (int64, int64) { return randSize(n[0], n[1], n[2]) },
		func(n []int64) (*Graph, error) { return generate(int(n[0]), int(n[1]), int(n[2]), n[3]) }},
	"fattree": {"fattree:<k>", 1,
		func(n []int64) (int64, int64) { return fatTreeSize(n[0]) },
		func(n []int64) (*Graph, error) { return fatTree(int(n[0])) }},
	"clos": {"clos:<leaves>:<spines>", 2,
		func(n []int64) (int64, int64) { return closSize(n[0], n[1]) },
		func(n []int64) (*Graph, error) { return clos(int(n[0]), int(n[1])) }},
	"isp": {"isp:<cores>:<m>:<hosts>:<seed>", 4,
		func(n []int64) (int64, int64) { return ispSize(n[0], n[1], n[2]) },
		func(n []int64) (*Graph, error) { return isp(int(n[0]), int(n[1]), int(n[2]), n[3]) }},
}

// FromSpec builds a generated topology from a colon-separated spec:
//
//	rand:<cores>:<extra-links>:<edges>:<seed>
//	fattree:<k>
//	clos:<leaves>:<spines>
//	isp:<cores>:<m>:<hosts>:<seed>
//
// These are the `-topo`/`-verify` names karsim accepts beyond the
// canned scenario topologies.
func FromSpec(spec string) (*Graph, error) {
	kind, rest, _ := strings.Cut(spec, ":")
	gen, ok := specKinds[kind]
	if !ok {
		return nil, fmt.Errorf("topology: unknown generator spec %q", spec)
	}
	parts := strings.Split(rest, ":")
	if len(parts) != gen.arity {
		return nil, fmt.Errorf("topology: spec %q: want %s", spec, gen.usage)
	}
	nums := make([]int64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("topology: spec %q: %w", spec, err)
		}
		nums[i] = v
	}
	// Every count of a spec (the seed, where there is one, is the fourth
	// number) is held to the limit before anything is computed from it,
	// then the switches and links they imply. A negative count, which
	// its generator refuses, counts as none here.
	counts := make([]int64, min(len(nums), 3))
	for i := range counts {
		counts[i] = max(nums[i], 0)
	}
	size, links := slices.Max(counts), int64(0)
	if size <= MaxSpecSwitches {
		size, links = gen.size(counts)
	}
	if size > MaxSpecSwitches {
		return nil, fmt.Errorf("topology: spec %q: %d exceeds the limit of %d on a spec's switches and on each of its counts", spec, size, MaxSpecSwitches)
	}
	if links > MaxSpecLinks {
		return nil, fmt.Errorf("topology: spec %q: %d links exceed the limit of %d on a spec's links", spec, links, MaxSpecLinks)
	}
	return gen.build(nums)
}

// canned maps the names of the hand-built topologies to their builders.
var canned = map[string]func() (*Graph, error){
	"fig1":       Fig1,
	"net15":      Net15,
	"rnp28":      RNP28,
	"rnp28-fig8": RNP28Fig8,
}

// ByName builds the topology a name stands for: a canned topology
// (fig1, net15, rnp28, rnp28-fig8) or a FromSpec generator spec. It is
// the one name→graph resolution of the repository.
func ByName(name string) (*Graph, error) {
	if IsSpec(name) {
		return FromSpec(name)
	}
	build, ok := canned[name]
	if !ok {
		names := make([]string, 0, len(canned))
		for n := range canned {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("topology: unknown topology %q (want one of %v or a generator spec)", name, names)
	}
	return build()
}

// Shared is ByName through SharedGraphs: graphs are immutable after
// construction (all runtime link and queue state lives in simnet), so
// every run and every concurrent job on one topology reuses one
// instance instead of re-running the generator and its coprime-key
// allocation per world.
func Shared(name string) (*Graph, error) {
	return SharedGraphs.Get(name, func() (*Graph, error) { return ByName(name) })
}

// cannedProtection holds the paper's hand-listed driven-deflection
// sets, keyed by (topology name, level).
var cannedProtection = map[[2]string][][2]string{
	{"net15", "partial"}:      Net15PartialProtection,
	{"net15", "full"}:         Net15FullProtection,
	{"rnp28", "partial"}:      RNP28PartialProtection,
	{"rnp28-fig8", "partial"}: RNP28PartialProtection,
}

// Protection resolves a protection level on a named topology to the
// (switch, neighbour) hop pairs installed with each route — the one
// level→pairs resolution of the repository. "", "none" and
// "unprotected" install nothing; "partial" and "full" are the canned
// sets above, which generated topologies do not have; "auto" has no
// static pair list on any topology: auto reports that the controller
// is to plan a destination-rooted protection tree per route.
func Protection(topo, level string) (pairs [][2]string, auto bool, err error) {
	switch level {
	case "", "none", "unprotected":
		return nil, false, nil
	case "auto":
		return nil, true, nil
	case "partial", "full":
	default:
		return nil, false, fmt.Errorf("topology: unknown protection level %q (want none, partial, full or auto)", level)
	}
	if IsSpec(topo) {
		return nil, false, fmt.Errorf("topology: generated topologies have no canned %q protection set (use \"auto\")", level)
	}
	pairs, ok := cannedProtection[[2]string{topo, level}]
	if !ok {
		return nil, false, fmt.Errorf("topology: no %q protection set for topology %q", level, topo)
	}
	return pairs, false, nil
}

// IsSpec reports whether name looks like a FromSpec generator spec
// rather than a canned topology name.
func IsSpec(name string) bool {
	kind, _, ok := strings.Cut(name, ":")
	_, known := specKinds[kind]
	return ok && known
}
