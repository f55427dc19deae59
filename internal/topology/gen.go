package topology

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/coprime"
	"repro/internal/xrand"
)

// GenConfig parameterises random topology generation.
type GenConfig struct {
	// Cores is the number of core switches (≥ 2).
	Cores int
	// ExtraLinks are core links added beyond the spanning tree.
	ExtraLinks int
	// Edges is the number of edge nodes, each attached to one random
	// core (≥ 2 for end-to-end experiments).
	Edges int
	// Seed drives the generator.
	Seed int64
}

// Generate builds a random connected KAR topology: a random spanning
// tree over the cores plus ExtraLinks random chords, with
// pairwise-coprime switch IDs allocated smallest-first (each ID
// strictly above its switch's final degree, as KAR requires). Edge
// nodes attach to distinct random cores. Deterministic per seed.
func Generate(cfg GenConfig) (*Graph, error) {
	if cfg.Cores < 2 {
		return nil, fmt.Errorf("topology: generate: need >= 2 cores, got %d", cfg.Cores)
	}
	if cfg.Edges < 0 || cfg.Edges > cfg.Cores {
		return nil, fmt.Errorf("topology: generate: edges %d out of range [0, %d]", cfg.Edges, cfg.Cores)
	}
	rng := xrand.New(cfg.Seed)

	// Degree plan: spanning tree + chords + edge attachments.
	type link struct{ a, b int }
	var links []link
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
		links = append(links, link{a: a, b: b})
		return true
	}
	// Random spanning tree: attach node i to a random predecessor.
	perm := rng.Perm(cfg.Cores)
	for i := 1; i < cfg.Cores; i++ {
		addLink(perm[i], perm[rng.Intn(i)])
	}
	for added := 0; added < cfg.ExtraLinks; {
		if maxLinks := cfg.Cores * (cfg.Cores - 1) / 2; len(links) >= maxLinks {
			break
		}
		if addLink(rng.Intn(cfg.Cores), rng.Intn(cfg.Cores)) {
			added++
		}
	}

	degree := make([]uint64, cfg.Cores)
	for _, l := range links {
		degree[l.a]++
		degree[l.b]++
	}
	edgeAt := rng.Perm(cfg.Cores)[:cfg.Edges]
	for _, c := range edgeAt {
		degree[c]++
	}

	// Allocate coprime IDs: each must exceed the switch's port count.
	mins := make([]uint64, cfg.Cores)
	for i, d := range degree {
		mins[i] = d + 1
	}
	ids, err := coprime.Assign(mins)
	if err != nil {
		return nil, fmt.Errorf("topology: generate: %w", err)
	}

	g := New(fmt.Sprintf("rand-%d-%d", cfg.Cores, cfg.Seed))
	names := make([]string, cfg.Cores)
	for i, id := range ids {
		names[i] = fmt.Sprintf("SW%d", id)
		if _, err := g.AddCore(names[i], id); err != nil {
			return nil, err
		}
	}
	for i, c := range edgeAt {
		name := fmt.Sprintf("E%d", i+1)
		if _, err := g.AddEdge(name); err != nil {
			return nil, err
		}
		if _, err := g.Connect(name, names[c], WithQueuePackets(HostQueuePackets)); err != nil {
			return nil, err
		}
	}
	for _, l := range links {
		if _, err := g.Connect(names[l.a], names[l.b]); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// FatTree builds the standard k-ary fat-tree datacenter fabric
// (k even, k >= 2): k pods of k/2 aggregation and k/2 top-of-rack
// switches, (k/2)^2 core-layer switches, and one KAR edge host per
// ToR. Core group i connects to aggregation switch i of every pod;
// every ToR connects to every aggregation switch in its pod. Switch
// IDs are allocated pairwise-coprime smallest-first over the analytic
// degree plan, so the graph is fully deterministic in k. Pod switches
// are inserted pod-by-pod before the core layer, which keeps
// contiguous region partitions (PartitionRegions) pod-aligned.
func FatTree(k int) (*Graph, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topology: fattree: k must be even and >= 2, got %d", k)
	}
	half := k / 2
	nSwitches := k*k + half*half // k pods x (half agg + half tor) + core layer

	// Analytic degree plan in insertion order: per pod, aggs then
	// ToRs; core layer last. Agg: half up + half down. ToR: half up
	// + one host. Core: one link per pod.
	mins := make([]uint64, 0, nSwitches)
	for p := 0; p < k; p++ {
		for i := 0; i < half; i++ {
			mins = append(mins, uint64(k)+1) // agg
		}
		for i := 0; i < half; i++ {
			mins = append(mins, uint64(half)+2) // tor
		}
	}
	for c := 0; c < half*half; c++ {
		mins = append(mins, uint64(k)+1) // core
	}
	ids, err := coprime.Assign(mins)
	if err != nil {
		return nil, fmt.Errorf("topology: fattree: %w", err)
	}

	g := New(fmt.Sprintf("fattree-%d", k))
	agg := make([][]string, k)
	tor := make([][]string, k)
	next := 0
	for p := 0; p < k; p++ {
		agg[p] = make([]string, half)
		tor[p] = make([]string, half)
		for i := 0; i < half; i++ {
			agg[p][i] = fmt.Sprintf("A%d_%d", p, i)
			if _, err := g.AddCore(agg[p][i], ids[next]); err != nil {
				return nil, err
			}
			next++
		}
		for i := 0; i < half; i++ {
			tor[p][i] = fmt.Sprintf("T%d_%d", p, i)
			if _, err := g.AddCore(tor[p][i], ids[next]); err != nil {
				return nil, err
			}
			next++
		}
	}
	cores := make([]string, half*half)
	for c := range cores {
		cores[c] = fmt.Sprintf("C%d_%d", c/half, c%half)
		if _, err := g.AddCore(cores[c], ids[next]); err != nil {
			return nil, err
		}
		next++
	}

	// Hosts and intra-pod fabric, pod by pod; core uplinks last.
	for p := 0; p < k; p++ {
		for t := 0; t < half; t++ {
			host := fmt.Sprintf("E%d", p*half+t)
			if _, err := g.AddEdge(host); err != nil {
				return nil, err
			}
			if _, err := g.Connect(host, tor[p][t], WithQueuePackets(HostQueuePackets)); err != nil {
				return nil, err
			}
		}
		for t := 0; t < half; t++ {
			for a := 0; a < half; a++ {
				if _, err := g.Connect(tor[p][t], agg[p][a]); err != nil {
					return nil, err
				}
			}
		}
	}
	for c, name := range cores {
		group := c / half
		for p := 0; p < k; p++ {
			if _, err := g.Connect(name, agg[p][group]); err != nil {
				return nil, err
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Clos builds a two-tier leaf-spine fabric: every leaf connects to
// every spine, with one KAR edge host per leaf. Deterministic in
// (leaves, spines).
func Clos(leaves, spines int) (*Graph, error) {
	if leaves < 2 || spines < 1 {
		return nil, fmt.Errorf("topology: clos: need >= 2 leaves and >= 1 spine, got %d/%d", leaves, spines)
	}
	mins := make([]uint64, 0, leaves+spines)
	for i := 0; i < leaves; i++ {
		mins = append(mins, uint64(spines)+2) // spines up + one host
	}
	for i := 0; i < spines; i++ {
		mins = append(mins, uint64(leaves)+1)
	}
	ids, err := coprime.Assign(mins)
	if err != nil {
		return nil, fmt.Errorf("topology: clos: %w", err)
	}

	g := New(fmt.Sprintf("clos-%d-%d", leaves, spines))
	leaf := make([]string, leaves)
	for i := range leaf {
		leaf[i] = fmt.Sprintf("L%d", i)
		if _, err := g.AddCore(leaf[i], ids[i]); err != nil {
			return nil, err
		}
	}
	spine := make([]string, spines)
	for i := range spine {
		spine[i] = fmt.Sprintf("S%d", i)
		if _, err := g.AddCore(spine[i], ids[leaves+i]); err != nil {
			return nil, err
		}
	}
	for i, l := range leaf {
		host := fmt.Sprintf("E%d", i)
		if _, err := g.AddEdge(host); err != nil {
			return nil, err
		}
		if _, err := g.Connect(host, l, WithQueuePackets(HostQueuePackets)); err != nil {
			return nil, err
		}
		for _, s := range spine {
			if _, err := g.Connect(l, s); err != nil {
				return nil, err
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// ISP builds an ISP-like backbone by Barabási–Albert preferential
// attachment: an (m+1)-clique seed, then each new switch attaches to
// m distinct existing switches chosen proportionally to degree. hosts
// KAR edge nodes attach to switches spread evenly across the
// insertion order. Deterministic per seed.
func ISP(cores, m, hosts int, seed int64) (*Graph, error) {
	if m < 1 || cores < m+2 {
		return nil, fmt.Errorf("topology: isp: need m >= 1 and cores >= m+2, got cores=%d m=%d", cores, m)
	}
	if hosts < 0 || hosts > cores {
		return nil, fmt.Errorf("topology: isp: hosts %d out of range [0, %d]", hosts, cores)
	}
	rng := xrand.New(seed)

	type link struct{ a, b int }
	var links []link
	// Preferential-attachment urn: every link endpoint appears once.
	urn := make([]int, 0, 2*(m*cores))
	for a := 0; a <= m; a++ {
		for b := a + 1; b <= m; b++ {
			links = append(links, link{a, b})
			urn = append(urn, a, b)
		}
	}
	picked := make(map[int]bool, m)
	for v := m + 1; v < cores; v++ {
		for k := range picked {
			delete(picked, k)
		}
		for len(picked) < m {
			picked[urn[rng.Intn(len(urn))]] = true
		}
		// Deterministic link order for the chosen targets.
		targets := make([]int, 0, m)
		for t := range picked {
			targets = append(targets, t)
		}
		sort.Ints(targets)
		for _, t := range targets {
			links = append(links, link{t, v})
			urn = append(urn, t, v)
		}
	}

	degree := make([]uint64, cores)
	for _, l := range links {
		degree[l.a]++
		degree[l.b]++
	}
	hostAt := make([]int, hosts)
	for i := range hostAt {
		hostAt[i] = i * cores / max(hosts, 1)
		degree[hostAt[i]]++
	}
	mins := make([]uint64, cores)
	for i, d := range degree {
		mins[i] = d + 1
	}
	ids, err := coprime.Assign(mins)
	if err != nil {
		return nil, fmt.Errorf("topology: isp: %w", err)
	}

	g := New(fmt.Sprintf("isp-%d-%d-%d", cores, m, seed))
	names := make([]string, cores)
	for i, id := range ids {
		names[i] = fmt.Sprintf("SW%d", id)
		if _, err := g.AddCore(names[i], id); err != nil {
			return nil, err
		}
	}
	for i, c := range hostAt {
		host := fmt.Sprintf("E%d", i)
		if _, err := g.AddEdge(host); err != nil {
			return nil, err
		}
		if _, err := g.Connect(host, names[c], WithQueuePackets(HostQueuePackets)); err != nil {
			return nil, err
		}
	}
	for _, l := range links {
		if _, err := g.Connect(names[l.a], names[l.b]); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// MaxSpecSwitches is the largest topology FromSpec builds, in switches
// (fattree:56 has 3 920; the largest any experiment uses, fattree:28,
// has 980). A spec arrives from a flag, a scenario file or a daemon
// request, and every generator sizes its slices from it.
const MaxSpecSwitches = 4096

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
	parts := strings.Split(rest, ":")
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
	// then the switch count they imply.
	size := slices.Max(nums[:min(len(nums), 3)])
	if size <= MaxSpecSwitches {
		switch {
		case kind == "fattree" && len(nums) == 1:
			size = nums[0]*nums[0] + nums[0]*nums[0]/4
		case kind == "clos" && len(nums) == 2:
			size = nums[0] + nums[1]
		}
	}
	if size > MaxSpecSwitches {
		return nil, fmt.Errorf("topology: spec %q: %d exceeds the limit of %d on a spec's switches and on each of its counts", spec, size, MaxSpecSwitches)
	}
	switch kind {
	case "rand":
		if len(nums) != 4 {
			return nil, fmt.Errorf("topology: spec %q: want rand:<cores>:<extra-links>:<edges>:<seed>", spec)
		}
		return Generate(GenConfig{Cores: int(nums[0]), ExtraLinks: int(nums[1]), Edges: int(nums[2]), Seed: nums[3]})
	case "fattree":
		if len(nums) != 1 {
			return nil, fmt.Errorf("topology: spec %q: want fattree:<k>", spec)
		}
		return FatTree(int(nums[0]))
	case "clos":
		if len(nums) != 2 {
			return nil, fmt.Errorf("topology: spec %q: want clos:<leaves>:<spines>", spec)
		}
		return Clos(int(nums[0]), int(nums[1]))
	case "isp":
		if len(nums) != 4 {
			return nil, fmt.Errorf("topology: spec %q: want isp:<cores>:<m>:<hosts>:<seed>", spec)
		}
		return ISP(int(nums[0]), int(nums[1]), int(nums[2]), nums[3])
	default:
		return nil, fmt.Errorf("topology: unknown generator spec %q", spec)
	}
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
	if !ok {
		return false
	}
	switch kind {
	case "rand", "fattree", "clos", "isp":
		return true
	}
	return false
}
