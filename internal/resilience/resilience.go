// Package resilience verifies KAR's core claim — that CRT-embedded
// deflection paths survive failures — exhaustively instead of on
// hand-picked examples: for an arbitrary topology and a
// controller-installed route set it enumerates every single-link
// failure (plus optional seeded samples of two-link failure pairs)
// and computes, for each (route, policy, failure) case, the exact
// delivery verdict from internal/analysis (one Markov chain, solved for
// the policies that deflect at random and followed under the
// simulator's TTL for the ones that never draw).
// The sweep produces per-route resilience scores (fraction of
// failures survived, worst-case delivery probability and stretch) and
// a per-link blast-radius ranking of the failures that actually hurt.
//
// Cases fan out across a bounded worker pool in two passes and land by
// case index, (route, policy, failure) order, so the report and every
// kar_verify_* counter are byte-identical at any worker count.
// Reachability is a property of the failure set alone: the first pass
// labels each set's components once and marks the cases it
// disconnects. The second hands out (route, policy) units, each walking
// the whole failure list on one worker. Static failover decides from
// local link state, so a verdict is a pure function of the route, the
// policy and the links the analysis consulted, the ingress link
// included. A unit keeps its verdicts as a search tree branched on
// those links: the root is the no-failure verdict, a child adds one link
// its parent consulted, and a failure set is answered by the node its
// descent ends at, grown if missing — so which verdicts are computed
// depends on the inputs alone.
package resilience

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/deflect"
	"repro/internal/par"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// surviveEps separates "certain delivery" from "probably delivered":
// a case survives only when PDeliver ≥ 1 - surviveEps.
const surviveEps = 1e-9

// Outcome classifies one (route, policy, failure) case.
type Outcome string

const (
	// Survived: PDeliver ≥ 1-ε — certain delivery for a policy that
	// never draws, whose chain is followed under the simulator's TTL.
	// For one that draws it is the TTL→∞ limit: a walk with a cycle can
	// lose up to 70 % of its packets within packet.DefaultTTL.
	Survived Outcome = "survived"
	// Degraded: delivery is possible but not certain.
	Degraded Outcome = "degraded"
	// Lost: delivery probability is (numerically) zero.
	Lost Outcome = "lost"
	// Disconnected: the failure physically separates src from dst; no
	// routing scheme could deliver, so the case is excluded from
	// survive fractions and blast radii.
	Disconnected Outcome = "disconnected"
)

// RouteSpec names one route to verify. An empty Path means shortest
// path; otherwise Path pins the full node sequence (edge endpoints
// included), like the paper's hand-picked evaluation routes.
type RouteSpec struct {
	Src  string   `json:"src"`
	Dst  string   `json:"dst"`
	Path []string `json:"path,omitempty"`
}

// Config tunes a sweep. Only Workers affects wall clock; every other
// field changes which cases are enumerated, never their order.
type Config struct {
	// Policies to verify (default: none, hp, avp, nip).
	Policies []string
	// Protection is the driven-deflection (switch, neighbour) pair set
	// installed on every route (hops landing on a route's own path are
	// filtered per route, as the controller does on reroute).
	Protection [][2]string
	// AutoProtect plans protection per destination instead of using a
	// hand-listed pair set: the sweep's controller runs with
	// controller.WithAutoProtection, so every route (and every
	// re-encode) gets a complete protection set rooted at its own
	// destination core. Mutually exclusive with Protection.
	AutoProtect bool
	// ProtectionLabel names the protection set in the report ("none",
	// "partial", "full", "auto", ...).
	ProtectionLabel string
	// Pairs samples this many distinct two-link failure pairs on top
	// of the exhaustive single-failure sweep (0: singles only).
	Pairs int
	// PairSeed seeds the pair sampler; the same seed always selects
	// the same pairs.
	PairSeed int64
	// Workers bounds the case-analysis pool (0: one per CPU).
	Workers int
	// Registry receives the kar_verify_* counters (nil: private).
	Registry *telemetry.Registry
	// Progress, when set, is called once per completed (route, policy)
	// unit — the sweep's unit of work — with the running count of cases
	// done (advanced by the failure-set count each time) and the total.
	// Calls come from worker goroutines concurrently and in no
	// deterministic order — it is a liveness channel (the serve daemon
	// streams it), never an input to the report, which stays
	// byte-identical with or without it.
	Progress func(done, total int)
}

// RouteScore aggregates every case of one (route, policy).
type RouteScore struct {
	Src    string `json:"src"`
	Dst    string `json:"dst"`
	Policy string `json:"policy"`

	// Single-failure census. Singles counts the connected cases;
	// SurviveFraction = Survived/Singles (1 when no case applies).
	Singles         int     `json:"single_failures"`
	Survived        int     `json:"survived"`
	Degraded        int     `json:"degraded"`
	Lost            int     `json:"lost"`
	Disconnected    int     `json:"disconnected"`
	SurviveFraction float64 `json:"survive_fraction"`

	// Worst connected single-failure case by delivery probability, and
	// worst stretch among cases that can deliver.
	WorstPDeliver        float64 `json:"worst_p_deliver"`
	WorstPDeliverFailure string  `json:"worst_p_deliver_failure,omitempty"`
	WorstStretch         float64 `json:"worst_stretch"`
	WorstStretchFailure  string  `json:"worst_stretch_failure,omitempty"`

	// Sampled two-link failure census (when Config.Pairs > 0).
	PairCases    int `json:"pair_cases,omitempty"`
	PairSurvived int `json:"pair_survived,omitempty"`
}

// LinkImpact is one link's blast radius: how many connected
// (route, policy) single-failure cases its failure degrades or kills.
type LinkImpact struct {
	Link        string  `json:"link"`
	Affected    int     `json:"affected"`
	MinPDeliver float64 `json:"min_p_deliver"`
}

// PolicyTotal aggregates one policy across every route: the k=1
// (exhaustive single-failure) and k=2 (sampled failure-pair) survival
// census the per-policy comparison reads off directly.
type PolicyTotal struct {
	Policy string `json:"policy"`

	// k=1: connected single-failure cases summed over all routes.
	Singles         int     `json:"single_failures"`
	Survived        int     `json:"survived"`
	SurviveFraction float64 `json:"survive_fraction"`

	// k=2: connected sampled-pair cases (when Config.Pairs > 0).
	PairCases           int     `json:"pair_cases,omitempty"`
	PairSurvived        int     `json:"pair_survived,omitempty"`
	PairSurviveFraction float64 `json:"pair_survive_fraction,omitempty"`
}

// Report is the sweep's structured outcome. Scores are ordered by
// (src, dst) then by the configured policy order; Impacts by
// descending blast radius (link name breaking ties) — deterministic
// regardless of worker count.
type Report struct {
	Topology   string   `json:"topology"`
	Protection string   `json:"protection"`
	Policies   []string `json:"policies"`
	Routes     int      `json:"routes"`
	Links      int      `json:"links"`
	PairsDrawn int      `json:"pairs_drawn,omitempty"`
	Cases      int      `json:"cases"`

	Scores  []RouteScore  `json:"scores"`
	Impacts []LinkImpact  `json:"impacts,omitempty"`
	Totals  []PolicyTotal `json:"policy_totals"`
}

// Violations lists every score that breaks a gate: a single-failure
// survive fraction below minSurvival, or a worst-case stretch above
// maxStretch. A nil gate is not checked. It is the one survival gate,
// behind both `karsim -verify -verify-min` and a scenario's verify
// block.
func (r *Report) Violations(minSurvival, maxStretch *float64) []string {
	var out []string
	for _, sc := range r.Scores {
		if minSurvival != nil && sc.SurviveFraction < *minSurvival {
			out = append(out, fmt.Sprintf("verify: %s->%s policy=%s survives %.4f of single failures, below min_survival %.4f (worst: %s)",
				sc.Src, sc.Dst, sc.Policy, sc.SurviveFraction, *minSurvival, sc.WorstPDeliverFailure))
		}
		if maxStretch != nil && sc.WorstStretch > *maxStretch {
			out = append(out, fmt.Sprintf("verify: %s->%s policy=%s worst stretch %.3f exceeds max_stretch %.3f (at %s)",
				sc.Src, sc.Dst, sc.Policy, sc.WorstStretch, *maxStretch, sc.WorstStretchFailure))
		}
	}
	return out
}

// failSet is the links of one enumerated failure set: one link, or
// two for a sampled pair, so membership is a scan (slices.Contains).
type failSet []*topology.Link

// name is the failure set's link name, "A-B+C-D" for a pair: built
// when asked, as the report names single failures only and a pair is
// named only in an error.
func (f failSet) name() string {
	name := ""
	for _, l := range f {
		name += "+" + l.Name()
	}
	return strings.TrimPrefix(name, "+")
}

// caseResult is one case's computed verdict.
type caseResult struct {
	outcome  Outcome
	pDeliver float64
	stretch  float64
	err      error
}

// Sweep runs the exhaustive failure sweep over g for the given routes.
// It builds its own controller (routes installed in deterministic
// order, every re-encode toward a route's destination pre-warmed) so
// the parallel case analyses only ever read shared state.
func Sweep(g *topology.Graph, routes []RouteSpec, cfg Config) (*Report, error) {
	return SweepContext(context.Background(), g, routes, cfg)
}

// SweepContext is Sweep under a cancellation context: when ctx is
// cancelled, set-up stops at its next route install or warm row and
// every worker at its next failure set, the pool
// drains, and ctx.Err() is returned with no partial report — a
// cancelled sweep leaves no goroutines behind. A nil ctx means
// context.Background().
func SweepContext(ctx context.Context, g *topology.Graph, routes []RouteSpec, cfg Config) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ct, err := analyzeCases(ctx, g, routes, cfg)
	if err != nil {
		return nil, err
	}
	routes, policies, failures := ct.routes, ct.policies, ct.failures
	nP, nF := len(policies), len(failures)

	// Sequential merge: scores, impacts and telemetry in job order.
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	bindHelp(reg)
	reg.Counter("kar_verify_sweeps_total").Inc()

	scores := make([]RouteScore, len(routes)*nP)
	for i := range scores {
		scores[i] = RouteScore{Src: routes[i/nP].Src, Dst: routes[i/nP].Dst, Policy: policies[i%nP], WorstPDeliver: 1}
	}
	// Counter handles resolve on a (family, policy)'s first increment:
	// one label set per handle instead of two per case, and a family
	// nothing incremented stays out of the dump.
	handles := make([][famCount]*telemetry.Counter, nP)
	inc := func(fam, p int) {
		c := handles[p][fam]
		if c == nil {
			c = reg.Counter(verifyFamilies[fam], "policy", policies[p])
			handles[p][fam] = c
		}
		c.Inc()
	}
	impact := make(map[int]*LinkImpact) // failure index (singles) -> impact
	var errs []error
	for i, res := range ct.results {
		if res.err != nil {
			errs = append(errs, res.err)
			continue
		}
		r, p, f := i/(nP*nF), i/nF%nP, i%nF
		fl := failures[f]
		pair := len(fl) == 2
		sc := &scores[r*nP+p]
		inc(famCases, p)
		switch res.outcome {
		case Disconnected:
			inc(famDisconnected, p)
			if !pair {
				sc.Disconnected++
			}
			continue
		case Survived:
			inc(famSurvived, p)
		case Degraded:
			inc(famDegraded, p)
		case Lost:
			inc(famLost, p)
		}
		if pair {
			sc.PairCases++
			if res.outcome == Survived {
				sc.PairSurvived++
			}
			continue
		}
		sc.Singles++
		switch res.outcome {
		case Survived:
			sc.Survived++
		case Degraded:
			sc.Degraded++
		case Lost:
			sc.Lost++
		}
		if res.pDeliver < sc.WorstPDeliver {
			sc.WorstPDeliver = res.pDeliver
			sc.WorstPDeliverFailure = fl.name()
		}
		if res.pDeliver > surviveEps && res.stretch > sc.WorstStretch {
			sc.WorstStretch = res.stretch
			sc.WorstStretchFailure = fl.name()
		}
		if res.outcome != Survived {
			im := impact[f]
			if im == nil {
				im = &LinkImpact{Link: fl.name(), MinPDeliver: 1}
				impact[f] = im
			}
			im.Affected++
			if res.pDeliver < im.MinPDeliver {
				im.MinPDeliver = res.pDeliver
			}
		}
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	totals := make([]PolicyTotal, len(policies))
	for p := range policies {
		t := &totals[p]
		t.Policy = policies[p]
		for r := range routes {
			sc := &scores[r*nP+p]
			sc.SurviveFraction = 1
			if sc.Singles > 0 {
				sc.SurviveFraction = float64(sc.Survived) / float64(sc.Singles)
			}
			t.Singles += sc.Singles
			t.Survived += sc.Survived
			t.PairCases += sc.PairCases
			t.PairSurvived += sc.PairSurvived
		}
		if t.Singles == 0 {
			t.SurviveFraction = 1
		} else {
			t.SurviveFraction = float64(t.Survived) / float64(t.Singles)
		}
		if t.PairCases > 0 {
			t.PairSurviveFraction = float64(t.PairSurvived) / float64(t.PairCases)
		}
	}
	impacts := make([]LinkImpact, 0, len(impact))
	for _, im := range impact {
		impacts = append(impacts, *im)
	}
	slices.SortFunc(impacts, func(a, b LinkImpact) int {
		return cmp.Or(cmp.Compare(b.Affected, a.Affected), strings.Compare(a.Link, b.Link))
	})

	return &Report{
		Topology:   g.Name(),
		Protection: cfg.ProtectionLabel,
		Policies:   policies,
		Routes:     len(routes),
		Links:      g.NumLinks(),
		PairsDrawn: ct.pairsDrawn,
		Cases:      len(ct.results),
		Scores:     scores,
		Impacts:    impacts,
		Totals:     totals,
	}, nil
}

// caseTable is a sweep before aggregation: what was enumerated and
// every case's verdict, with the controller the verdicts were computed
// against.
type caseTable struct {
	routes     []RouteSpec // sorted by (src, dst)
	policies   []string
	failures   []failSet
	pairsDrawn int
	results    []caseResult // case (r, p, f) at (r*len(policies)+p)*len(failures)+f
	ctrl       *controller.Controller
	computed   int // search-tree nodes grown
}

// analyzeCases validates a sweep's inputs, enumerates its cases and
// computes every verdict on the worker pool: connectivity per failure
// set, then verdicts per (route, policy) unit.
func analyzeCases(ctx context.Context, g *topology.Graph, routes []RouteSpec, cfg Config) (*caseTable, error) {
	if len(routes) == 0 {
		return nil, errors.New("resilience: no routes to verify")
	}
	policies, err := CheckSweep(g, len(routes), cfg.Policies, cfg.Pairs)
	if err != nil {
		return nil, err
	}
	if cfg.AutoProtect && len(cfg.Protection) > 0 {
		return nil, errors.New("resilience: AutoProtect and an explicit Protection set are mutually exclusive")
	}

	routes = slices.Clone(routes)
	slices.SortFunc(routes, func(a, b RouteSpec) int {
		return cmp.Or(strings.Compare(a.Src, b.Src), strings.Compare(a.Dst, b.Dst))
	})
	for i := 1; i < len(routes); i++ {
		if routes[i].Src == routes[i-1].Src && routes[i].Dst == routes[i-1].Dst {
			return nil, fmt.Errorf("resilience: duplicate route %s->%s", routes[i].Src, routes[i].Dst)
		}
	}

	ctrl, err := buildController(ctx, g, routes, cfg.Protection, cfg.AutoProtect)
	if err != nil {
		return nil, err
	}

	failures, pairsDrawn := enumerateFailures(g, cfg.Pairs, cfg.PairSeed)

	// A case's index is its place in (route, policy, failure) order —
	// the merge order — whichever worker computes it.
	nP, nF := len(policies), len(failures)
	units := len(routes) * nP
	results := make([]caseResult, units*nF)

	// Route endpoints as node indices into the component labelling; an
	// endpoint the graph does not have (-1) is connected to nothing.
	ends := make([][2]int, len(routes))
	for r, rt := range routes {
		for k, name := range [2]string{rt.Src, rt.Dst} {
			ends[r][k] = -1
			if n, ok := g.Node(name); ok {
				ends[r][k] = n.Index()
			}
		}
	}

	// Pass 1: label each failure set's components once, on per-worker
	// scratch, and mark every case the set disconnects.
	links := g.Links()
	comps := make([][]int32, par.Workers(cfg.Workers, nF))
	par.ForEach(ctx, nF, cfg.Workers, func(w, f int) error {
		if comps[w] == nil {
			comps[w] = make([]int32, g.NumNodes())
		}
		comp := comps[w]
		labelComponents(links, failures[f], comp)
		for r, e := range ends {
			if e[0] < 0 || e[1] < 0 || comp[e[0]] != comp[e[1]] {
				for p := range policies {
					results[(r*nP+p)*nF+f].outcome = Disconnected
				}
			}
		}
		return nil
	})

	// Pass 2 (none of it once ctx is cancelled): one worker walks a
	// (route, policy) unit's whole failure list, each case descending
	// the unit's search tree.
	scr := make([]*scratch, par.Workers(cfg.Workers, units))
	var done atomic.Int64
	par.ForEach(ctx, units, cfg.Workers, func(w, u int) error {
		if scr[w] == nil {
			scr[w] = newScratch(ctrl, policies)
		}
		s, rt, p := scr[w], routes[u/nP], u%nP
		s.nodes, s.words = s.nodes[:0], s.words[:0]
		for f, fl := range failures {
			if ctx.Err() != nil {
				return nil
			}
			if cr := &results[u*nF+f]; cr.outcome != Disconnected {
				*cr = s.verdict(p, rt, fl)
			}
		}
		if cfg.Progress != nil {
			cfg.Progress(int(done.Add(int64(nF))), len(results))
		}
		return nil
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ct := &caseTable{
		routes: routes, policies: policies, failures: failures, pairsDrawn: pairsDrawn,
		results: results, ctrl: ctrl,
	}
	for _, s := range scr {
		if s != nil {
			ct.computed += s.computed
		}
	}
	return ct, nil
}

// MaxCases bounds a sweep's routes × policies × failure sets: every
// case holds a result until the merge (~0.5 GB at the bound).
const MaxCases = 10_000_000

// CheckSweep returns the policies a sweep scores (nil: the default
// set), rejecting, before anything is sized, an unknown or repeated
// policy name and a sweep of more than MaxCases cases: routes routes ×
// policies × g's links plus pairs sampled pairs.
func CheckSweep(g *topology.Graph, routes int, policies []string, pairs int) ([]string, error) {
	if len(policies) == 0 {
		policies = []string{"none", "hp", "avp", "nip"}
	}
	for i, p := range policies {
		if _, ok := deflect.ByName(p); !ok {
			return nil, fmt.Errorf("resilience: unknown policy %q: %w", p, analysis.ErrPolicyUnsupported)
		}
		if slices.Contains(policies[:i], p) {
			return nil, fmt.Errorf("resilience: policy %q named twice", p)
		}
	}
	failures := g.NumLinks() + pairCount(g.NumLinks(), pairs)
	if units := routes * len(policies); units > MaxCases/max(1, failures) {
		return nil, fmt.Errorf("resilience: %d routes x %d policies x %d failure sets exceeds the limit of %d cases",
			routes, len(policies), failures, MaxCases)
	}
	return policies, nil
}

// pairCount is how many failure pairs a request for pairs samples
// over links links: no more distinct pairs exist than C(links, 2), and
// clamping before any allocation keeps a hostile count from sizing it.
func pairCount(links, pairs int) int {
	return max(0, min(pairs, links*(links-1)/2))
}

// The per-policy kar_verify_* counter families, indexed fam*.
const (
	famCases = iota
	famSurvived
	famDegraded
	famLost
	famDisconnected
	famCount
)

var verifyFamilies = [famCount]string{
	famCases:        "kar_verify_cases_total",
	famSurvived:     "kar_verify_survived_total",
	famDegraded:     "kar_verify_degraded_total",
	famLost:         "kar_verify_lost_total",
	famDisconnected: "kar_verify_disconnected_total",
}

func bindHelp(reg *telemetry.Registry) {
	reg.Help("kar_verify_sweeps_total", "Resilience sweeps executed.")
	reg.Help("kar_verify_cases_total", "Sweep cases analyzed, by policy.")
	reg.Help("kar_verify_survived_total", "Cases with certain delivery, by policy.")
	reg.Help("kar_verify_degraded_total", "Cases with uncertain delivery, by policy.")
	reg.Help("kar_verify_lost_total", "Cases with zero delivery probability, by policy.")
	reg.Help("kar_verify_disconnected_total", "Cases where the failure disconnects src from dst, by policy.")
}

// buildController installs every route (deterministic order, per-route
// protection filtering) on a fresh non-reactive controller and
// pre-warms the re-encode cache from every edge toward each route
// destination — all an analysis asks for — so the concurrent analyses
// only hit the controller's read-only cache path. With auto set, the
// controller plans per-destination protection itself and the pair set
// must be empty. ctx is checked between installs and warm rows.
func buildController(ctx context.Context, g *topology.Graph, routes []RouteSpec, protection [][2]string, auto bool) (*controller.Controller, error) {
	hops, err := core.HopsFromPairs(g, protection)
	if err != nil {
		return nil, fmt.Errorf("resilience: protection: %w", err)
	}
	var opts []controller.Option
	if auto {
		opts = append(opts, controller.WithAutoProtection())
	}
	ctrl := controller.New(g, opts...)
	var dsts []string
	for _, rt := range routes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !slices.Contains(dsts, rt.Dst) {
			dsts = append(dsts, rt.Dst)
		}
		names := rt.Path
		if len(names) == 0 {
			path, err := topology.ShortestPath(g, rt.Src, rt.Dst, nil)
			if err != nil {
				return nil, fmt.Errorf("resilience: route %s->%s: %w", rt.Src, rt.Dst, err)
			}
			names = make([]string, len(path.Nodes))
			for k, n := range path.Nodes {
				names[k] = n.Name()
			}
		}
		onPath := func(h core.Hop) bool { return slices.Contains(names, h.Switch.Name()) }
		if _, err := ctrl.InstallRouteOnPath(names, slices.DeleteFunc(slices.Clone(hops), onPath)); err != nil {
			return nil, fmt.Errorf("resilience: route %s->%s: %w", rt.Src, rt.Dst, err)
		}
	}
	// Pre-warm: re-encoding ignores failure sets (the controller is
	// non-reactive), so warming under the empty set caches exactly what
	// the analyses will look up; in edge order, as the canned protection
	// a re-encode borrows depends on it. Unreachable pairs fail here and
	// keep failing identically (without installing) during analysis.
	edges := g.EdgeNodes()
	for _, d := range dsts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, a := range edges {
			if a.Name() != d {
				_, _, _ = ctrl.ReencodeRoute(a.Name(), d)
			}
		}
	}
	return ctrl, nil
}

// enumerateFailures lists every single-link failure in topology
// insertion order, then draws up to pairs distinct unordered two-link
// samples from a rand seeded with pairSeed.
func enumerateFailures(g *topology.Graph, pairs int, pairSeed int64) ([]failSet, int) {
	links := g.Links()
	want := pairCount(len(links), pairs)
	out := make([]failSet, 0, len(links)+want)
	for _, l := range links {
		out = append(out, failSet{l})
	}
	if want == 0 {
		return out, 0
	}
	rng := xrand.New(pairSeed)
	seen := make(map[[2]int]bool, want)
	drawn := 0
	for drawn < want {
		i, j := rng.Intn(len(links)), rng.Intn(len(links))
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		if seen[[2]int{i, j}] {
			continue
		}
		seen[[2]int{i, j}] = true
		out = append(out, failSet{links[i], links[j]})
		drawn++
	}
	return out, drawn
}

// Request is a verify job as every front door hands it over — the
// body of the serve daemon's POST /v1/verify and what `karsim -verify`
// builds from its flag family.
type Request struct {
	// Topology is a canned name (net15, rnp28, ...) or a generator
	// spec ("fattree:8", "isp:200:2:40:7", ...).
	Topology string `json:"topology"`
	// Routes is "src:dst[,src:dst...]"; empty sweeps every ordered
	// edge pair.
	Routes string `json:"routes,omitempty"`
	// Policies to score (default: none, hp, avp, nip).
	Policies []string `json:"policies,omitempty"`
	// Protection names a canned driven-deflection set ("none",
	// "partial", "full") or "auto" for controller-planned
	// per-destination trees; generated topologies support only "none"
	// and "auto".
	Protection string `json:"protection,omitempty"`
	// Pairs samples this many two-link failures on top of the
	// exhaustive single-failure sweep; Seed pins the sample.
	Pairs int   `json:"pairs,omitempty"`
	Seed  int64 `json:"seed,omitempty"`
	// Workers bounds the sweep's case-analysis pool.
	Workers int `json:"workers,omitempty"`
	// Collect retains the sweep's kar_verify_* counters on /metrics
	// (default true).
	Collect *bool `json:"collect,omitempty"`
}

// Resolve assembles the sweep the request names — the one such
// assembly: the topology through the shared graph cache, the route
// list (empty: every ordered edge pair), the policy names and the
// protection level, all rejected here if no sweep could run them (or
// the sweep would exceed MaxCases). The
// Config carries the policies, the protection fields, Pairs and
// PairSeed; the caller adds workers and sinks.
func (r *Request) Resolve() (*topology.Graph, []RouteSpec, Config, error) {
	fail := func(err error) (*topology.Graph, []RouteSpec, Config, error) { return nil, nil, Config{}, err }
	if r.Topology == "" {
		return fail(errors.New("resilience: request has no topology"))
	}
	g, err := topology.Shared(r.Topology)
	if err != nil {
		return fail(err)
	}
	var rs []RouteSpec
	if strings.TrimSpace(r.Routes) == "" {
		rs, err = AllPairRoutes(g)
	} else {
		rs, err = ParseRoutes(r.Routes)
	}
	if err != nil {
		return fail(err)
	}
	if _, err := CheckSweep(g, len(rs), r.Policies, r.Pairs); err != nil {
		return fail(err)
	}
	cfg, err := Protect(r.Topology, r.Protection)
	if err != nil {
		return fail(err)
	}
	cfg.Policies, cfg.Pairs, cfg.PairSeed = r.Policies, r.Pairs, r.Seed
	return g, rs, cfg, nil
}

// Protect returns the protection half of a Config — pair set, auto
// flag and report label — for a protection level on a named topology
// (topology.Protection decides). The label of the empty level is
// "none".
func Protect(topo, level string) (Config, error) {
	pairs, auto, err := topology.Protection(topo, level)
	if err != nil {
		return Config{}, err
	}
	if level == "" {
		level = "none"
	}
	return Config{Protection: pairs, AutoProtect: auto, ProtectionLabel: level}, nil
}

// AllPairRoutes returns a RouteSpec for every ordered edge pair of g —
// the default route set of `karsim -verify` and the serve daemon's
// /v1/verify endpoint.
func AllPairRoutes(g *topology.Graph) ([]RouteSpec, error) {
	var routes []RouteSpec
	for _, a := range g.EdgeNodes() {
		for _, b := range g.EdgeNodes() {
			if a != b {
				routes = append(routes, RouteSpec{Src: a.Name(), Dst: b.Name()})
			}
		}
	}
	if len(routes) == 0 {
		return nil, fmt.Errorf("resilience: topology %s has fewer than two edge nodes", g.Name())
	}
	return routes, nil
}

// ParseRoutes parses a "src:dst[,src:dst...]" route list (the -verify
// flag grammar). Node names are validated later, when the sweep
// installs the routes.
func ParseRoutes(spec string) ([]RouteSpec, error) {
	var routes []RouteSpec
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		src, dst, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("resilience: route %q: want src:dst", part)
		}
		routes = append(routes, RouteSpec{Src: src, Dst: dst})
	}
	if len(routes) == 0 {
		return nil, fmt.Errorf("resilience: %q names no routes", spec)
	}
	return routes, nil
}

// labelComponents labels the connected components of the graph that
// survives failed: afterwards comp[a.Index()] == comp[b.Index()]
// exactly when a and b can still reach each other. comp has one entry
// per node; the labelling is a union-find over the surviving links
// with comp as the parent array, flattened at the end.
func labelComponents(links []*topology.Link, failed failSet, comp []int32) {
	for i := range comp {
		comp[i] = int32(i)
	}
	for _, l := range links {
		if slices.Contains(failed, l) {
			continue
		}
		a, b := findRoot(comp, int32(l.A().Index())), findRoot(comp, int32(l.B().Index()))
		if a != b {
			comp[a] = b
		}
	}
	for i := range comp {
		comp[i] = findRoot(comp, int32(i))
	}
}

// findRoot follows parent links to x's root, halving the path as it
// goes.
func findRoot(parent []int32, x int32) int32 {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// node is one vertex of a unit's search tree: the verdict under the
// failure set on its path from the no-failure root, whose child by link
// l (a link this node consulted) holds that set plus l. Its consulted
// set is the words from off in the scratch's slab.
type node struct {
	parent, link, off int32 // the root's parent and link are -1
	res               caseResult
}

// scratch is one worker's working state: an analyzer per policy, and
// the search tree of the (route, policy) unit it is walking, its nodes
// and their consulted sets back to back in slabs reset per unit.
type scratch struct {
	policies  []string
	analyzers []*analysis.Analyzer
	nodes     []node
	words     []uint64
	path      failSet
	computed  int // nodes grown
}

func newScratch(ctrl *controller.Controller, policies []string) *scratch {
	s := &scratch{policies: policies, analyzers: make([]*analysis.Analyzer, len(policies))}
	for p, pol := range policies {
		// Policies were validated on entry: New cannot fail.
		s.analyzers[p], _ = analysis.New(ctrl, pol, nil)
	}
	return s
}

// verdict returns the verdict of one case — route rt under policy p and
// failure set fl — by descending the unit's search tree from its root.
// Each step goes to the child adding the lowest-index link of fl that
// the node consulted and does not hold, grown if missing; the node with
// no such link agrees with fl on every link it consulted, so its
// verdict is fl's. The path is the set each node is analyzed under, a
// subset of fl, so it is connected when fl is. Which nodes the tree
// already had cannot show in the result.
func (s *scratch) verdict(p int, rt RouteSpec, fl failSet) caseResult {
	path, n, link := s.path[:0], int32(-1), int32(-1)
	for {
		c := n + 1
		for c < int32(len(s.nodes)) && (s.nodes[c].parent != n || s.nodes[c].link != link) {
			c++
		}
		if c == int32(len(s.nodes)) {
			res, consulted := s.compute(rt, p, path)
			if res.err != nil {
				res, _ = s.compute(rt, p, fl) // an error names the case's own set
				return res
			}
			s.nodes = append(s.nodes, node{parent: n, link: link, off: int32(len(s.words)), res: res})
			s.words = append(s.words, consulted...)
			s.computed++
		}
		// The node's consulted set starts at off; Has reads only the word
		// holding its link, never the later nodes' words.
		n, link = c, -1
		held, next := analysis.LinkSet(s.words[s.nodes[c].off:]), (*topology.Link)(nil)
		for _, l := range fl {
			if held.Has(l) && !slices.Contains(path, l) && (next == nil || l.Index() < next.Index()) {
				next = l
			}
		}
		if next == nil {
			s.path = path
			return s.nodes[c].res
		}
		path, link = append(path, next), int32(next.Index())
	}
}

// compute scores one case under failure set fl, returning the verdict
// and the links whose state it depended on; the set is scratch,
// overwritten by the next call.
func (s *scratch) compute(rt RouteSpec, p int, fl failSet) (caseResult, analysis.LinkSet) {
	a := s.analyzers[p]
	a.SetFailed(fl)
	res, err := a.Analyze(rt.Src, rt.Dst)
	if err != nil {
		return caseResult{err: fmt.Errorf("resilience: %s->%s policy=%s failure=%s: %w",
			rt.Src, rt.Dst, s.policies[p], fl.name(), err)}, nil
	}
	return classify(res), a.Consulted()
}

// classify turns a walk analysis into a case verdict.
func classify(res analysis.Result) caseResult {
	cr := caseResult{pDeliver: res.PDeliver, stretch: res.Stretch()}
	switch {
	case res.PDeliver >= 1-surviveEps:
		cr.outcome = Survived
	case res.PDeliver <= surviveEps:
		cr.outcome = Lost
	default:
		cr.outcome = Degraded
	}
	return cr
}
