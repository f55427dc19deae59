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
// Cases fan out across a bounded worker pool with deterministic
// sharding: cases are indexed in a fixed (route, policy, failure)
// order, workers pull whole failure sets from an atomic counter —
// reachability in the surviving graph is a property of the failure set
// alone, so it is computed once per set, not once per case — results
// land by case index, and all aggregation happens in a sequential
// merge pass — so the report and every kar_verify_* counter are
// byte-identical at any worker count (the same discipline as the
// controller's reroute pool).
//
// A verdict is computed once per distinct question. Static failover
// decides from local link state, so a chain expansion is a pure
// function of the route, the policy and the state of the links it
// consulted; each computed verdict is recorded with that set
// (memoEntry), and a failure set that agrees with a recorded one on it
// takes the recorded verdict — the ingress link included, which the
// analyzer reads like any other. A hit returns what a recomputation
// would, so which worker remembered what never shows in a report.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
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
	// Survived: delivery is certain (PDeliver ≥ 1-ε).
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
	// Progress, when set, is called once per completed failure set —
	// the sweep's unit of work — with the running count of cases done
	// (advanced by routes × policies each time) and the total. Calls come
	// from worker goroutines concurrently and in no deterministic order
	// — it is a liveness channel (the serve daemon streams it), never an
	// input to the report, which stays byte-identical with or without it.
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

// Total returns the aggregate row for policy, if present.
func (r *Report) Total(policy string) (*PolicyTotal, bool) {
	for i := range r.Totals {
		if r.Totals[i].Policy == policy {
			return &r.Totals[i], true
		}
	}
	return nil, false
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

// failSet is the links of one failure set. Sets hold one or two links,
// so membership is a scan.
type failSet []*topology.Link

func (f failSet) has(l *topology.Link) bool {
	for _, x := range f {
		if x == l {
			return true
		}
	}
	return false
}

// failure is one enumerated failure set.
type failure struct {
	links failSet
	pair  bool
}

// name is the failure's link name, "A-B+C-D" for a pair: built when
// asked, as the report names single failures only and a pair is named
// only in an error.
func (f failure) name() string {
	name := ""
	for i, l := range f.links {
		if i > 0 {
			name += "+"
		}
		name += l.Name()
	}
	return name
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
// order, every re-encode pair pre-warmed) so the parallel case
// analyses only ever read shared state.
func Sweep(g *topology.Graph, routes []RouteSpec, cfg Config) (*Report, error) {
	return SweepContext(context.Background(), g, routes, cfg)
}

// SweepContext is Sweep under a cancellation context: when ctx is
// cancelled, every worker stops at its next route boundary, the pool
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

	scores := make([]RouteScore, len(routes)*len(policies))
	for r := range routes {
		for p := range policies {
			scores[r*len(policies)+p] = RouteScore{
				Src: routes[r].Src, Dst: routes[r].Dst, Policy: policies[p],
				WorstPDeliver: 1,
			}
		}
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
		sc := &scores[r*nP+p]
		inc(famCases, p)
		switch res.outcome {
		case Disconnected:
			inc(famDisconnected, p)
			if !fl.pair {
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
		if fl.pair {
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
	for i := range scores {
		sc := &scores[i]
		if sc.Singles == 0 {
			sc.SurviveFraction = 1
		} else {
			sc.SurviveFraction = float64(sc.Survived) / float64(sc.Singles)
		}
	}
	totals := make([]PolicyTotal, len(policies))
	for p := range policies {
		totals[p].Policy = policies[p]
		for r := range routes {
			sc := &scores[r*len(policies)+p]
			totals[p].Singles += sc.Singles
			totals[p].Survived += sc.Survived
			totals[p].PairCases += sc.PairCases
			totals[p].PairSurvived += sc.PairSurvived
		}
		t := &totals[p]
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
	sort.Slice(impacts, func(i, j int) bool {
		if impacts[i].Affected != impacts[j].Affected {
			return impacts[i].Affected > impacts[j].Affected
		}
		return impacts[i].Link < impacts[j].Link
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
	failures   []failure
	pairsDrawn int
	results    []caseResult // case (r, p, f) at (r*len(policies)+p)*len(failures)+f
	ctrl       *controller.Controller
	hits       int // cases a recorded verdict answered
}

// analyzeCases validates a sweep's inputs, enumerates its cases and
// computes every verdict on the worker pool.
func analyzeCases(ctx context.Context, g *topology.Graph, routes []RouteSpec, cfg Config) (*caseTable, error) {
	if len(routes) == 0 {
		return nil, errors.New("resilience: no routes to verify")
	}
	policies := cfg.Policies
	if len(policies) == 0 {
		policies = []string{"none", "hp", "avp", "nip"}
	}
	for _, p := range policies {
		if _, ok := deflect.ByName(p); !ok {
			return nil, fmt.Errorf("resilience: %q: %w", p, analysis.ErrPolicyUnsupported)
		}
	}
	if cfg.AutoProtect && len(cfg.Protection) > 0 {
		return nil, errors.New("resilience: AutoProtect and an explicit Protection set are mutually exclusive")
	}

	routes = append([]RouteSpec(nil), routes...)
	sort.Slice(routes, func(i, j int) bool {
		if routes[i].Src != routes[j].Src {
			return routes[i].Src < routes[j].Src
		}
		return routes[i].Dst < routes[j].Dst
	})
	for i := 1; i < len(routes); i++ {
		if routes[i].Src == routes[i-1].Src && routes[i].Dst == routes[i-1].Dst {
			return nil, fmt.Errorf("resilience: duplicate route %s->%s", routes[i].Src, routes[i].Dst)
		}
	}

	ctrl, err := buildController(g, routes, cfg.Protection, cfg.AutoProtect)
	if err != nil {
		return nil, err
	}

	failures, pairsDrawn := enumerateFailures(g, cfg.Pairs, cfg.PairSeed)

	// A case's index is its place in (route, policy, failure) order —
	// the merge order — whichever worker computes it.
	nP, nF := len(policies), len(failures)
	total := len(routes) * nP * nF
	results := make([]caseResult, total)

	// Route endpoints as node indices into the component labelling; an
	// endpoint the graph does not have (-1) is connected to nothing.
	ends := make([][2]int, len(routes))
	for r, rt := range routes {
		ends[r] = [2]int{-1, -1}
		if n, ok := g.Node(rt.Src); ok {
			ends[r][0] = n.Index()
		}
		if n, ok := g.Node(rt.Dst); ok {
			ends[r][1] = n.Index()
		}
	}
	links, nodes := g.Links(), g.NumNodes()

	// Per-worker scratch, made on the worker's first failure set.
	scr := make([]*scratch, par.Workers(cfg.Workers, nF))
	worker := func(w int) *scratch {
		if scr[w] == nil {
			scr[w] = newScratch(ctrl, policies, len(routes), nodes)
		}
		return scr[w]
	}

	// analyze computes every (route, policy) case of failure f on s's
	// scratch, and reports the failure set done.
	var done atomic.Int64
	analyze := func(f int, s *scratch) {
		fl := failures[f]
		labelComponents(links, fl.links, s.comp)
		s.setFailed(fl.links)
		for r, rt := range routes {
			if ctx.Err() != nil {
				return
			}
			src, dst := ends[r][0], ends[r][1]
			connected := src >= 0 && dst >= 0 && s.comp[src] == s.comp[dst]
			for p := range policies {
				cr := &results[(r*nP+p)*nF+f]
				if connected {
					*cr = s.verdict(r*nP+p, rt, p, fl)
				} else {
					cr.outcome = Disconnected
				}
			}
		}
		if cfg.Progress != nil {
			cfg.Progress(int(done.Add(int64(len(routes)*nP))), total)
		}
	}
	par.ForEach(ctx, nF, cfg.Workers, func(w, f int) error {
		analyze(f, worker(w))
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
			ct.hits += s.hits
		}
	}
	return ct, nil
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
// pre-warms the re-encode cache for every ordered edge pair, so the
// concurrent case analyses only ever hit the controller's read-only
// cache path. With auto set, the controller plans per-destination
// protection itself and the pair set must be empty.
func buildController(g *topology.Graph, routes []RouteSpec, protection [][2]string, auto bool) (*controller.Controller, error) {
	hops, err := core.HopsFromPairs(g, protection)
	if err != nil {
		return nil, fmt.Errorf("resilience: protection: %w", err)
	}
	var opts []controller.Option
	if auto {
		opts = append(opts, controller.WithAutoProtection())
	}
	ctrl := controller.New(g, opts...)
	for _, rt := range routes {
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
		onPath := make(map[string]bool, len(names))
		for _, n := range names {
			onPath[n] = true
		}
		filtered := make([]core.Hop, 0, len(hops))
		for _, h := range hops {
			if !onPath[h.Switch.Name()] {
				filtered = append(filtered, h)
			}
		}
		if _, err := ctrl.InstallRouteOnPath(names, filtered); err != nil {
			return nil, fmt.Errorf("resilience: route %s->%s: %w", rt.Src, rt.Dst, err)
		}
	}
	// Pre-warm: re-encoding ignores failure sets (the controller is
	// non-reactive), so warming under the empty set caches exactly what
	// the analyses will look up. Unreachable pairs fail here and keep
	// failing identically (without installing) during analysis.
	edges := g.EdgeNodes()
	for _, a := range edges {
		for _, b := range edges {
			if a != b {
				_, _, _ = ctrl.ReencodeRoute(a.Name(), b.Name())
			}
		}
	}
	return ctrl, nil
}

// enumerateFailures lists every single-link failure in topology
// insertion order, then draws up to pairs distinct unordered two-link
// samples from a rand seeded with pairSeed.
func enumerateFailures(g *topology.Graph, pairs int, pairSeed int64) ([]failure, int) {
	links := g.Links()
	// No more distinct pairs exist than C(links, 2); clamping before the
	// allocation keeps a hostile pairs count from sizing it.
	want := max(0, min(pairs, len(links)*(len(links)-1)/2))
	out := make([]failure, 0, len(links)+want)
	for _, l := range links {
		out = append(out, failure{links: failSet{l}})
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
		out = append(out, failure{links: failSet{links[i], links[j]}, pair: true})
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
// protection level, all rejected here if no sweep could run them. The
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
	for _, p := range r.Policies {
		if _, ok := deflect.ByName(p); !ok {
			return fail(fmt.Errorf("resilience: unknown policy %q", p))
		}
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
		if failed.has(l) {
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

// memoEntry is one computed verdict with what it depends on. A chain
// expansion is a pure function of the route, the policy and the answers
// to the link-state queries it makes, so the verdict computed under
// failure set fail holds under every failure set that agrees with fail
// on the consulted links.
type memoEntry struct {
	consulted analysis.LinkSet
	fail      failSet
	res       caseResult
}

// answers reports whether e's verdict is f's too: f and e.fail have the
// same members among the consulted links.
func (e *memoEntry) answers(f failSet) bool {
	for _, l := range f {
		if e.consulted.Has(l) && !e.fail.has(l) {
			return false
		}
	}
	for _, l := range e.fail {
		if e.consulted.Has(l) && !f.has(l) {
			return false
		}
	}
	return true
}

// scratch is one worker's working state: the surviving graph's
// component labels, an analyzer per policy, and the verdicts this
// worker computed, per (route, policy).
type scratch struct {
	policies  []string
	comp      []int32
	analyzers []*analysis.Analyzer
	memo      [][]memoEntry
	hits      int // cases a recorded verdict answered
}

func newScratch(ctrl *controller.Controller, policies []string, routes, nodes int) *scratch {
	s := &scratch{
		policies:  policies,
		comp:      make([]int32, nodes),
		analyzers: make([]*analysis.Analyzer, len(policies)),
		memo:      make([][]memoEntry, routes*len(policies)),
	}
	for p, pol := range policies {
		// Policies were validated on entry: New cannot fail.
		s.analyzers[p], _ = analysis.New(ctrl, pol, nil)
	}
	return s
}

// setFailed points the scratch at the failure set the next compute
// calls run under.
func (s *scratch) setFailed(failed failSet) {
	for _, a := range s.analyzers {
		a.SetFailed(failed)
	}
}

// verdict returns the verdict of one connected case — route rt under
// policy p, key its (route, policy) index: one this worker recorded that
// answers fl, or a fresh computation, recorded for the failure sets to
// come. Which of the two it is cannot show in the result, so reports do
// not depend on how failure sets fall to workers.
func (s *scratch) verdict(key int, rt RouteSpec, p int, fl failure) caseResult {
	for i := range s.memo[key] {
		if e := &s.memo[key][i]; e.answers(fl.links) {
			s.hits++
			return e.res
		}
	}
	res, consulted := s.compute(rt, p, fl)
	if res.err == nil {
		s.memo[key] = append(s.memo[key], memoEntry{consulted: slices.Clone(consulted), fail: fl.links, res: res})
	}
	return res
}

// compute scores one case under the failure set of the last setFailed
// (fl, which names it in errors), returning the verdict and the links
// whose state it depended on; the set is scratch, overwritten by the
// next call.
func (s *scratch) compute(rt RouteSpec, p int, fl failure) (caseResult, analysis.LinkSet) {
	res, err := s.analyzers[p].Analyze(rt.Src, rt.Dst)
	if err != nil {
		return caseResult{err: fmt.Errorf("resilience: %s->%s policy=%s failure=%s: %w",
			rt.Src, rt.Dst, s.policies[p], fl.name(), err)}, nil
	}
	return classify(res), s.analyzers[p].Consulted()
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
