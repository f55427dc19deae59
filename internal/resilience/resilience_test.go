package resilience

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/topology"
)

// allPairRoutes lists every ordered edge pair of g as a RouteSpec —
// the default route set the verifier CLI sweeps.
func allPairRoutes(g *topology.Graph) []RouteSpec {
	var routes []RouteSpec
	for _, a := range g.EdgeNodes() {
		for _, b := range g.EdgeNodes() {
			if a != b {
				routes = append(routes, RouteSpec{Src: a.Name(), Dst: b.Name()})
			}
		}
	}
	return routes
}

// policyTotal returns rep's aggregate row for policy, if present.
func policyTotal(rep *Report, policy string) (*PolicyTotal, bool) {
	for i := range rep.Totals {
		if rep.Totals[i].Policy == policy {
			return &rep.Totals[i], true
		}
	}
	return nil, false
}

// The headline acceptance case: Net15 under per-destination
// auto-protection must survive every connected single-link failure
// with certainty, for EVERY route — including the AS1-bound direction
// that the hand-listed Net15FullProtection (rooted only at SW29) used
// to leave exposed. The controller plans a destination-rooted tree per
// route, so there is no privileged root and no asymmetric gap, whether
// deflections are resolved randomly (nip) or deterministically along
// the trees (dtree).
func TestNet15FullProtectionSurvivesAllSingles(t *testing.T) {
	g, err := topology.Net15()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Sweep(g, allPairRoutes(g), Config{
		Policies:        []string{"nip", "dtree"},
		AutoProtect:     true,
		ProtectionLabel: "auto",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Routes != 6 {
		t.Fatalf("routes = %d, want 6", rep.Routes)
	}
	for _, sc := range rep.Scores {
		if sc.Singles == 0 {
			t.Errorf("%s->%s policy=%s: no connected single-failure cases", sc.Src, sc.Dst, sc.Policy)
		}
		if sc.SurviveFraction != 1 {
			t.Errorf("%s->%s policy=%s: survive fraction %v (worst %v at %s), want 1",
				sc.Src, sc.Dst, sc.Policy, sc.SurviveFraction, sc.WorstPDeliver, sc.WorstPDeliverFailure)
		}
	}
	// Nothing degraded or lost, so no link may have a blast radius.
	for _, im := range rep.Impacts {
		t.Errorf("link %s has blast radius %d despite full survival", im.Link, im.Affected)
	}
}

// The fix is symmetric by construction: A->B and B->A must earn the
// same single-failure survive fraction under auto-protection, on both
// canned topologies. Before per-destination planning, the reverse of a
// protected route was quietly unprotected (the tree was rooted at one
// end only).
func TestAutoProtectionSymmetric(t *testing.T) {
	for _, mk := range []struct {
		name string
		fn   func() (*topology.Graph, error)
	}{
		{"net15", topology.Net15},
		{"rnp28", topology.RNP28},
	} {
		g, err := mk.fn()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Sweep(g, allPairRoutes(g), Config{
			Policies:        []string{"nip", "dtree"},
			AutoProtect:     true,
			ProtectionLabel: "auto",
		})
		if err != nil {
			t.Fatal(err)
		}
		score := map[[3]string]RouteScore{}
		for _, sc := range rep.Scores {
			score[[3]string{sc.Src, sc.Dst, sc.Policy}] = sc
		}
		for _, sc := range rep.Scores {
			rev, ok := score[[3]string{sc.Dst, sc.Src, sc.Policy}]
			if !ok {
				t.Fatalf("%s: no reverse score for %s->%s", mk.name, sc.Src, sc.Dst)
			}
			if sc.SurviveFraction != rev.SurviveFraction {
				t.Errorf("%s policy=%s: %s->%s survives %v but %s->%s survives %v",
					mk.name, sc.Policy, sc.Src, sc.Dst, sc.SurviveFraction,
					rev.Src, rev.Dst, rev.SurviveFraction)
			}
		}
	}
}

// Unprotected deterministic forwarding must NOT survive everything —
// this is the case the -verify-min gate exists for.
func TestNet15UnprotectedNoneHasLosses(t *testing.T) {
	g, err := topology.Net15()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Sweep(g, allPairRoutes(g), Config{
		Policies:        []string{"none"},
		ProtectionLabel: "none",
	})
	if err != nil {
		t.Fatal(err)
	}
	one, lost := 1.0, 0
	for _, sc := range rep.Scores {
		lost += sc.Lost
	}
	if viols := rep.Violations(&one, nil); len(viols) == 0 || lost == 0 {
		t.Fatalf("unprotected none survives everything: %d violations of min survival 1, %d lost cases", len(viols), lost)
	}
	if len(rep.Impacts) == 0 {
		t.Error("no blast-radius entries despite losses")
	}
}

// The report and the kar_verify_* counters must be byte-identical at
// any worker count: workers take whole failure sets, each case's result
// still lands at its (route, policy, failure) index.
func TestReportIdenticalAcrossWorkerCounts(t *testing.T) {
	g, err := topology.Net15()
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]Config{
		"partial": {
			Protection:      topology.Net15PartialProtection,
			ProtectionLabel: "partial",
			Pairs:           8,
			PairSeed:        7,
		},
		"auto-dtree": {
			Policies:        []string{"nip", "dtree"},
			AutoProtect:     true,
			ProtectionLabel: "auto",
			Pairs:           40,
			PairSeed:        3,
		},
	} {
		t.Run(name, func(t *testing.T) {
			run := func(workers int) ([]byte, []byte) {
				cfg := cfg
				cfg.Workers, cfg.Registry = workers, telemetry.NewRegistry()
				rep, err := Sweep(g, allPairRoutes(g), cfg)
				if err != nil {
					t.Fatal(err)
				}
				js, err := json.MarshalIndent(rep, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				var prom bytes.Buffer
				if err := cfg.Registry.WritePrometheus(&prom); err != nil {
					t.Fatal(err)
				}
				return js, prom.Bytes()
			}
			js1, prom1 := run(1)
			js4, prom4 := run(4)
			if !bytes.Equal(js1, js4) {
				t.Errorf("JSON report differs between -workers 1 and 4:\n%s\n---\n%s", js1, js4)
			}
			if !bytes.Equal(prom1, prom4) {
				t.Errorf("metrics differ between -workers 1 and 4:\n%s\n---\n%s", prom1, prom4)
			}
		})
	}
}

// The headline k=2 comparison: under auto protection both policies
// survive every single failure, but on sampled two-link failures the
// structured failover must beat NIP's random walk strictly, on both
// canned topologies — the deterministic fallback order never traps
// itself in a broken region the way an unlucky walk can.
func TestDtreeBeatsNIPOnFailurePairs(t *testing.T) {
	for _, mk := range []struct {
		name string
		fn   func() (*topology.Graph, error)
	}{
		{"net15", topology.Net15},
		{"rnp28", topology.RNP28},
	} {
		g, err := mk.fn()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Sweep(g, allPairRoutes(g), Config{
			Policies:        []string{"nip", "dtree"},
			AutoProtect:     true,
			ProtectionLabel: "auto",
			Pairs:           200,
			PairSeed:        7,
		})
		if err != nil {
			t.Fatal(err)
		}
		nip, ok1 := policyTotal(rep, "nip")
		dtree, ok2 := policyTotal(rep, "dtree")
		if !ok1 || !ok2 {
			t.Fatalf("%s: missing policy totals", mk.name)
		}
		if nip.SurviveFraction != 1 || dtree.SurviveFraction != 1 {
			t.Errorf("%s: k=1 fractions nip=%v dtree=%v, want 1 and 1",
				mk.name, nip.SurviveFraction, dtree.SurviveFraction)
		}
		if nip.PairCases != dtree.PairCases {
			t.Fatalf("%s: pair case counts differ (%d vs %d)", mk.name, nip.PairCases, dtree.PairCases)
		}
		if dtree.PairSurvived <= nip.PairSurvived {
			t.Errorf("%s: dtree survives %d/%d pairs, nip %d/%d — want strictly more",
				mk.name, dtree.PairSurvived, dtree.PairCases, nip.PairSurvived, nip.PairCases)
		}
	}
}

// TestFatTreeSingleFailureCounts states what the verifier reads on
// fattree:4 under auto protection, so the prose (README, DESIGN §11.1)
// cannot drift from the tool again: nip survives all 2 128 connected
// single failures, dtree 2 120 of them. Its 8 losses are the same-pod
// routes between the pod's two ToRs, each lost when the destination
// ToR's link to the first aggregation switch fails.
func TestFatTreeSingleFailureCounts(t *testing.T) {
	g, err := topology.FromSpec("fattree:4")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Sweep(g, allPairRoutes(g), Config{
		Policies:        []string{"nip", "dtree"},
		AutoProtect:     true,
		ProtectionLabel: "auto",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []PolicyTotal{
		{Policy: "nip", Singles: 2128, Survived: 2128},
		{Policy: "dtree", Singles: 2120 + 8, Survived: 2120},
	} {
		got, ok := policyTotal(rep, want.Policy)
		if !ok {
			t.Fatalf("no %s totals", want.Policy)
		}
		if got.Singles != want.Singles || got.Survived != want.Survived {
			t.Errorf("%s: k=1 survived %d of %d, want %d of %d",
				want.Policy, got.Survived, got.Singles, want.Survived, want.Singles)
		}
	}
	var lost []string
	for _, sc := range rep.Scores {
		if sc.Survived < sc.Singles {
			lost = append(lost, fmt.Sprintf("%s %s->%s lost %d under %s",
				sc.Policy, sc.Src, sc.Dst, sc.Lost, sc.WorstPDeliverFailure))
		}
	}
	want := []string{
		"dtree E0->E1 lost 1 under T0_1-A0_0", "dtree E1->E0 lost 1 under T0_0-A0_0",
		"dtree E2->E3 lost 1 under T1_1-A1_0", "dtree E3->E2 lost 1 under T1_0-A1_0",
		"dtree E4->E5 lost 1 under T2_1-A2_0", "dtree E5->E4 lost 1 under T2_0-A2_0",
		"dtree E6->E7 lost 1 under T3_1-A3_0", "dtree E7->E6 lost 1 under T3_0-A3_0",
	}
	if !reflect.DeepEqual(lost, want) {
		t.Errorf("routes below 1.0:\n%s\nwant:\n%s", strings.Join(lost, "\n"), strings.Join(want, "\n"))
	}
}

// Failures that physically disconnect src from dst are tallied as
// disconnected and excluded from the survive fraction.
func TestDisconnectedExcluded(t *testing.T) {
	g, err := topology.Net15()
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	rep, err := Sweep(g, []RouteSpec{{Src: "AS1", Dst: "AS2"}}, Config{
		Policies: []string{"none"},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := rep.Scores[0]
	// Each AS is single-homed: its access link is a cut edge, and the
	// peer's access link is too.
	if sc.Disconnected < 2 {
		t.Errorf("disconnected = %d, want >= 2 (both access links)", sc.Disconnected)
	}
	if sc.Singles+sc.Disconnected != rep.Links {
		t.Errorf("singles(%d) + disconnected(%d) != links(%d)", sc.Singles, sc.Disconnected, rep.Links)
	}
	cases := reg.SumCounter("kar_verify_cases_total")
	sum := reg.SumCounter("kar_verify_survived_total") +
		reg.SumCounter("kar_verify_degraded_total") +
		reg.SumCounter("kar_verify_lost_total") +
		reg.SumCounter("kar_verify_disconnected_total")
	if cases == 0 || cases != sum {
		t.Errorf("counter census: cases=%d, outcome sum=%d", cases, sum)
	}
	if got := reg.CounterValue("kar_verify_sweeps_total"); got != 1 {
		t.Errorf("kar_verify_sweeps_total = %d, want 1", got)
	}
}

// Pair sampling is seeded, deduplicated and capped at C(n,2).
func TestPairSamplingDeterministicAndCapped(t *testing.T) {
	g, err := topology.FromSpec("rand:5:2:3:11")
	if err != nil {
		t.Fatal(err)
	}
	nLinks := len(g.Links())
	maxPairs := nLinks * (nLinks - 1) / 2
	run := func() *Report {
		rep, err := Sweep(g, allPairRoutes(g), Config{
			Policies: []string{"nip"},
			Pairs:    maxPairs + 100, // ask for more than exist
			PairSeed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	r1, r2 := run(), run()
	if r1.PairsDrawn != maxPairs {
		t.Errorf("pairs drawn = %d, want capped at %d", r1.PairsDrawn, maxPairs)
	}
	j1, _ := json.Marshal(r1)
	j2, _ := json.Marshal(r2)
	if !bytes.Equal(j1, j2) {
		t.Error("same PairSeed produced different reports")
	}
}

// A pair count far beyond C(n,2) sizes nothing: it is clamped before
// the failure list is allocated (a request asking for 10^12 pairs used
// to die in make).
func TestHostilePairCountClamped(t *testing.T) {
	g, err := topology.Net15()
	if err != nil {
		t.Fatal(err)
	}
	n := len(g.Links())
	failures, drawn := enumerateFailures(g, 1<<40, 1)
	if want := n * (n - 1) / 2; drawn != want || len(failures) != n+want {
		t.Errorf("drew %d pairs in %d failures, want %d in %d", drawn, len(failures), want, n+want)
	}
	if _, drawn := enumerateFailures(g, -7, 1); drawn != 0 {
		t.Errorf("negative pair count drew %d pairs", drawn)
	}
}

// Resolve is the one verify assembly: it resolves every noun of a
// request and rejects what no sweep could run.
func TestRequestResolve(t *testing.T) {
	g, routes, cfg, err := (&Request{Topology: "net15", Policies: []string{"nip", "dtree"}, Pairs: 8}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if all, _ := AllPairRoutes(g); len(routes) != len(all) || g.Name() != "net15" {
		t.Errorf("empty route list resolved to %d routes on %s", len(routes), g.Name())
	}
	if cfg.ProtectionLabel != "none" || cfg.AutoProtect || cfg.Protection != nil || len(cfg.Policies) != 2 {
		t.Errorf("empty level resolved to %+v", cfg)
	}
	if cfg.Pairs != 8 || cfg.PairSeed != 0 {
		t.Errorf("pairs 8 without a seed resolved to Pairs %d, PairSeed %d", cfg.Pairs, cfg.PairSeed)
	}
	if _, routes, cfg, err = (&Request{Topology: "net15", Routes: "AS1:AS3, AS3:AS1", Protection: "full", Seed: 7}).Resolve(); err != nil ||
		len(routes) != 2 || cfg.ProtectionLabel != "full" || len(cfg.Protection) != len(topology.Net15FullProtection) || cfg.PairSeed != 7 {
		t.Errorf("full on two routes: %d routes, %+v, %v", len(routes), cfg, err)
	}
	if _, _, cfg, err = (&Request{Topology: "fattree:4", Protection: "auto"}).Resolve(); err != nil || !cfg.AutoProtect || cfg.ProtectionLabel != "auto" {
		t.Errorf("auto on a generated topology: %+v, %v", cfg, err)
	}
	for what, req := range map[string]Request{
		"no topology":       {Policies: []string{"nip"}},
		"unknown topology":  {Topology: "mesh99", Policies: []string{"nip"}},
		"bad route syntax":  {Topology: "net15", Routes: "x", Policies: []string{"nip"}},
		"unknown policy":    {Topology: "net15", Policies: []string{"dtreee"}},
		"unknown level":     {Topology: "net15", Policies: []string{"nip"}, Protection: "total"},
		"generated+canned":  {Topology: "fattree:4", Policies: []string{"nip"}, Protection: "full"},
		"no set for rnp28":  {Topology: "rnp28", Policies: []string{"nip"}, Protection: "full"},
		"one-edge topology": {Topology: "rand:3:0:1:1", Policies: []string{"nip"}},
	} {
		if _, _, _, err := req.Resolve(); err == nil {
			t.Errorf("%s: accepted", what)
		}
	}
}

// Duplicate routes and unknown policies are rejected up front.
func TestSweepInputValidation(t *testing.T) {
	g, err := topology.Net15()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Sweep(g, []RouteSpec{{Src: "AS1", Dst: "AS2"}, {Src: "AS1", Dst: "AS2"}}, Config{}); err == nil {
		t.Error("duplicate route accepted")
	}
	if _, err := Sweep(g, []RouteSpec{{Src: "AS1", Dst: "AS2"}}, Config{Policies: []string{"bogus"}}); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := Sweep(g, nil, Config{}); err == nil {
		t.Error("empty route set accepted")
	}
}

// The verdicts a sweep computes — the nodes its units' search trees
// grow — are a function of its inputs: each (route, policy) unit walks
// its failure sets in one order on one worker, so the count is the same
// at every worker count.
func TestSweepComputedVerdictsIndependentOfWorkers(t *testing.T) {
	for _, row := range []struct {
		topo  string
		pairs int
	}{
		{"net15", 100},
		{"fattree:8", 200},
	} {
		t.Run(row.topo, func(t *testing.T) {
			g, routes, cfg, err := (&Request{Topology: row.topo, Policies: []string{"nip", "dtree"},
				Protection: "auto", Pairs: row.pairs}).Resolve()
			if err != nil {
				t.Fatal(err)
			}
			want := -1
			for _, workers := range []int{1, 2, 4} {
				cfg.Workers = workers
				ct, err := analyzeCases(context.Background(), g, routes, cfg)
				if err != nil {
					t.Fatal(err)
				}
				connected := 0
				for _, res := range ct.results {
					if res.outcome != Disconnected {
						connected++
					}
				}
				computed := ct.computed
				if want < 0 {
					want = computed
					t.Logf("%d cases, %d connected, %d verdicts computed", len(ct.results), connected, computed)
				} else if computed != want {
					t.Errorf("workers=%d computed %d verdicts, workers=1 computed %d", workers, computed, want)
				}
			}
		})
	}
}

// A policy named twice is refused by the sweep and by Resolve, and a
// sweep past MaxCases is refused before anything is sized from it.
func TestSweepRefusesRepeatedPolicyAndOversize(t *testing.T) {
	g, err := topology.Net15()
	if err != nil {
		t.Fatal(err)
	}
	twice := []string{"nip", "dtree", "nip"}
	if _, err := Sweep(g, []RouteSpec{{Src: "AS1", Dst: "AS3"}}, Config{Policies: twice}); err == nil || !strings.Contains(err.Error(), `"nip" named twice`) {
		t.Errorf("sweep with a repeated policy: %v", err)
	}
	if _, _, _, err := (&Request{Topology: "net15", Policies: twice}).Resolve(); err == nil || !strings.Contains(err.Error(), `"nip" named twice`) {
		t.Errorf("request with a repeated policy: %v", err)
	}
	// fattree:16 has 16 256 ordered edge pairs and 2 176 links: the
	// default four policies make 141 M cases.
	big, err := topology.Shared("fattree:16")
	if err != nil {
		t.Fatal(err)
	}
	routes, err := AllPairRoutes(big)
	if err != nil {
		t.Fatal(err)
	}
	limit := fmt.Sprintf("exceeds the limit of %d cases", MaxCases)
	if _, _, _, err := (&Request{Topology: "fattree:16"}).Resolve(); err == nil || !strings.Contains(err.Error(), limit) {
		t.Errorf("oversize request: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	progressed := false
	rep, err := SweepContext(ctx, big, routes, Config{Progress: func(int, int) { progressed = true }})
	if rep != nil || progressed || err == nil || !strings.Contains(err.Error(), limit) {
		t.Errorf("oversize sweep: report %v, progressed %v, err %v", rep != nil, progressed, err)
	}
	if _, err := CheckSweep(big, 1, nil, 0); err != nil {
		t.Errorf("one route on fattree:16 refused: %v", err)
	}
}
