package experiment

import (
	"strings"
	"testing"
	"time"

	"repro/internal/topology"
)

// TestTable1Exact regenerates the paper's Table 1 and asserts every
// cell.
func TestTable1Exact(t *testing.T) {
	tbl, err := Table1()
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	want := [][]string{
		{"unprotected", "15", "4"},
		{"partial", "28", "7"},
		{"full", "43", "10"},
	}
	if len(tbl.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), len(want))
	}
	for i, w := range want {
		if tbl.Rows[i][0] != w[0] || tbl.Rows[i][1] != w[1] || tbl.Rows[i][2] != w[2] {
			t.Errorf("row %d = %v, want %v", i, tbl.Rows[i], w)
		}
	}
	if !strings.Contains(tbl.String(), "Bit length") {
		t.Error("rendered table missing header")
	}
}

// TestFig4Shape runs a compressed Fig. 4 timeline and asserts the
// paper's qualitative ordering: no-deflection stalls during the
// failure, NIP retains the most throughput, every policy recovers
// after repair.
func TestFig4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation")
	}
	series, err := Fig4(Fig4Config{
		PreFailure: 10 * time.Second,
		FailureFor: 10 * time.Second,
		PostRepair: 10 * time.Second,
		Seed:       42,
	})
	if err != nil {
		t.Fatalf("Fig4: %v", err)
	}
	byPolicy := map[string]Fig4Series{}
	for _, s := range series {
		byPolicy[s.Policy] = s
	}
	for name, s := range byPolicy {
		if s.PreMbps < 120 {
			t.Errorf("%s: pre-failure goodput %.1f Mb/s, want near the 200 Mb/s line rate", name, s.PreMbps)
		}
		if s.PostMbps < 60 {
			t.Errorf("%s: post-repair goodput %.1f Mb/s; flow did not recover", name, s.PostMbps)
		}
	}
	none, hp, avp, nip := byPolicy["none"], byPolicy["hp"], byPolicy["avp"], byPolicy["nip"]
	if none.DuringMbps > 0.05*none.PreMbps {
		t.Errorf("no-deflection during-failure goodput %.1f Mb/s, want ~0 (blackhole)", none.DuringMbps)
	}
	if !(nip.DuringMbps > avp.DuringMbps && avp.DuringMbps > hp.DuringMbps) {
		t.Errorf("during-failure ordering nip(%.1f) > avp(%.1f) > hp(%.1f) violated",
			nip.DuringMbps, avp.DuringMbps, hp.DuringMbps)
	}
	// The paper's headline: NIP keeps the failure impact around 25%
	// (150 of 200). Allow a generous band around that shape.
	if ratio := nip.DuringMbps / nip.PreMbps; ratio < 0.5 {
		t.Errorf("NIP during/pre ratio %.2f, want > 0.5 (paper: ~0.75)", ratio)
	}
}

// TestFig5Shape runs a reduced Fig. 5 sweep and asserts the paper's
// findings: full protection wins everywhere; partial ≈ full for
// failures at SW7-SW13 and SW13-SW29; a clear partial-vs-full gap for
// SW10-SW7; NIP ≥ AVP.
func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation")
	}
	rows, err := Fig5(Fig5Config{Runs: 8, RunDuration: 8 * time.Second, WarmUp: 2 * time.Second, Seed: 42, Workers: 16})
	if err != nil {
		t.Fatalf("Fig5: %v", err)
	}
	get := func(fail, prot, policy string) float64 {
		for _, r := range rows {
			if r.Failure == fail && r.Protection == prot && r.Policy == policy {
				return r.Goodput.Mean
			}
		}
		t.Fatalf("missing row %s/%s/%s", fail, prot, policy)
		return 0
	}
	for _, fail := range []string{"SW10-SW7", "SW7-SW13", "SW13-SW29"} {
		full := get(fail, "full", "nip")
		partial := get(fail, "partial", "nip")
		unprot := get(fail, "unprotected", "nip")
		if full < partial*0.7 {
			t.Errorf("%s: full (%.1f) well below partial (%.1f); full protection must be best", fail, full, partial)
		}
		if unprot > partial*1.3 {
			t.Errorf("%s: unprotected (%.1f) clearly above partial (%.1f)", fail, unprot, partial)
		}
		// NIP beats AVP per the paper.
		for _, prot := range []string{"partial", "full"} {
			if nip, avp := get(fail, prot, "nip"), get(fail, prot, "avp"); nip < avp*0.9 {
				t.Errorf("%s/%s: nip (%.1f) below avp (%.1f)", fail, prot, nip, avp)
			}
		}
	}
	// The paper's SW10-SW7 contrast: partial loses a large fraction of
	// full's throughput (2/3 of packets wander the uncovered cluster).
	full, partial := get("SW10-SW7", "full", "nip"), get("SW10-SW7", "partial", "nip")
	if partial > 0.6*full {
		t.Errorf("SW10-SW7: partial (%.1f) not clearly below full (%.1f); expected the 2/3-wander gap", partial, full)
	}
	// And partial ≈ full elsewhere (within the noise of 8 short runs).
	for _, fail := range []string{"SW7-SW13", "SW13-SW29"} {
		full, partial := get(fail, "full", "nip"), get(fail, "partial", "nip")
		if partial < 0.5*full {
			t.Errorf("%s: partial (%.1f) far below full (%.1f); paper found them similar", fail, partial, full)
		}
	}
}

// TestFig7Shape asserts the RNP sweep ordering of §3.2: the SW7-SW13
// failure costs almost nothing, SW13-SW41 costs the most, SW41-SW73
// sits in between.
func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation")
	}
	rows, err := Fig7(RepeatConfig{Runs: 6, RunDuration: 8 * time.Second, WarmUp: 2 * time.Second, Seed: 42, Workers: 12})
	if err != nil {
		t.Fatalf("Fig7: %v", err)
	}
	byName := map[string]Fig7Row{}
	for _, r := range rows {
		byName[r.Scenario] = r
	}
	if base := byName["no failure"].Goodput.Mean; base < 120 {
		t.Errorf("no-failure goodput %.1f Mb/s, want near the 200 Mb/s route rate", base)
	}
	d713 := byName["SW7-SW13"].DropPct
	d1341 := byName["SW13-SW41"].DropPct
	d4173 := byName["SW41-SW73"].DropPct
	if d713 > 12 {
		t.Errorf("SW7-SW13 drop = %.1f%%, want small (paper: <5%%; single deterministic detour)", d713)
	}
	if !(d1341 > d4173 && d4173 > d713) {
		t.Errorf("drop ordering violated: SW13-SW41 (%.1f%%) > SW41-SW73 (%.1f%%) > SW7-SW13 (%.1f%%)",
			d1341, d4173, d713)
	}
	for _, r := range rows {
		if r.Goodput.Mean <= 0 {
			t.Errorf("%s: zero goodput; NIP must keep the flow alive", r.Scenario)
		}
	}
}

// TestFig8Shape asserts the redundant-path scenario: the flow
// survives at a substantially reduced rate, and the analytic module
// reproduces the retry-loop expectation exactly.
func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation")
	}
	res, err := Fig8(RepeatConfig{Runs: 6, RunDuration: 8 * time.Second, WarmUp: 2 * time.Second, Seed: 42, Workers: 12})
	if err != nil {
		t.Fatalf("Fig8: %v", err)
	}
	if res.NoFailure.Mean < 120 {
		t.Errorf("nominal goodput %.1f Mb/s, want near line rate", res.NoFailure.Mean)
	}
	if res.WithFailure.Mean <= 0 {
		t.Error("with-failure goodput is zero; the retry loop must still deliver")
	}
	if res.RatioPct >= 90 {
		t.Errorf("ratio %.1f%%, want a clear penalty (paper: 54.8%%)", res.RatioPct)
	}
	if res.Analytic.PDeliver != 1 {
		t.Errorf("analytic delivery probability %.3f, want 1", res.Analytic.PDeliver)
	}
	if got := res.Analytic.ExpectedHops; got < 11-1e-6 || got > 11+1e-6 {
		t.Errorf("analytic expected hops %.2f, want exactly 11", got)
	}
}

// TestTable2 checks both Table 2 artefacts.
func TestTable2(t *testing.T) {
	qual := Table2Qualitative()
	if len(qual.Rows) != 8 {
		t.Errorf("qualitative rows = %d, want 8", len(qual.Rows))
	}
	last := qual.Rows[len(qual.Rows)-1]
	if last[0] != "KAR" || last[1] != "Yes" || last[2] != "Yes" || last[3] != "Stateless" {
		t.Errorf("KAR row = %v", last)
	}

	quant, err := Table2Quantitative()
	if err != nil {
		t.Fatalf("Table2Quantitative: %v", err)
	}
	if quant.TableEntriesPerSW != 3 {
		t.Errorf("table entries per switch = %d, want 3 (one per edge)", quant.TableEntriesPerSW)
	}
	if quant.TableEntriesTotal != 36 {
		t.Errorf("total table entries = %d, want 36", quant.TableEntriesTotal)
	}
	// Every Net15 core switch holds one row per edge.
	if quant.TableEntriesTotal != quant.CoreSwitches*quant.TableEntriesPerSW {
		t.Errorf("total table entries = %d, want %d core switches × %d", quant.TableEntriesTotal, quant.CoreSwitches, quant.TableEntriesPerSW)
	}
	if quant.KARStatePerSW != 0 {
		t.Errorf("KAR state per switch = %d, want 0", quant.KARStatePerSW)
	}
	if quant.TableDoubleFailPct != 0 {
		t.Errorf("table baseline delivered %.1f%% under double failure, want 0", quant.TableDoubleFailPct)
	}
	if quant.KARDoubleFailPct < 99 {
		t.Errorf("KAR delivered %.1f%% under double failure, want ~100%%", quant.KARDoubleFailPct)
	}
	if out := Table2QuantTable(quant).String(); !strings.Contains(out, "double failure") {
		t.Error("rendered quantitative table missing double-failure row")
	}
}

// TestCoverageAnalysis sanity-checks the closed-form walk results
// against the paper's reasoning.
func TestCoverageAnalysis(t *testing.T) {
	rows, err := Coverage([]string{"nip"})
	if err != nil {
		t.Fatalf("Coverage: %v", err)
	}
	find := func(topo, fail, prot string) CoverageRow {
		for _, r := range rows {
			if r.Topology == topo && r.Failure == fail && r.Protection == prot {
				return r
			}
		}
		t.Fatalf("missing row %s/%s/%s", topo, fail, prot)
		return CoverageRow{}
	}
	// NIP always delivers on these topologies (the liveness property).
	const tol = 1e-9
	for _, r := range rows {
		if r.Result.PDeliver < 1-tol {
			t.Errorf("%s %s %s: P(deliver) = %.12f, want 1 under NIP", r.Topology, r.Failure, r.Protection, r.Result.PDeliver)
		}
		if r.Result.ExpectedHops < float64(r.Result.BaselineHops)-tol {
			t.Errorf("%s %s: expected hops %.2f below baseline %d", r.Topology, r.Failure, r.Result.ExpectedHops, r.Result.BaselineHops)
		}
	}
	// SW10-SW7: protection shortens the expected walk monotonically.
	u := find("net15", "SW10-SW7", "unprotected").Result.ExpectedHops
	p := find("net15", "SW10-SW7", "partial").Result.ExpectedHops
	f := find("net15", "SW10-SW7", "full").Result.ExpectedHops
	if !(u > p && p > f) {
		t.Errorf("SW10-SW7 expected hops not monotone: unprot %.2f > partial %.2f > full %.2f", u, p, f)
	}
	// RNP SW7-SW13: the paper's "+1 hop, no disordering" claim — the
	// deterministic detour is exactly one hop longer.
	if got := find("rnp28", "SW7-SW13", "partial").Result.ExpectedHops; got < 6-1e-6 || got > 6+1e-6 {
		t.Errorf("RNP SW7-SW13 expected hops = %.2f, want exactly 6 (5 nominal + 1)", got)
	}
	// RNP SW13-SW41 wanders the most.
	if a, b := find("rnp28", "SW13-SW41", "partial").Result.ExpectedHops,
		find("rnp28", "SW41-SW73", "partial").Result.ExpectedHops; a <= b {
		t.Errorf("RNP SW13-SW41 (%.2f) should exceed SW41-SW73 (%.2f)", a, b)
	}
	// Fig. 8: the geometric retry loop, exactly 11.
	if got := find("rnp28-fig8", "SW73-SW107", "fig8").Result.ExpectedHops; got < 11-1e-6 || got > 11+1e-6 {
		t.Errorf("Fig8 expected hops = %.2f, want exactly 11", got)
	}
}

// TestRunTCPErrors exercises configuration error paths.
func TestRunTCPErrors(t *testing.T) {
	if _, err := RunTCP(TCPRunConfig{Graph: topology.Net15, Policy: "bogus", Src: "AS1", Dst: "AS3", Duration: time.Second}); err == nil {
		t.Error("RunTCP accepted an unknown policy")
	}
	if _, err := RunTCP(TCPRunConfig{Graph: topology.Net15, Policy: "nip", Src: "AS1", Dst: "NOPE", Duration: time.Second}); err == nil {
		t.Error("RunTCP accepted an unknown destination")
	}
	cfg := TCPRunConfig{Graph: topology.Net15, Policy: "nip", Src: "AS1", Dst: "AS3", Duration: time.Second,
		Failures: []FailureSpec{{A: "SW1", B: "SW2"}}}
	if _, err := RunTCP(cfg); err == nil {
		t.Error("RunTCP accepted an unknown failure link")
	}
}

// TestWorldInstallRouteOnPath covers the explicit-path entry point.
func TestWorldInstallRouteOnPath(t *testing.T) {
	g, err := topology.Net15()
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(g, mustPolicy("nip"), 1)
	route, err := w.InstallRouteOnPath([]string{"AS1", "SW10", "SW11", "SW19", "SW27", "SW29", "AS3"}, nil)
	if err != nil {
		t.Fatalf("InstallRouteOnPath: %v", err)
	}
	if route.Path.Hops() != 6 {
		t.Errorf("hops = %d, want 6", route.Path.Hops())
	}
	if _, err := w.InstallRoute("NOPE", "AS3", nil); err == nil {
		t.Error("InstallRoute accepted an unknown source")
	}
}
