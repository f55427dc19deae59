package main

import (
	"fmt"
	"strings"

	"repro/internal/measure"
	"repro/internal/resilience"
	"repro/internal/telemetry"
)

// runVerify drives the exhaustive failure-sweep resilience verifier:
// enumerate every single-link failure (plus optional seeded two-link
// samples) on the chosen topology and score every (route, policy)
// against it. The -verify flag family fills the resilience.Request the
// serve daemon decodes from a /v1/verify body, and -seed reaches it only
// when given, so the report is the daemon's for the same request. A
// -verify-min violation comes back as the first result, for the caller
// to return after telemetry is written.
func runVerify(o *options) (verdict, err error) {
	req := o.verify
	if o.set["seed"] {
		req.Seed = o.seed
	}
	g, routes, cfg, err := req.Resolve()
	if err != nil {
		return nil, err
	}
	cfg.Workers, cfg.Registry = o.workers, telemetry.NewRegistry()
	rep, err := resilience.Sweep(g, routes, cfg)
	if err != nil {
		return nil, err
	}
	o.collector.Add("verify/"+rep.Topology, cfg.Registry, nil)

	fmt.Fprintf(o.out, "verify %s (protection=%s, %d routes x %d links", rep.Topology, rep.Protection, rep.Routes, rep.Links)
	if rep.PairsDrawn > 0 {
		fmt.Fprintf(o.out, " + %d pair samples", rep.PairsDrawn)
	}
	fmt.Fprintf(o.out, ", %d cases)\n", rep.Cases)
	sections := []*measure.Table{scoreTable(rep)}
	if len(rep.Totals) > 0 {
		sections = append(sections, totalsTable(rep))
	}
	if len(rep.Impacts) > 0 {
		sections = append(sections, impactTable(rep))
	}
	o.print(sections...)

	if o.verifyMin >= 0 {
		if viols := rep.Violations(&o.verifyMin, nil); len(viols) > 0 {
			verdict = fmt.Errorf("verify %s: %d scores below -verify-min %.4f:\n%s", rep.Topology, len(viols), o.verifyMin, strings.Join(viols, "\n"))
		}
	}
	return verdict, writeDocument(o.verifyJSON, rep)
}

func scoreTable(rep *resilience.Report) *measure.Table {
	tbl := &measure.Table{
		Title: "Resilience scores (single-link failures)",
		Headers: []string{"route", "policy", "cases", "survived", "degraded",
			"lost", "disc", "survive", "worst-p", "worst-fail", "stretch"},
	}
	for _, sc := range rep.Scores {
		row := []string{
			sc.Src + "->" + sc.Dst,
			sc.Policy,
			fmt.Sprintf("%d", sc.Singles),
			fmt.Sprintf("%d", sc.Survived),
			fmt.Sprintf("%d", sc.Degraded),
			fmt.Sprintf("%d", sc.Lost),
			fmt.Sprintf("%d", sc.Disconnected),
			fmt.Sprintf("%.4f", sc.SurviveFraction),
			fmt.Sprintf("%.4f", sc.WorstPDeliver),
			sc.WorstPDeliverFailure,
			fmt.Sprintf("%.3f", sc.WorstStretch),
		}
		if rep.PairsDrawn > 0 {
			row = append(row, fmt.Sprintf("%d/%d", sc.PairSurvived, sc.PairCases))
		}
		tbl.AddRow(row...)
	}
	if rep.PairsDrawn > 0 {
		tbl.Headers = append(tbl.Headers, "pairs")
	}
	return tbl
}

func totalsTable(rep *resilience.Report) *measure.Table {
	tbl := &measure.Table{
		Title:   "Per-policy totals (k=1 exhaustive, k=2 sampled pairs)",
		Headers: []string{"policy", "k1-cases", "k1-survived", "k1-fraction"},
	}
	for _, tot := range rep.Totals {
		row := []string{
			tot.Policy,
			fmt.Sprintf("%d", tot.Singles),
			fmt.Sprintf("%d", tot.Survived),
			fmt.Sprintf("%.4f", tot.SurviveFraction),
		}
		if rep.PairsDrawn > 0 {
			row = append(row, fmt.Sprintf("%d/%d", tot.PairSurvived, tot.PairCases),
				fmt.Sprintf("%.4f", tot.PairSurviveFraction))
		}
		tbl.AddRow(row...)
	}
	if rep.PairsDrawn > 0 {
		tbl.Headers = append(tbl.Headers, "k2-pairs", "k2-fraction")
	}
	return tbl
}

func impactTable(rep *resilience.Report) *measure.Table {
	tbl := &measure.Table{
		Title:   "Unprotected links by blast radius",
		Headers: []string{"link", "affected-cases", "min-p-deliver"},
	}
	for _, im := range rep.Impacts {
		tbl.AddRow(im.Link, fmt.Sprintf("%d", im.Affected), fmt.Sprintf("%.4f", im.MinPDeliver))
	}
	return tbl
}
