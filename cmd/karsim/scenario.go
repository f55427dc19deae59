package main

import (
	"fmt"
	"os"

	"repro/internal/measure"
	"repro/internal/scenario"
)

// runScenario executes a declarative fault scenario file and prints
// its verdict: one row per seeded run with traffic totals, fault
// counters and any expectation violations. The file and -seed, -runs
// and -shards, when the user gave them, fill the scenario.Request the
// serve daemon decodes from a /v1/scenarios body, so the verdict
// document is the daemon's for the same request. A failing verdict
// comes back as the first result, for the caller to return after
// telemetry is written.
func runScenario(o *options) (verdict, err error) {
	doc, err := os.ReadFile(o.scenario)
	if err != nil {
		return nil, err
	}
	req := scenario.Request{Spec: doc}
	if o.set["seed"] {
		req.Seed = &o.seed
	}
	if o.set["runs"] {
		req.Runs = o.runs
	}
	if o.set["shards"] {
		req.Shards = o.shards
	}
	spec, err := req.Resolve()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.scenario, err)
	}
	v, err := scenario.Run(spec, scenario.RunOptions{Workers: o.workers, Metrics: o.collector, Trace: o.tracer})
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(o.out, "scenario %s (%s/%s", v.Scenario, v.Topology, v.Policy)
	if spec.Description != "" {
		fmt.Fprintf(o.out, ": %s", spec.Description)
	}
	fmt.Fprintln(o.out, ")")
	o.print(verdictTable(v))

	if vr := v.Verify; vr != nil {
		fmt.Fprintf(o.out, "\nresilience sweep (protection=%s, %d routes x %d links, %d cases)\n",
			vr.Report.Protection, vr.Report.Routes, vr.Report.Links, vr.Report.Cases)
		o.print(scoreTable(vr.Report))
		for _, viol := range vr.Violations {
			fmt.Fprintln(o.out, "violation:", viol)
		}
	}

	for _, r := range v.Runs {
		if len(r.Phases) > 0 {
			fmt.Fprintf(o.out, "\n# run %d phases\n", r.Run)
			o.print(phaseTable(&r))
		}
		for _, viol := range r.Violations {
			fmt.Fprintf(o.out, "run %d violation: %s\n", r.Run, viol)
		}
	}
	if v.Pass {
		fmt.Fprintln(o.out, "\nverdict: PASS")
	} else {
		fmt.Fprintln(o.out, "\nverdict: FAIL")
		verdict = fmt.Errorf("scenario %s: FAIL", v.Scenario)
	}
	return verdict, writeDocument(o.verdictJSON, v)
}

func verdictTable(v *scenario.Verdict) *measure.Table {
	tbl := &measure.Table{
		Title: "Scenario runs",
		Headers: []string{"run", "seed", "sent", "delivered", "loss",
			"gray", "corrupted", "deflections", "verdict"},
	}
	for _, r := range v.Runs {
		verdict := "pass"
		if !r.Pass {
			verdict = fmt.Sprintf("FAIL (%d)", len(r.Violations))
		}
		tbl.AddRow(
			fmt.Sprintf("%d", r.Run),
			fmt.Sprintf("%d", r.Seed),
			fmt.Sprintf("%d", r.Sent),
			fmt.Sprintf("%d", r.Delivered),
			fmt.Sprintf("%.4f", r.LossFraction()),
			fmt.Sprintf("%d", r.GrayDrops),
			fmt.Sprintf("%d", r.Corrupted),
			fmt.Sprintf("%d", r.Deflections),
			verdict,
		)
	}
	return tbl
}

func phaseTable(r *scenario.RunResult) *measure.Table {
	tbl := &measure.Table{
		Headers: []string{"phase", "until", "sent", "received", "loss"},
	}
	for _, p := range r.Phases {
		loss := 0.0
		if p.Sent > 0 {
			loss = 1 - float64(p.Received)/float64(p.Sent)
		}
		tbl.AddRow(p.Name, p.Until.D().String(),
			fmt.Sprintf("%d", p.Sent),
			fmt.Sprintf("%d", p.Received),
			fmt.Sprintf("%.4f", loss))
	}
	return tbl
}
