package experiment

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/topology"
)

// CoverageRow is one closed-form walk analysis: a route, a protection
// level, a deflection policy and a failed on-route link.
type CoverageRow struct {
	Topology   string
	Failure    string
	Protection string
	Policy     string
	Result     analysis.Result
}

// coverageCell is one closed-form question: a route over a topology
// (pinned to path when one is given), its protection pairs under a
// label, and the failed link.
type coverageCell struct {
	topology   string
	graph      func() (*topology.Graph, error)
	src, dst   string
	path       []string
	protection string
	pairs      [][2]string
	fail       [2]string
}

// fig8Cell is the Fig. 8 redundant-path scenario: the route extended
// past São Paulo to EDGE-SUL, its protection, and SW73–SW107 failing.
var fig8Cell = coverageCell{
	topology: "rnp28-fig8", graph: topology.RNP28Fig8, src: "EDGE-N", dst: "EDGE-SUL",
	path: topology.RNP28Fig8Route, protection: "fig8", pairs: topology.RNP28Fig8Protection,
	fail: [2]string{"SW73", "SW107"},
}

// coverageCells lists the coverage questions in row order: Net15's
// AS1→AS3 route per protection level and on-route failure, the Fig. 7
// RNP route under partial protection per on-route failure, and Fig. 8.
func coverageCells() ([]coverageCell, error) {
	var cells []coverageCell
	for _, prot := range net15Levels {
		pairs, err := net15Protection(prot)
		if err != nil {
			return nil, err
		}
		for _, fail := range net15Failures {
			cells = append(cells, coverageCell{topology: "net15", graph: topology.Net15, src: "AS1", dst: "AS3",
				protection: prot, pairs: pairs, fail: fail})
		}
	}
	for _, fail := range rnpFailures {
		cells = append(cells, coverageCell{topology: "rnp28", graph: topology.RNP28, src: "EDGE-N", dst: "EDGE-SP",
			protection: "partial", pairs: topology.RNP28PartialProtection, fail: fail})
	}
	return append(cells, fig8Cell), nil
}

// Coverage runs the Markov-chain analysis that underpins the paper's
// §3 narratives: for every single failure on the measured route, the
// exact delivery probability and expected path stretch per protection
// level and policy. It covers both evaluation topologies.
func Coverage(policies []string) ([]CoverageRow, error) {
	if len(policies) == 0 {
		policies = []string{"avp", "nip"}
	}
	cells, err := coverageCells()
	if err != nil {
		return nil, err
	}
	var rows []CoverageRow
	for _, c := range cells {
		for _, policy := range policies {
			res, err := analyzeOne(c, policy)
			if err != nil {
				return nil, err
			}
			rows = append(rows, CoverageRow{
				Topology: c.topology, Failure: c.fail[0] + "-" + c.fail[1],
				Protection: c.protection, Policy: policy, Result: res,
			})
		}
	}
	return rows, nil
}

// analyzeOne answers one cell under policy in closed form.
func analyzeOne(c coverageCell, policy string) (analysis.Result, error) {
	g, err := c.graph()
	if err != nil {
		return analysis.Result{}, err
	}
	// The analysis reads the controller's route table alone: no switch,
	// edge or simulator is built for a closed form.
	hops, err := core.HopsFromPairs(g, c.pairs)
	if err != nil {
		return analysis.Result{}, err
	}
	ctrl := controller.New(g)
	if len(c.path) > 0 {
		_, err = ctrl.InstallRouteOnPath(c.path, hops)
	} else {
		_, err = ctrl.InstallRoute(c.src, c.dst, hops)
	}
	if err != nil {
		return analysis.Result{}, err
	}
	l, ok := g.LinkBetween(c.fail[0], c.fail[1])
	if !ok {
		return analysis.Result{}, fmt.Errorf("experiment: no link %s-%s", c.fail[0], c.fail[1])
	}
	an, err := analysis.New(ctrl, policy, []*topology.Link{l})
	if err != nil {
		return analysis.Result{}, err
	}
	return an.Analyze(c.src, c.dst)
}

// CoverageTable renders the analysis rows.
func CoverageTable(rows []CoverageRow) *measure.Table {
	tbl := &measure.Table{
		Title:   "Deflection coverage: exact delivery probability and path stretch per on-route failure",
		Headers: []string{"Topology", "Failed link", "Protection", "Policy", "P(deliver)", "E[hops|deliver]", "Stretch"},
	}
	for _, r := range rows {
		tbl.AddRow(r.Topology, r.Failure, r.Protection, r.Policy,
			fmt.Sprintf("%.4f", r.Result.PDeliver),
			fmt.Sprintf("%.2f", r.Result.ExpectedHops),
			fmt.Sprintf("%.3f", r.Result.Stretch()))
	}
	return tbl
}
