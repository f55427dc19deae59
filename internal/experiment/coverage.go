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

// Coverage runs the Markov-chain analysis that underpins the paper's
// §3 narratives: for every single failure on the measured route, the
// exact delivery probability and expected path stretch per protection
// level and policy. It covers both evaluation topologies.
func Coverage(policies []string) ([]CoverageRow, error) {
	if len(policies) == 0 {
		policies = []string{"avp", "nip"}
	}
	var rows []CoverageRow

	// 15-node network: route AS1→AS3, three on-route failures.
	for _, prot := range []string{"unprotected", "partial", "full"} {
		pairs, err := net15Protection(prot)
		if err != nil {
			return nil, err
		}
		for _, fail := range [][2]string{{"SW10", "SW7"}, {"SW7", "SW13"}, {"SW13", "SW29"}} {
			for _, policy := range policies {
				res, err := analyzeOne(topology.Net15, "AS1", "AS3", nil, pairs, policy, fail)
				if err != nil {
					return nil, err
				}
				rows = append(rows, CoverageRow{
					Topology: "net15", Failure: fail[0] + "-" + fail[1],
					Protection: prot, Policy: policy, Result: res,
				})
			}
		}
	}

	// RNP backbone: the Fig. 7 route under partial protection.
	for _, fail := range [][2]string{{"SW7", "SW13"}, {"SW13", "SW41"}, {"SW41", "SW73"}} {
		for _, policy := range policies {
			res, err := analyzeOne(topology.RNP28, "EDGE-N", "EDGE-SP", nil,
				topology.RNP28PartialProtection, policy, fail)
			if err != nil {
				return nil, err
			}
			rows = append(rows, CoverageRow{
				Topology: "rnp28", Failure: fail[0] + "-" + fail[1],
				Protection: "partial", Policy: policy, Result: res,
			})
		}
	}

	// Fig. 8 redundant-path region.
	for _, policy := range policies {
		res, err := analyzeOne(topology.RNP28Fig8, "EDGE-N", "EDGE-SUL",
			topology.RNP28Fig8Route, topology.RNP28Fig8Protection, policy,
			[2]string{"SW73", "SW107"})
		if err != nil {
			return nil, err
		}
		rows = append(rows, CoverageRow{
			Topology: "rnp28-fig8", Failure: "SW73-SW107",
			Protection: "fig8", Policy: policy, Result: res,
		})
	}
	return rows, nil
}

func analyzeOne(builder func() (*topology.Graph, error), src, dst string,
	path []string, protection [][2]string, policy string, fail [2]string) (analysis.Result, error) {

	g, err := builder()
	if err != nil {
		return analysis.Result{}, err
	}
	// The analysis reads the controller's route table alone: no switch,
	// edge or simulator is built for a closed form.
	hops, err := core.HopsFromPairs(g, protection)
	if err != nil {
		return analysis.Result{}, err
	}
	ctrl := controller.New(g)
	if len(path) > 0 {
		_, err = ctrl.InstallRouteOnPath(path, hops)
	} else {
		_, err = ctrl.InstallRoute(src, dst, hops)
	}
	if err != nil {
		return analysis.Result{}, err
	}
	l, ok := g.LinkBetween(fail[0], fail[1])
	if !ok {
		return analysis.Result{}, fmt.Errorf("experiment: no link %s-%s", fail[0], fail[1])
	}
	an, err := analysis.New(ctrl, policy, []*topology.Link{l})
	if err != nil {
		return analysis.Result{}, err
	}
	return an.Analyze(src, dst)
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
