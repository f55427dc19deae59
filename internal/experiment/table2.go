package experiment

import (
	"fmt"
	"time"

	"repro/internal/controller"
	"repro/internal/edge"
	"repro/internal/measure"
	"repro/internal/rns"
	"repro/internal/simnet"
	"repro/internal/tablefwd"
	"repro/internal/topology"
)

// Table2Qualitative reproduces the paper's Table 2 verbatim: the
// literature comparison of source-routing and failure-reaction
// approaches. These rows are the paper's claims about related work,
// recorded for completeness; the KAR row is the one this repository
// demonstrates behaviourally (see Table2Quantitative).
func Table2Qualitative() *measure.Table {
	tbl := &measure.Table{
		Title:   "Table 2: source routing and link-failure handling approaches (paper's comparison)",
		Headers: []string{"Work", "Multiple link failures", "Source routing", "Core state"},
	}
	for _, row := range [][]string{
		{"MPLS Fast Reroute", "Yes", "Yes", "Stateless"},
		{"SafeGuard", "Yes", "No", "Statefull"},
		{"OpenFlow Fast Failover", "Yes", "No", "Statefull"},
		{"Routing Deflections", "Yes", "Yes", "Statefull"},
		{"Path Splicing", "Yes", "No", "Statefull"},
		{"Slick Packets", "No", "Yes", "Stateless"},
		{"KeyFlow / SlickFlow", "No", "Yes", "Stateless"},
		{"KAR", "Yes", "Yes", "Stateless"},
	} {
		tbl.AddRow(row...)
	}
	return tbl
}

// Table2Quantitative measures the stateless-vs-stateful contrast that
// Table 2 asserts, on a given topology:
//
//   - forwarding state per core switch: KAR needs no table (one
//     integer ID); the fast-failover baseline needs one row per edge
//     destination, each with a precomputed backup;
//   - multi-failure behaviour: with two failures breaking both the
//     primary and its precomputed alternate at the deflection point,
//     the table baseline blackholes while KAR's NIP deflection keeps
//     delivering.
type Table2Row struct {
	Topology           string
	CoreSwitches       int
	TableEntriesPerSW  int
	TableEntriesTotal  int
	KARStatePerSW      int // table rows a KAR switch stores: zero
	TableDoubleFailPct float64
	KARDoubleFailPct   float64
	DoubleFailureA     string
	DoubleFailureB     string
}

// Table2Quantitative runs the comparison on the 15-node network: the
// same probe run over the fast-failover baseline's switches and over
// KAR's, both with the double failure down before the first probe.
func Table2Quantitative() (*Table2Row, error) {
	// The double failure of the tablefwd tests: SW7's primary toward
	// AS3 and its loop-free alternate.
	failures := [][2]string{{"SW7", "SW13"}, {"SW7", "SW11"}}
	const (
		probes = 400
		drain  = 5 * time.Second
	)

	// The baseline: tablefwd switches, and an ingress that stamps no
	// route ID, only the port toward the first switch.
	g, err := topology.Net15()
	if err != nil {
		return nil, err
	}
	net := simnet.New(g)
	defer net.Close()
	switches, err := tablefwd.InstallAll(net)
	if err != nil {
		return nil, err
	}
	edges := edge.InstallAll(net, controller.New(g))
	port, _ := edges["AS1"].Node().PortToward("SW10")
	edges["AS1"].InstallRoute("AS3", rns.RouteID{}, port)
	table, err := probeRun(net, edges, 0, failures, probes, drain)
	if err != nil {
		return nil, err
	}

	// KAR: NIP over the fully protected route.
	g, err = topology.Net15()
	if err != nil {
		return nil, err
	}
	w := NewWorld(g, mustPolicy("nip"), 17)
	defer w.Close()
	if _, err := w.InstallRoute("AS1", "AS3", topology.Net15FullProtection); err != nil {
		return nil, err
	}
	kar, err := probeRun(w.Net, w.Edges, 0, failures, probes, drain)
	if err != nil {
		return nil, err
	}

	row := &Table2Row{
		Topology:           "net15",
		CoreSwitches:       len(g.CoreNodes()),
		TableEntriesTotal:  tablefwd.TotalStateEntries(switches),
		KARStatePerSW:      0,
		TableDoubleFailPct: float64(table.Received) / probes * 100,
		KARDoubleFailPct:   float64(kar.Received) / probes * 100,
		DoubleFailureA:     failures[0][0] + "-" + failures[0][1],
		DoubleFailureB:     failures[1][0] + "-" + failures[1][1],
	}
	// Entries per core switch: the largest table, not whichever switch
	// a map range yields first.
	for _, sw := range switches {
		row.TableEntriesPerSW = max(row.TableEntriesPerSW, sw.StateEntries())
	}
	return row, nil
}

// Table2QuantTable renders the quantitative row.
func Table2QuantTable(r *Table2Row) *measure.Table {
	tbl := &measure.Table{
		Title: fmt.Sprintf("Table 2 (quantified on %s): state and multi-failure behaviour, double failure %s + %s",
			r.Topology, r.DoubleFailureA, r.DoubleFailureB),
		Headers: []string{"Property", "Fast-failover tables", "KAR"},
	}
	tbl.AddRow("forwarding entries per core switch",
		fmt.Sprint(r.TableEntriesPerSW), fmt.Sprint(r.KARStatePerSW))
	tbl.AddRow("forwarding entries network-wide",
		fmt.Sprint(r.TableEntriesTotal), "0")
	tbl.AddRow("per-switch config", "table + backups", "one coprime ID")
	tbl.AddRow("delivery under double failure",
		fmt.Sprintf("%.1f%%", r.TableDoubleFailPct),
		fmt.Sprintf("%.1f%%", r.KARDoubleFailPct))
	return tbl
}
