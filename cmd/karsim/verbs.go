package main

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/measure"
)

// verbs is the table of subcommands: an argument list that does not
// start with a flag names one of these, and the rest of the list is the
// verb's own. `karsim help` and the unknown-verb error derive from it.
var verbs = []struct {
	name string
	does string
	run  func(args []string, stdout io.Writer) error
}{
	{"serve", "run the scenario/verify daemon", runServe},
	{"route", "encode a route ID over a topology, or decode one against switch IDs (route encode|decode)", runRoute},
	{"topo", "print a topology's summary and adjacency, its Graphviz DOT, or its encoding sizes", runTopo},
	{"trace", "analyse a -trace-export file: journeys, deflection causes, reaction latency", runTrace},
	{"client", "probe a running daemon, or post one job to it and fetch the result", runClient},
}

// topoHelp describes what every verb's -topo flag accepts.
const topoHelp = "topology: fig1, net15, rnp28, rnp28-fig8 or a generator spec (fattree:4, ...)"

// runVerb runs the named verb, or `help`.
func runVerb(name string, args []string, stdout io.Writer) error {
	var names []string
	for _, v := range verbs {
		if v.name == name {
			return v.run(args, stdout)
		}
		names = append(names, v.name)
	}
	if name != "help" {
		return fmt.Errorf("unknown verb %q (want one of %s, help)", name, strings.Join(names, ", "))
	}
	fmt.Fprintln(stdout, "usage: karsim -exp <name> | -scenario <file> | -verify <topology> [flags]")
	fmt.Fprintln(stdout, "       karsim <verb> [flags]")
	fmt.Fprintln(stdout, "verbs (each takes -h, as does karsim itself):")
	for _, v := range verbs {
		fmt.Fprintf(stdout, "  %-7s %s\n", v.name, v.does)
	}
	return nil
}

// printTables writes tables separated by blank lines, as aligned text
// or as CSV.
func printTables(w io.Writer, csv bool, tables ...*measure.Table) {
	for i, t := range tables {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if csv {
			io.WriteString(w, t.CSV())
		} else {
			io.WriteString(w, t.String())
		}
	}
}
