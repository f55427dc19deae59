package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/topology"
)

// runTopo inspects a topology: summary and adjacency with port numbers,
// Graphviz DOT output, or an encoding-size table for one route.
//
//	karsim topo -topo net15                 # summary + adjacency
//	karsim topo -topo rnp28 -dot            # Graphviz DOT on stdout
//	karsim topo -topo net15 -sizes AS1,AS3  # encoding size vs protection budget
func runTopo(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("karsim topo", flag.ContinueOnError)
	var (
		topoName = fs.String("topo", "net15", topoHelp)
		dot      = fs.Bool("dot", false, "emit Graphviz DOT instead of the text summary")
		sizes    = fs.String("sizes", "", "SRC,DST: print route-ID size vs protection bit budget")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	g, err := topology.ByName(*topoName)
	if err != nil {
		return err
	}

	if *dot {
		printDOT(stdout, g)
		return nil
	}
	if *sizes != "" {
		parts := strings.Split(*sizes, ",")
		if len(parts) != 2 {
			return fmt.Errorf("-sizes wants SRC,DST, got %q", *sizes)
		}
		return printSizes(stdout, g, strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1]))
	}

	fmt.Fprintln(stdout, g.Summary())
	fmt.Fprintf(stdout, "switch IDs: %v\n", g.SwitchIDs())
	fmt.Fprintln(stdout, "adjacency (node: port->neighbour):")
	for _, n := range g.Nodes() {
		var ports []string
		for i := 0; i < n.PortSpan(); i++ {
			if nb, ok := n.Neighbor(i); ok {
				ports = append(ports, fmt.Sprintf("%d->%s", i, nb.Name()))
			}
		}
		kind := " "
		if n.Kind() == topology.KindEdge {
			kind = "*"
		}
		fmt.Fprintf(stdout, "  %s%-8s %s\n", kind, n.Name(), strings.Join(ports, "  "))
	}
	fmt.Fprintln(stdout, "links (rate Mb/s, delay, queue):")
	for _, l := range g.Links() {
		fmt.Fprintf(stdout, "  %-16s %6.0f  %8s  %4d\n", l.Name(), l.RateMbps(), l.Delay(), l.QueuePackets())
	}
	return nil
}

func printDOT(stdout io.Writer, g *topology.Graph) {
	fmt.Fprintf(stdout, "graph %q {\n", g.Name())
	fmt.Fprintln(stdout, "  node [shape=circle];")
	for _, n := range g.Nodes() {
		if n.Kind() == topology.KindEdge {
			fmt.Fprintf(stdout, "  %q [shape=box, style=filled, fillcolor=lightgrey];\n", n.Name())
		} else {
			fmt.Fprintf(stdout, "  %q [label=\"%s\\n%d\"];\n", n.Name(), n.Name(), n.ID())
		}
	}
	for _, l := range g.Links() {
		fmt.Fprintf(stdout, "  %q -- %q [label=\"%.0f\"];\n", l.A().Name(), l.B().Name(), l.RateMbps())
	}
	fmt.Fprintln(stdout, "}")
}

func printSizes(stdout io.Writer, g *topology.Graph, src, dst string) error {
	path, err := topology.ShortestPath(g, src, dst, nil)
	if err != nil {
		return err
	}
	tbl := &measure.Table{
		Title:   fmt.Sprintf("Route-ID size vs protection budget for %s", path),
		Headers: []string{"Budget (bits)", "Protection hops", "Bit length", "Header bytes"},
	}
	for _, budget := range []int{0, 16, 24, 32, 40, 48, 64, 96, 128} {
		label := fmt.Sprint(budget)
		if budget == 0 {
			label = "unlimited"
		}
		hops, err := core.PlanProtection(g, path, core.PlanOptions{MaxBits: budget})
		if err != nil {
			tbl.AddRow(label, "-", "-", "-")
			continue
		}
		route, err := core.EncodeRoute(path, hops)
		if err != nil {
			return err
		}
		tbl.AddRow(label, fmt.Sprint(len(hops)), fmt.Sprint(route.BitLength()),
			fmt.Sprint((route.BitLength()+7)/8+3))
	}
	printTables(stdout, false, tbl)
	return nil
}
