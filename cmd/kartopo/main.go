// Command kartopo inspects KAR topologies: summaries, adjacency with
// port numbers, validation, Graphviz DOT output, and encoding-size
// tables for arbitrary routes.
//
// Usage:
//
//	kartopo -topo net15                 # summary + adjacency
//	kartopo -topo rnp28 -dot            # Graphviz DOT on stdout
//	kartopo -topo net15 -sizes AS1,AS3  # encoding size vs protection budget
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/topology"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "kartopo:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("kartopo", flag.ContinueOnError)
	var (
		topoName = fs.String("topo", "net15", "topology: fig1, net15, rnp28, rnp28-fig8 or a generator spec (fattree:4, ...)")
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
		printDOT(g)
		return nil
	}
	if *sizes != "" {
		parts := strings.Split(*sizes, ",")
		if len(parts) != 2 {
			return fmt.Errorf("-sizes wants SRC,DST, got %q", *sizes)
		}
		return printSizes(g, strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1]))
	}

	fmt.Println(g.Summary())
	fmt.Printf("switch IDs: %v\n", g.SwitchIDs())
	fmt.Println("adjacency (node: port->neighbour):")
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
		fmt.Printf("  %s%-8s %s\n", kind, n.Name(), strings.Join(ports, "  "))
	}
	fmt.Println("links (rate Mb/s, delay, queue):")
	for _, l := range g.Links() {
		fmt.Printf("  %-16s %6.0f  %8s  %4d\n", l.Name(), l.RateMbps(), l.Delay(), l.QueuePackets())
	}
	return nil
}

func printDOT(g *topology.Graph) {
	fmt.Printf("graph %q {\n", g.Name())
	fmt.Println("  node [shape=circle];")
	for _, n := range g.Nodes() {
		if n.Kind() == topology.KindEdge {
			fmt.Printf("  %q [shape=box, style=filled, fillcolor=lightgrey];\n", n.Name())
		} else {
			fmt.Printf("  %q [label=\"%s\\n%d\"];\n", n.Name(), n.Name(), n.ID())
		}
	}
	for _, l := range g.Links() {
		fmt.Printf("  %q -- %q [label=\"%.0f\"];\n", l.A().Name(), l.B().Name(), l.RateMbps())
	}
	fmt.Println("}")
}

func printSizes(g *topology.Graph, src, dst string) error {
	path, err := topology.ShortestPath(g, src, dst, nil)
	if err != nil {
		return err
	}
	budgets := []int{0, 16, 24, 32, 40, 48, 64, 96, 128}
	sort.Ints(budgets)
	tbl := &measure.Table{
		Title:   fmt.Sprintf("Route-ID size vs protection budget for %s", path),
		Headers: []string{"Budget (bits)", "Protection hops", "Bit length", "Header bytes"},
	}
	for _, budget := range budgets {
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
	fmt.Print(tbl.String())
	return nil
}
