// Command karctl is the KAR route-ID calculator: it encodes routes
// (with optional protection) over the built-in topologies, decodes
// route IDs against a switch-ID basis, and verifies the forwarding
// walk hop by hop.
//
// Usage:
//
//	karctl encode -topo fig1 -from S -to D
//	karctl encode -topo net15 -from AS1 -to AS3 -protect SW11:SW19,SW19:SW27,SW27:SW29
//	karctl encode -topo net15 -from AS1 -to AS3 -budget 28   # auto-planned protection
//	karctl decode -id 660 -switches 4,7,11,5
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/big"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/rns"
	"repro/internal/topology"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "karctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return errors.New("usage: karctl encode|decode [flags] (see -h)")
	}
	switch args[0] {
	case "encode":
		return runEncode(args[1:])
	case "decode":
		return runDecode(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q (want encode or decode)", args[0])
	}
}

func runEncode(args []string) error {
	fs := flag.NewFlagSet("karctl encode", flag.ContinueOnError)
	var (
		topoName = fs.String("topo", "fig1", "topology: fig1, net15, rnp28, rnp28-fig8 or a generator spec (fattree:4, ...)")
		from     = fs.String("from", "", "ingress edge node")
		to       = fs.String("to", "", "egress edge node")
		pathFlag = fs.String("path", "", "explicit comma-separated path (overrides shortest path)")
		protect  = fs.String("protect", "", "protection hops as SW:NEXT pairs, comma separated")
		budget   = fs.Int("budget", 0, "plan protection automatically under this route-ID bit budget")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := topology.ByName(*topoName)
	if err != nil {
		return err
	}

	var path topology.Path
	if *pathFlag != "" {
		names := strings.Split(*pathFlag, ",")
		nodes := make([]*topology.Node, len(names))
		for i, name := range names {
			n, ok := g.Node(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("path node %q: %w", name, topology.ErrUnknownNode)
			}
			nodes[i] = n
		}
		path = topology.Path{Nodes: nodes}
	} else {
		if *from == "" || *to == "" {
			return errors.New("need -from and -to (or -path)")
		}
		path, err = topology.ShortestPath(g, *from, *to, nil)
		if err != nil {
			return err
		}
	}

	var protection []core.Hop
	switch {
	case *protect != "" && *budget != 0:
		return errors.New("-protect and -budget are mutually exclusive")
	case *protect != "":
		pairs, err := parsePairs(*protect)
		if err != nil {
			return err
		}
		protection, err = core.HopsFromPairs(g, pairs)
		if err != nil {
			return err
		}
	case *budget != 0:
		protection, err = core.PlanProtection(g, path, core.PlanOptions{MaxBits: *budget})
		if err != nil {
			return err
		}
	}

	route, err := core.EncodeRoute(path, protection)
	if err != nil {
		return err
	}

	fmt.Printf("topology:   %s\n", g.Summary())
	fmt.Printf("path:       %s\n", route.Path)
	fmt.Printf("route ID:   %s\n", route.ID)
	fmt.Printf("bit length: %d\n", route.BitLength())
	fmt.Printf("switches:   %d (%d primary + %d protection)\n",
		route.SwitchCount(), len(route.Primary), len(route.Protection))
	fmt.Println("residues:")
	printHops(route.ID, route.Primary, "primary")
	printHops(route.ID, route.Protection, "protect")
	return nil
}

func printHops(id rns.RouteID, hops []core.Hop, label string) {
	for _, h := range hops {
		next := "?"
		if nb, ok := h.Switch.Neighbor(h.Port); ok {
			next = nb.Name()
		}
		fmt.Printf("  %-8s %-6s (ID %3d): %s mod %d = %d  -> port %d -> %s\n",
			label, h.Switch.Name(), h.Switch.ID(), id, h.Switch.ID(),
			core.Forward(id, h.Switch.ID()), h.Port, next)
	}
}

func parsePairs(s string) ([][2]string, error) {
	var out [][2]string
	for _, item := range strings.Split(s, ",") {
		parts := strings.Split(strings.TrimSpace(item), ":")
		if len(parts) != 2 {
			return nil, fmt.Errorf("protection hop %q: want SW:NEXT", item)
		}
		out = append(out, [2]string{parts[0], parts[1]})
	}
	return out, nil
}

func runDecode(args []string) error {
	fs := flag.NewFlagSet("karctl decode", flag.ContinueOnError)
	var (
		idFlag   = fs.String("id", "", "route ID (decimal)")
		switches = fs.String("switches", "", "comma-separated switch IDs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *idFlag == "" || *switches == "" {
		return errors.New("need -id and -switches")
	}
	v, ok := new(big.Int).SetString(*idFlag, 10)
	if !ok || v.Sign() < 0 {
		return fmt.Errorf("route ID %q: not a non-negative decimal integer", *idFlag)
	}
	id := rns.RouteIDFromBig(v)

	var moduli []uint64
	for _, part := range strings.Split(*switches, ",") {
		m, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return fmt.Errorf("switch ID %q: %w", part, err)
		}
		moduli = append(moduli, m)
	}
	fmt.Printf("route ID %s (%d bits)\n", id, id.BitLen())
	if err := rns.CheckPairwiseCoprime(moduli); err != nil {
		// Not a valid basis; decompose residue by residue anyway.
		fmt.Printf("warning: %v\n", err)
		for _, m := range moduli {
			fmt.Printf("  %s mod %-4d = %d\n", id, m, id.Mod(m))
		}
		return nil
	}
	sys, err := rns.NewSystem(moduli)
	if err != nil {
		return err
	}
	residues := sys.AppendResidues(make([]uint64, 0, len(moduli)), id)
	for i, m := range moduli {
		fmt.Printf("  %s mod %-4d = %d\n", id, m, residues[i])
	}
	return nil
}
