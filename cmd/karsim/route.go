package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/big"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/rns"
	"repro/internal/topology"
)

// runRoute is the route-ID calculator: it encodes routes (with optional
// protection) over the built-in topologies, decodes route IDs against a
// switch-ID basis, and prints the forwarding residue hop by hop.
//
//	karsim route encode -topo fig1 -from S -to D
//	karsim route encode -topo net15 -from AS1 -to AS3 -protect SW11:SW19,SW19:SW27,SW27:SW29
//	karsim route encode -topo net15 -from AS1 -to AS3 -budget 28   # auto-planned protection
//	karsim route decode -id 660 -switches 4,7,11,5
func runRoute(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return errors.New("usage: karsim route encode|decode [flags] (see -h)")
	}
	switch args[0] {
	case "encode":
		return runEncode(args[1:], stdout)
	case "decode":
		return runDecode(args[1:], stdout)
	default:
		return fmt.Errorf("unknown subcommand %q (want encode or decode)", args[0])
	}
}

func runEncode(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("karsim route encode", flag.ContinueOnError)
	var (
		topoName = fs.String("topo", "fig1", topoHelp)
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

	fmt.Fprintf(stdout, "topology:   %s\n", g.Summary())
	fmt.Fprintf(stdout, "path:       %s\n", route.Path)
	fmt.Fprintf(stdout, "route ID:   %s\n", route.ID)
	fmt.Fprintf(stdout, "bit length: %d\n", route.BitLength())
	fmt.Fprintf(stdout, "switches:   %d (%d primary + %d protection)\n",
		route.SwitchCount(), len(route.Primary), len(route.Protection))
	fmt.Fprintln(stdout, "residues:")
	printHops(stdout, route.ID, route.Primary, "primary")
	printHops(stdout, route.ID, route.Protection, "protect")
	return nil
}

func printHops(stdout io.Writer, id rns.RouteID, hops []core.Hop, label string) {
	for _, h := range hops {
		next := "?"
		if nb, ok := h.Switch.Neighbor(h.Port); ok {
			next = nb.Name()
		}
		fmt.Fprintf(stdout, "  %-8s %-6s (ID %3d): %s mod %d = %d  -> port %d -> %s\n",
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

func runDecode(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("karsim route decode", flag.ContinueOnError)
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
		if m == 0 {
			return fmt.Errorf("switch ID %q: nothing reduces modulo zero", part)
		}
		moduli = append(moduli, m)
	}
	fmt.Fprintf(stdout, "route ID %s (%d bits)\n", id, id.BitLen())
	if err := rns.CheckPairwiseCoprime(moduli); err != nil {
		// Not a basis a route could be encoded over; each residue is
		// still what that switch would compute.
		fmt.Fprintf(stdout, "warning: %v\n", err)
	}
	for _, m := range moduli {
		fmt.Fprintf(stdout, "  %s mod %-4d = %d\n", id, m, id.Mod(m))
	}
	return nil
}
