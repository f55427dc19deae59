package main

import (
	"fmt"
	"strings"

	"repro/internal/experiment"
)

// experiments is the -exp table: every experiment's name, whether
// -exp all runs it, and how to run and print it from the command
// line's options. The -exp help text, the -exp all order and the
// unknown-experiment error all derive from this table.
var experiments = []struct {
	name  string
	inAll bool
	run   func(o *options) error
}{
	{"table1", true, func(o *options) error {
		tbl, err := experiment.Table1()
		if err != nil {
			return err
		}
		o.print(tbl)
		return nil
	}},
	{"fig4", true, func(o *options) error {
		series, err := experiment.Fig4(experiment.Fig4Config{
			Seed: o.seed, Workers: o.workers, Metrics: o.collector, Trace: o.tracer,
		})
		if err != nil {
			return err
		}
		// The phase means, then the timelines the figure plots.
		o.print(experiment.Fig4Table(series))
		for _, s := range series {
			fmt.Fprintf(o.out, "\n# timeline %s (t[s] -> Mb/s)\n", s.Policy)
			for _, p := range s.Goodput.Points {
				fmt.Fprintf(o.out, "%6.1f %8.2f\n", p.T.Seconds(), p.V)
			}
		}
		return nil
	}},
	{"fig5", true, func(o *options) error {
		rows, err := experiment.Fig5(experiment.Fig5Config{
			Runs: o.runs, RunDuration: o.duration, Seed: o.seed, Workers: o.workers,
			Metrics: o.collector, Trace: o.tracer,
		})
		if err != nil {
			return err
		}
		o.print(experiment.Fig5Table(rows))
		return nil
	}},
	{"fig7", true, func(o *options) error {
		rows, err := experiment.Fig7(o.repeat())
		if err != nil {
			return err
		}
		o.print(experiment.Fig7Table(rows))
		return nil
	}},
	{"fig8", true, func(o *options) error {
		res, err := experiment.Fig8(o.repeat())
		if err != nil {
			return err
		}
		o.print(experiment.Fig8Table(res))
		return nil
	}},
	{"table2", true, func(o *options) error {
		row, err := experiment.Table2Quantitative()
		if err != nil {
			return err
		}
		o.print(experiment.Table2Qualitative(), experiment.Table2QuantTable(row))
		return nil
	}},
	{"coverage", true, func(o *options) error {
		rows, err := experiment.Coverage(nil)
		if err != nil {
			return err
		}
		o.print(experiment.CoverageTable(rows))
		return nil
	}},
	{"ablation", true, func(o *options) error {
		reno, err := experiment.RenoAblation(o.seed, o.workers)
		if err != nil {
			return err
		}
		o.print(experiment.RenoAblationTable(reno))
		return nil
	}},
	// reaction is the control-plane experiment: deflection vs a reactive
	// controller doing incremental rerouting. With -metrics the dump
	// carries the kar_ctrl_reroutes_{recomputed,skipped}_total counters.
	{"reaction", true, func(o *options) error {
		rows, err := experiment.Reaction(experiment.ReactionConfig{
			Seed: o.seed, Metrics: o.collector, Trace: o.tracer,
		})
		if err != nil {
			return err
		}
		o.print(experiment.ReactionTable(rows))
		return nil
	}},
	// scale is the datacenter-scale workload: a generated fabric
	// (fattree:28 ≈ 1k switches), a million-flow population and -shards
	// parallel regions. It is sized by its own flags, so it does not
	// ride along with -exp all.
	{"scale", false, func(o *options) error {
		res, err := experiment.Scale(experiment.ScaleConfig{
			Topo: o.topo, Shards: o.shards, Flows: o.flows, Pairs: o.pairs, Rate: o.rate,
			Arrival: o.arrival, FailLinks: o.failLinks, Duration: o.duration, Seed: o.seed,
			Metrics: o.collector, Trace: o.tracer,
		})
		if err != nil {
			return err
		}
		o.print(experiment.ScaleTable(res))
		return nil
	}},
}

// repeat is the command line's repeated-run sweep configuration.
func (o *options) repeat() experiment.RepeatConfig {
	return experiment.RepeatConfig{
		Runs: o.runs, RunDuration: o.duration, Seed: o.seed, Workers: o.workers,
		Metrics: o.collector, Trace: o.tracer,
	}
}

// experimentNames lists what -exp accepts, in table order.
func experimentNames() string {
	names := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return strings.Join(append(names, "all"), ", ")
}

// runExperiments runs the experiment -exp names, or with "all" every
// one the table marks for it, each under a "==> name" header.
func runExperiments(o *options) error {
	all, ran := o.exp == "all", false
	for _, e := range experiments {
		if e.name != o.exp && !(all && e.inAll) {
			continue
		}
		ran = true
		if all {
			fmt.Fprintf(o.out, "==> %s\n", e.name)
		}
		if err := e.run(o); err != nil {
			if all {
				err = fmt.Errorf("%s: %w", e.name, err)
			}
			return err
		}
		if all {
			fmt.Fprintln(o.out)
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want one of %s)", o.exp, experimentNames())
	}
	return nil
}
