// Command karsim runs the KAR reproduction experiments — one per
// table and figure of the paper's evaluation — at full fidelity and
// prints the resulting tables (optionally CSV).
//
// Usage:
//
//	karsim -exp table1                 # encoding sizes (Table 1)
//	karsim -exp fig4                   # failure timeline, 30s/30s/30s
//	karsim -exp fig5 -runs 30          # protection sweep, 95% CIs
//	karsim -exp fig7                   # RNP backbone sweep
//	karsim -exp fig8                   # redundant-path worst case
//	karsim -exp table2                 # stateless-vs-stateful contrast
//	karsim -exp coverage               # closed-form walk analysis
//	karsim -exp all -runs 10 -duration 6s
//	karsim -exp fig4 -metrics out.prom # + telemetry dump and report
//
// Runs are deterministic for a given -seed; with -metrics, two runs
// with the same seed produce byte-identical dumps.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/measure"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "karsim:", err)
		os.Exit(1)
	}
}

type options struct {
	exp      string
	scenario string
	runs     int
	duration time.Duration
	seed     int64
	workers  int
	batch    bool
	csv      bool
	metrics  string
	pprof    string

	shards    int
	topo      string
	flows     int
	pairs     int
	rate      float64
	arrival   string
	failLinks int

	traceExport string
	traceSample float64
	traceMax    int

	verdictJSON string

	verify           string
	verifyProtection string
	verifyPolicies   string
	verifyRoutes     string
	verifyMin        float64
	verifyPairs      int
	verifyJSON       string

	// collector gathers per-run telemetry when -metrics is set; nil
	// otherwise (telemetry.Collector methods are nil-safe on Add).
	collector *telemetry.Collector
	// tracer gathers per-run flight-recorder traces when -trace-export
	// is set; nil otherwise (trace.Collector methods are nil-safe).
	tracer *trace.Collector
}

func run(args []string) error {
	// Subcommands come before the flag grammar: `karsim serve` turns
	// the batch simulator into the long-running scenario/verify daemon.
	if len(args) > 0 && args[0] == "serve" {
		return runServe(args[1:])
	}
	fs := flag.NewFlagSet("karsim", flag.ContinueOnError)
	opts := options{}
	fs.StringVar(&opts.exp, "exp", "all", "experiment: table1, fig4, fig5, fig7, fig8, table2, coverage, ablation, reaction, scale, all")
	fs.StringVar(&opts.scenario, "scenario", "", "run a declarative fault scenario file (JSON, see examples/scenarios/) instead of -exp")
	fs.IntVar(&opts.runs, "runs", 30, "repetitions for fig5/fig7/fig8 (the paper used 30)")
	fs.DurationVar(&opts.duration, "duration", 6*time.Second, "virtual duration per fig5/fig7/fig8 run (paper: 5s + ramp)")
	fs.Int64Var(&opts.seed, "seed", 1, "base random seed")
	fs.IntVar(&opts.workers, "workers", 0, "parallel simulation workers (0 = one per CPU)")
	fs.BoolVar(&opts.batch, "batch", true, "batched data plane (packet trains + word-parallel reduction); -batch=false runs the scalar event-per-packet path, results are byte-identical")
	fs.BoolVar(&opts.csv, "csv", false, "emit CSV instead of aligned tables")
	fs.StringVar(&opts.metrics, "metrics", "", "write a Prometheus-text metrics dump to this path (plus <path>.json with events) and print a MetricsReport")
	fs.StringVar(&opts.pprof, "pprof", "", "write runtime profiles to <prefix>.{cpu,heap,mutex,block}.pprof")
	fs.IntVar(&opts.shards, "shards", 1, "parallel region shards for -exp scale (results are byte-identical for every value)")
	fs.StringVar(&opts.topo, "topo", "", "generated topology spec for -exp scale: fattree:<k>, clos:<leaves>:<spines>, isp:<cores>:<m>:<hosts>:<seed>, rand:<cores>:<extra>:<edges>:<seed>")
	fs.IntVar(&opts.flows, "flows", 0, "logical flow population for -exp scale (default 100000)")
	fs.IntVar(&opts.pairs, "pairs", 0, "distinct src/dst host pairs for -exp scale (default 64)")
	fs.Float64Var(&opts.rate, "rate", 0, "mean per-flow packets/s for -exp scale (default 5)")
	fs.StringVar(&opts.arrival, "arrival", "poisson", "arrival process for -exp scale: poisson or onoff")
	fs.IntVar(&opts.failLinks, "fail-links", 0, "fail this many seeded fabric links mid-run in -exp scale")
	fs.StringVar(&opts.traceExport, "trace-export", "", "write flight-recorder traces to <prefix>.jsonl (structured) and <prefix>.trace.json (Perfetto/chrome://tracing)")
	fs.Float64Var(&opts.traceSample, "trace-sample", 1, "per-flow sampling probability for -trace-export (deterministic flow hash, not an RNG)")
	fs.IntVar(&opts.traceMax, "trace-max", 0, "retained flight-recorder records per run (0 = default 65536)")
	fs.StringVar(&opts.verify, "verify", "", "run the exhaustive failure-sweep resilience verifier on this topology (net15, rnp28, rnp28-fig8, fig1, or rand:<cores>:<extra-links>:<edges>:<seed>) instead of -exp")
	fs.StringVar(&opts.verifyProtection, "verify-protection", "none", "protection level for -verify: none, partial, full or auto (per-destination planned trees)")
	fs.StringVar(&opts.verifyPolicies, "verify-policies", "none,hp,avp,nip", "comma-separated deflection policies for -verify (none, hp, avp, nip, dtree)")
	fs.StringVar(&opts.verifyRoutes, "verify-routes", "", "comma-separated src:dst routes for -verify (default: every ordered edge pair)")
	fs.Float64Var(&opts.verifyMin, "verify-min", -1, "fail (exit non-zero) if any route's single-failure survive fraction drops below this")
	fs.IntVar(&opts.verifyPairs, "verify-pairs", 0, "additionally sample this many two-link failure pairs (seeded by -seed)")
	fs.StringVar(&opts.verifyJSON, "verify-json", "", "write the -verify report as JSON to this path")
	fs.StringVar(&opts.verdictJSON, "verdict-json", "", "write the -scenario verdict as JSON to this path (byte-identical to the serve daemon's result for the same spec and seed)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if opts.metrics != "" {
		opts.collector = telemetry.NewCollector()
	}
	if opts.traceExport != "" {
		opts.tracer = trace.NewCollector(trace.Config{Rate: opts.traceSample, Max: opts.traceMax})
	}

	prof, err := startProfiles(opts.pprof)
	if err != nil {
		return err
	}
	// One deferred Stop covers every exit path — early errors included —
	// so the CPU profile is always finalised and the heap/mutex/block
	// profiles always written.
	defer prof.Stop()

	if opts.verify != "" {
		rep, err := runVerify(opts)
		if err != nil {
			return err
		}
		if err := writeOutputs(opts); err != nil {
			return err
		}
		if opts.verifyMin >= 0 {
			if min, worst := rep.MinSurviveFraction(); min < opts.verifyMin {
				return fmt.Errorf("verify %s: route %s->%s policy=%s survives %.4f of single failures, below -verify-min %.4f",
					rep.Topology, worst.Src, worst.Dst, worst.Policy, min, opts.verifyMin)
			}
		}
		return nil
	}

	if opts.scenario != "" {
		v, err := runScenario(opts)
		if err != nil {
			return err
		}
		if err := writeOutputs(opts); err != nil {
			return err
		}
		if !v.Pass {
			return fmt.Errorf("scenario %s: FAIL", v.Scenario)
		}
		return nil
	}

	experiments := map[string]func(options) error{
		"table1":   runTable1,
		"fig4":     runFig4,
		"fig5":     runFig5,
		"fig7":     runFig7,
		"fig8":     runFig8,
		"table2":   runTable2,
		"coverage": runCoverage,
		"ablation": runAblation,
		"reaction": runReaction,
		// scale is deliberately not in `order`: it is sized by its own
		// flags, not meant to ride along with -exp all.
		"scale": runScale,
	}
	order := []string{"table1", "fig4", "fig5", "fig7", "fig8", "table2", "coverage", "ablation", "reaction"}

	if opts.exp == "all" {
		for _, name := range order {
			fmt.Printf("==> %s\n", name)
			if err := experiments[name](opts); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			fmt.Println()
		}
		return writeOutputs(opts)
	}
	fn, ok := experiments[opts.exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q (want one of %s, scale, all)", opts.exp, strings.Join(order, ", "))
	}
	if err := fn(opts); err != nil {
		return err
	}
	return writeOutputs(opts)
}

// writeOutputs flushes every requested end-of-run artefact: the
// -metrics dump and the -trace-export files.
func writeOutputs(opts options) error {
	if err := writeMetrics(opts); err != nil {
		return err
	}
	return writeTrace(opts)
}

// writeTrace writes the collected flight-recorder traces as
// <prefix>.jsonl (structured, kartrace's input) and <prefix>.trace.json
// (Chrome trace-event JSON, loadable in Perfetto) when -trace-export
// was given. Run labels, record order and field order are all
// deterministic, so same-seed exports are byte-identical at any
// -workers setting.
func writeTrace(opts options) error {
	if opts.tracer == nil {
		return nil
	}
	jl, err := os.Create(opts.traceExport + ".jsonl")
	if err != nil {
		return err
	}
	defer jl.Close()
	if err := opts.tracer.WriteJSONL(jl); err != nil {
		return err
	}
	pf, err := os.Create(opts.traceExport + ".trace.json")
	if err != nil {
		return err
	}
	defer pf.Close()
	return opts.tracer.WritePerfetto(pf)
}

// writeMetrics renders the MetricsReport table and writes the
// Prometheus-text dump plus the JSON snapshot (metrics + per-run event
// streams) when -metrics was given.
func writeMetrics(opts options) error {
	if opts.collector == nil {
		return nil
	}
	fmt.Println()
	emit(opts, experiment.MetricsReport(opts.collector))

	prom, err := os.Create(opts.metrics)
	if err != nil {
		return err
	}
	defer prom.Close()
	if err := opts.collector.WritePrometheus(prom); err != nil {
		return err
	}

	js, err := os.Create(opts.metrics + ".json")
	if err != nil {
		return err
	}
	defer js.Close()
	return opts.collector.WriteJSON(js)
}

func emit(opts options, tbl *measure.Table) {
	if opts.csv {
		fmt.Print(tbl.CSV())
		return
	}
	fmt.Print(tbl.String())
}

func runTable1(opts options) error {
	tbl, err := experiment.Table1()
	if err != nil {
		return err
	}
	emit(opts, tbl)
	return nil
}

func runFig4(opts options) error {
	series, err := experiment.Fig4(experiment.Fig4Config{
		Seed:    opts.seed,
		Workers: opts.workers,
		Metrics: opts.collector,
		Trace:   opts.tracer,
		Scalar:  !opts.batch,
	})
	if err != nil {
		return err
	}
	emit(opts, experiment.Fig4Table(series))
	// Also print the timelines the figure plots.
	for _, s := range series {
		fmt.Printf("\n# timeline %s (t[s] -> Mb/s)\n", s.Policy)
		for _, p := range s.Goodput.Points {
			fmt.Printf("%6.1f %8.2f\n", p.T.Seconds(), p.V)
		}
	}
	return nil
}

func runFig5(opts options) error {
	rows, err := experiment.Fig5(experiment.Fig5Config{
		Runs:        opts.runs,
		RunDuration: opts.duration,
		Seed:        opts.seed,
		Workers:     opts.workers,
		Metrics:     opts.collector,
		Trace:       opts.tracer,
		Scalar:      !opts.batch,
	})
	if err != nil {
		return err
	}
	emit(opts, experiment.Fig5Table(rows))
	return nil
}

func runFig7(opts options) error {
	rows, err := experiment.Fig7(experiment.Fig7Config{
		Runs:        opts.runs,
		RunDuration: opts.duration,
		Seed:        opts.seed,
		Workers:     opts.workers,
		Metrics:     opts.collector,
		Trace:       opts.tracer,
		Scalar:      !opts.batch,
	})
	if err != nil {
		return err
	}
	emit(opts, experiment.Fig7Table(rows))
	return nil
}

func runFig8(opts options) error {
	res, err := experiment.Fig8(experiment.Fig8Config{
		Runs:        opts.runs,
		RunDuration: opts.duration,
		Seed:        opts.seed,
		Workers:     opts.workers,
		Metrics:     opts.collector,
		Trace:       opts.tracer,
		Scalar:      !opts.batch,
	})
	if err != nil {
		return err
	}
	emit(opts, experiment.Fig8Table(res))
	return nil
}

func runTable2(opts options) error {
	emit(opts, experiment.Table2Qualitative())
	fmt.Println()
	row, err := experiment.Table2Quantitative()
	if err != nil {
		return err
	}
	emit(opts, experiment.Table2QuantTable(row))
	return nil
}

func runAblation(opts options) error {
	reno, err := experiment.RenoAblation(opts.seed)
	if err != nil {
		return err
	}
	emit(opts, experiment.RenoAblationTable(reno))
	fmt.Println()
	reaction, err := experiment.ReactionComparison(250*time.Millisecond, opts.seed)
	if err != nil {
		return err
	}
	emit(opts, experiment.ReactionTable(reaction))
	return nil
}

// runReaction is the control-plane experiment: deflection vs a
// reactive controller doing incremental rerouting. With -metrics, the
// dump carries the kar_ctrl_reroutes_{recomputed,skipped}_total
// counters and must be byte-identical across -workers settings —
// scripts/check.sh gates on exactly that.
func runReaction(opts options) error {
	rows, err := experiment.Reaction(experiment.ReactionConfig{
		ControlDelay: 250 * time.Millisecond,
		Seed:         opts.seed,
		Workers:      opts.workers,
		Metrics:      opts.collector,
		Trace:        opts.tracer,
		Scalar:       !opts.batch,
	})
	if err != nil {
		return err
	}
	emit(opts, experiment.ReactionTable(rows))
	return nil
}

// runScale is the datacenter-scale workload: a generated fabric
// (fattree:28 ≈ 1k switches), a million-flow population, and -shards
// parallel regions under conservative lookahead. The metrics dump is
// byte-identical for every -shards/-workers/-batch combination —
// TestDeterminismMatrix gates on it.
func runScale(opts options) error {
	res, err := experiment.Scale(experiment.ScaleConfig{
		Topo:      opts.topo,
		Shards:    opts.shards,
		Flows:     opts.flows,
		Pairs:     opts.pairs,
		Rate:      opts.rate,
		Arrival:   opts.arrival,
		FailLinks: opts.failLinks,
		Duration:  opts.duration,
		Seed:      opts.seed,
		Scalar:    !opts.batch,
		Metrics:   opts.collector,
		Trace:     opts.tracer,
	})
	if err != nil {
		return err
	}
	emit(opts, experiment.ScaleTable(res))
	return nil
}

func runCoverage(opts options) error {
	rows, err := experiment.Coverage(nil)
	if err != nil {
		return err
	}
	emit(opts, experiment.CoverageTable(rows))
	return nil
}
