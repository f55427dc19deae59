// Command karsim runs the KAR reproduction experiments — one per
// table and figure of the paper's evaluation — at full fidelity and
// prints the resulting tables (optionally CSV). An argument list that
// starts with a flag selects one of three batch modes:
//
//	karsim -exp <name>            one experiment of the table in exp.go
//	karsim -exp all               every experiment that table marks for it
//	karsim -scenario file.json    a declarative fault scenario
//	karsim -verify net15          the exhaustive failure-sweep verifier
//
// Any other argument list names a verb of the table in verbs.go
// (`karsim help` prints it): the daemon and the tools around the runs.
//
//	karsim serve                  the scenario/verify daemon
//	karsim route encode|decode    the route-ID calculator
//	karsim topo                   topology summary, DOT, encoding sizes
//	karsim trace -in t.jsonl      analysis of a -trace-export file
//	karsim client -probe|-post    a daemon's client, for scripts
//
// Examples:
//
//	karsim -exp fig5 -runs 30          # protection sweep, 95% CIs
//	karsim -exp all -runs 10 -duration 6s
//	karsim -exp fig4 -metrics out.prom # + telemetry dump and report
//	karsim -scenario f.json -seed 99 -runs 3   # the file, overridden
//
// Runs are deterministic for a given -seed; with -metrics, two runs
// with the same seed produce byte-identical dumps. Worker and shard
// counts never reach an output byte, and the data plane is always the
// batched one (the scalar plane is the test suite's oracle, not a
// mode).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/measure"
	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "karsim:", err)
		os.Exit(1)
	}
}

type options struct {
	// out receives everything the run prints.
	out io.Writer
	// set names the flags given on the command line: -seed, -runs and
	// -shards reach a -scenario or -verify request only when given, so
	// an omitted flag is an omitted request field.
	set map[string]bool

	exp      string
	scenario string
	runs     int
	duration time.Duration
	seed     int64
	workers  int
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

	// verify is the request the -verify flag family fills, the serve
	// daemon's /v1/verify body.
	verify     resilience.Request
	verifyMin  float64
	verifyJSON string

	// collector gathers per-run telemetry when -metrics is set; nil
	// otherwise (telemetry.Collector methods are nil-safe on Add).
	collector *telemetry.Collector
	// tracer gathers per-run flight-recorder traces when -trace-export
	// is set; nil otherwise (trace.Collector methods are nil-safe).
	tracer *trace.Collector
}

func run(args []string, stdout io.Writer) error {
	// Verbs come before the flag grammar: an argument list that does not
	// start with a flag names a row of the verb table.
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		return runVerb(args[0], args[1:], stdout)
	}
	fs := flag.NewFlagSet("karsim", flag.ContinueOnError)
	opts := options{out: stdout, set: map[string]bool{}}
	fs.StringVar(&opts.exp, "exp", "all", "experiment: "+experimentNames())
	fs.StringVar(&opts.scenario, "scenario", "", "run a declarative fault scenario file (JSON, see examples/scenarios/) instead of -exp; -seed, -runs and -shards, when given, override the file's values as the serve daemon's request fields do")
	fs.IntVar(&opts.runs, "runs", 30, "repetitions for fig5/fig7/fig8 (the paper used 30)")
	fs.DurationVar(&opts.duration, "duration", 6*time.Second, "virtual duration per fig5/fig7/fig8 run (paper: 5s + ramp)")
	fs.Int64Var(&opts.seed, "seed", 1, "base random seed")
	fs.IntVar(&opts.workers, "workers", 0, "parallel simulation workers (0 = one per CPU)")
	fs.BoolVar(&opts.csv, "csv", false, "emit CSV instead of aligned tables")
	fs.StringVar(&opts.metrics, "metrics", "", "write a Prometheus-text metrics dump to this path (plus <path>.json with events) and print a MetricsReport")
	fs.StringVar(&opts.pprof, "pprof", "", "write runtime profiles to <prefix>.{cpu,heap,mutex,block}.pprof")
	fs.IntVar(&opts.shards, "shards", 1, "worker goroutines for -exp scale and -scenario; the world is cut into two regions per worker (results are byte-identical for every value)")
	fs.StringVar(&opts.topo, "topo", "", "generated topology spec for -exp scale: fattree:<k>, clos:<leaves>:<spines>, isp:<cores>:<m>:<hosts>:<seed>, rand:<cores>:<extra>:<edges>:<seed>")
	fs.IntVar(&opts.flows, "flows", 0, "logical flow population for -exp scale (default 100000)")
	fs.IntVar(&opts.pairs, "pairs", 0, "distinct src/dst host pairs for -exp scale (default 64)")
	fs.Float64Var(&opts.rate, "rate", 0, "mean per-flow packets/s for -exp scale (default 5)")
	fs.StringVar(&opts.arrival, "arrival", "poisson", "arrival process for -exp scale: poisson or onoff")
	fs.IntVar(&opts.failLinks, "fail-links", 0, "fail this many seeded fabric links mid-run in -exp scale")
	fs.StringVar(&opts.traceExport, "trace-export", "", "write flight-recorder traces to <prefix>.jsonl (structured) and <prefix>.trace.json (Perfetto/chrome://tracing)")
	fs.Float64Var(&opts.traceSample, "trace-sample", 1, "per-flow sampling probability for -trace-export (deterministic flow hash, not an RNG)")
	fs.IntVar(&opts.traceMax, "trace-max", 0, "retained flight-recorder records per run (0 = default 65536)")
	fs.StringVar(&opts.verify.Topology, "verify", "", "run the exhaustive failure-sweep resilience verifier on this topology (net15, rnp28, rnp28-fig8, fig1, or a generator spec as for -topo) instead of -exp")
	fs.StringVar(&opts.verify.Protection, "verify-protection", "none", "protection level for -verify: none, partial, full or auto (per-destination planned trees)")
	fs.Func("verify-policies", "comma-separated deflection policies for -verify (none, hp, avp, nip, dtree; default none,hp,avp,nip)", func(v string) error {
		opts.verify.Policies = strings.FieldsFunc(v, func(r rune) bool { return r == ',' || r == ' ' })
		return nil
	})
	fs.StringVar(&opts.verify.Routes, "verify-routes", "", "comma-separated src:dst routes for -verify (default: every ordered edge pair)")
	fs.Float64Var(&opts.verifyMin, "verify-min", -1, "fail (exit non-zero) if any route's single-failure survive fraction drops below this")
	fs.IntVar(&opts.verify.Pairs, "verify-pairs", 0, "additionally sample this many two-link failure pairs (seeded by -seed when given, else 0, as /v1/verify)")
	fs.StringVar(&opts.verifyJSON, "verify-json", "", "write the -verify report as JSON to this path")
	fs.StringVar(&opts.verdictJSON, "verdict-json", "", "write the -scenario verdict as JSON to this path (byte-identical to the serve daemon's result for the same request)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fs.Visit(func(f *flag.Flag) { opts.set[f.Name] = true })
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

	// Each mode returns its verdict as an error, checked only after the
	// telemetry the run did produce is on disk.
	var verdict error
	switch {
	case opts.verify.Topology != "":
		verdict, err = runVerify(&opts)
	case opts.scenario != "":
		verdict, err = runScenario(&opts)
	default:
		err = runExperiments(&opts)
	}
	if err == nil {
		err = writeOutputs(&opts)
	}
	if err == nil {
		err = verdict
	}
	return err
}

// writeOutputs flushes every requested end-of-run artefact: with
// -metrics the MetricsReport table, the Prometheus-text dump and the
// JSON snapshot (metrics + per-run event streams); with -trace-export
// <prefix>.jsonl (structured, `karsim trace`'s input) and <prefix>.trace.json
// (Chrome trace-event JSON, loadable in Perfetto). Run labels, record
// order and field order are all deterministic, so same-seed files are
// byte-identical at any -workers setting.
func writeOutputs(o *options) error {
	if o.collector != nil {
		fmt.Fprintln(o.out)
		o.print(experiment.MetricsReport(o.collector))
		if err := writeFile(o.metrics, o.collector.WritePrometheus); err != nil {
			return err
		}
		if err := writeFile(o.metrics+".json", o.collector.WriteJSON); err != nil {
			return err
		}
	}
	if o.tracer != nil {
		if err := writeFile(o.traceExport+".jsonl", o.tracer.WriteJSONL); err != nil {
			return err
		}
		return writeFile(o.traceExport+".trace.json", o.tracer.WritePerfetto)
	}
	return nil
}

// writeFile creates path and hands it to write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return write(f)
}

// writeDocument writes v to path as a result document, if a path was
// given.
func writeDocument(path string, v any) error {
	if path == "" {
		return nil
	}
	return writeFile(path, func(w io.Writer) error { return measure.WriteDocument(w, v) })
}

// print writes tables separated by blank lines, as aligned text or,
// under -csv, as CSV.
func (o *options) print(tables ...*measure.Table) { printTables(o.out, o.csv, tables...) }
