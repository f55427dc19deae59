package experiment

import (
	"context"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/deflect"
	"repro/internal/measure"
	"repro/internal/par"
	"repro/internal/tcpsim"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Receive-window caps matched to each topology's bandwidth-delay
// product plus queueing headroom (the role the OS receive window
// played in the paper's emulation).
const (
	net15MaxCwnd = 256
	rnpMaxCwnd   = 540
)

func net15TCP() tcpsim.Config { return tcpsim.Config{MaxCwnd: net15MaxCwnd} }
func rnpTCP() tcpsim.Config   { return tcpsim.Config{MaxCwnd: rnpMaxCwnd} }

// shared builds a TCP cell's graph through topology.Shared: graphs are
// immutable after construction, so every run of a sweep reads one
// instance instead of building the topology again.
func shared(name string) func() (*topology.Graph, error) {
	return func() (*topology.Graph, error) { return topology.Shared(name) }
}

// net15Protection resolves a protection level to Net15's canned pair
// set (topology.Protection decides); the figures have no "auto" arm.
func net15Protection(level string) ([][2]string, error) {
	pairs, auto, err := topology.Protection("net15", level)
	if err == nil && auto {
		err = fmt.Errorf("experiment: protection level %q has no canned pair set", level)
	}
	return pairs, err
}

// reverseBudget mirrors the forward protection level onto the ACK
// path via the §2.3 bit-budget planner (Table 1's budgets).
func reverseBudget(level string) int {
	switch level {
	case "partial":
		return 28
	case "full":
		return 43
	default:
		return 0
	}
}

// The measured routes' axes: Net15's protection levels and on-route
// failures (Table 1, Fig. 5, coverage), and the RNP route's on-route
// failures (Fig. 7, coverage).
var (
	net15Levels   = []string{"unprotected", "partial", "full"}
	net15Failures = [][2]string{{"SW10", "SW7"}, {"SW7", "SW13"}, {"SW13", "SW29"}}
	rnpFailures   = [][2]string{{"SW7", "SW13"}, {"SW13", "SW41"}, {"SW41", "SW73"}}
)

// ---------------------------------------------------------------------------
// Table 1 — encoding sizes.

// Table1 regenerates the paper's Table 1: maximum route-ID bit length
// per protection mechanism on the 15-node network.
func Table1() (*measure.Table, error) {
	g, err := topology.Net15()
	if err != nil {
		return nil, err
	}
	path, err := topology.ShortestPath(g, "AS1", "AS3", nil)
	if err != nil {
		return nil, err
	}
	tbl := &measure.Table{
		Title:   "Table 1: maximum bit length required by each protection mechanism (15-node network)",
		Headers: []string{"Protection mechanism", "Bit length", "Switches in route ID"},
	}
	for _, level := range net15Levels {
		pairs, err := net15Protection(level)
		if err != nil {
			return nil, err
		}
		hops, err := core.HopsFromPairs(g, pairs)
		if err != nil {
			return nil, err
		}
		route, err := core.EncodeRoute(path, hops)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(level, fmt.Sprint(route.BitLength()), fmt.Sprint(route.SwitchCount()))
	}
	return tbl, nil
}

// ---------------------------------------------------------------------------
// The TCP sweep engine: every TCP figure (Fig. 4, 5, 7, 8) and the
// transport ablation is a list of cells run through runSweep.

// RepeatConfig scales a sweep of repeated TCP runs; zero values take
// the paper's 30 runs of 5 s each after a 1 s ramp.
type RepeatConfig struct {
	Runs        int
	RunDuration time.Duration
	WarmUp      time.Duration // excluded from each run's mean
	Seed        int64
	// Workers bounds the runs in flight across the whole sweep (0: one
	// per CPU). It only affects wall clock: each run is an isolated
	// world keyed by its seed.
	Workers int
	// Metrics optionally collects every run's telemetry.
	Metrics *telemetry.Collector
	// Trace optionally collects every run's flight-recorder trace.
	Trace *trace.Collector
}

func (c RepeatConfig) defaults() RepeatConfig {
	if c.Runs == 0 {
		c.Runs = 30
	}
	c.Runs = max(c.Runs, 1) // a negative count runs one seed
	if c.RunDuration == 0 {
		c.RunDuration = 6 * time.Second
	}
	if c.WarmUp == 0 {
		c.WarmUp = time.Second
	}
	return c
}

// sweepCell is one row of a sweep: a run template (which may carry
// windowed failures of its own, as Fig. 4's does), the link that is
// down for the whole run (zero: none), and the row's offset from the
// sweep's seed. The sweep supplies seed, duration and collectors.
type sweepCell struct {
	run        TCPRunConfig
	fail       [2]string
	seedOffset int64
}

// cellResult summarises a cell: mean goodput over [WarmUp,
// RunDuration) across its runs, and the first run's goodput series and
// transport counters (small values: no run's world outlives it).
type cellResult struct {
	Goodput  measure.Summary
	Series   *measure.Series
	Sender   tcpsim.SenderStats
	Receiver tcpsim.ReceiverStats
}

// runSweep is the one sweep engine: one pool over every (cell, run)
// pair — index k is run k%Runs of cell k/Runs, seeded cell seed +
// run·1 000 003 — so a one-run sweep of many cells still fills Workers,
// and no result depends on which pairs overlap. cfg has had defaults
// applied.
func runSweep(cfg RepeatConfig, cells []sweepCell) ([]cellResult, error) {
	out := make([]cellResult, len(cells))
	runs := make([]TCPRunConfig, len(cells))
	for c, cell := range cells {
		run := cell.run
		run.Duration, run.Metrics, run.Trace = cfg.RunDuration, cfg.Metrics, cfg.Trace
		run.Seed = cfg.Seed + cell.seedOffset
		if f := cell.fail; f != ([2]string{}) {
			run.Failures = []FailureSpec{{A: f[0], B: f[1], Duration: cfg.RunDuration}}
		}
		runs[c] = run
	}
	means := make([]float64, len(cells)*cfg.Runs)
	err := par.ForEach(context.TODO(), len(means), cfg.Workers, func(_, k int) error {
		c, i := k/cfg.Runs, k%cfg.Runs
		run := runs[c]
		run.Seed += int64(i) * 1_000_003
		res, err := RunTCP(run)
		if err != nil {
			return err
		}
		means[k] = res.Goodput.Window(cfg.WarmUp, cfg.RunDuration).Mean()
		if i == 0 {
			out[c].Series, out[c].Sender, out[c].Receiver = res.Goodput, res.Sender, res.Receiver
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for c := range out {
		out[c].Goodput = measure.Summarize(means[c*cfg.Runs : (c+1)*cfg.Runs])
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Fig. 4 — TCP throughput timeline under a SW7–SW13 failure.

// Fig4Config scales the Fig. 4 timeline; zero values take the paper's
// parameters (30 s before, 30 s failure, 30 s after; 1 s samples).
type Fig4Config struct {
	PreFailure  time.Duration
	FailureFor  time.Duration
	PostRepair  time.Duration
	SampleEvery time.Duration
	Seed        int64
	Policies    []string
	Workers     int
	// Metrics optionally collects every run's telemetry.
	Metrics *telemetry.Collector
	// Trace optionally collects every run's flight-recorder trace.
	Trace *trace.Collector
	// Scalar disables the batched data plane (results are identical).
	Scalar bool
}

func (c Fig4Config) defaults() Fig4Config {
	if c.PreFailure == 0 {
		c.PreFailure = 30 * time.Second
	}
	if c.FailureFor == 0 {
		c.FailureFor = 30 * time.Second
	}
	if c.PostRepair == 0 {
		c.PostRepair = 30 * time.Second
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = time.Second
	}
	if len(c.Policies) == 0 {
		c.Policies = []string{"none", "hp", "avp", "nip"}
	}
	return c
}

// Fig4Series is one policy's throughput timeline plus phase means.
type Fig4Series struct {
	Policy     string
	Goodput    *measure.Series
	PreMbps    float64
	DuringMbps float64
	PostMbps   float64
	Sender     tcpsim.SenderStats
	Receiver   tcpsim.ReceiverStats
}

// Fig4 regenerates the paper's Fig. 4: one AS1→AS3 flow on the
// 15-node network with full protection, link SW7–SW13 failing
// mid-run, one timeline per deflection technique.
func Fig4(cfg Fig4Config) ([]Fig4Series, error) {
	cfg = cfg.defaults()
	total := cfg.PreFailure + cfg.FailureFor + cfg.PostRepair
	// One one-run cell per policy, seeded Seed + its index.
	cells := make([]sweepCell, len(cfg.Policies))
	for i, policy := range cfg.Policies {
		cells[i] = sweepCell{
			run: TCPRunConfig{
				Graph: shared("net15"), Policy: policy, Src: "AS1", Dst: "AS3",
				Protection: topology.Net15FullProtection, ReverseBitBudget: reverseBudget("full"),
				Failures:    []FailureSpec{{A: "SW7", B: "SW13", From: cfg.PreFailure, Duration: cfg.FailureFor}},
				SampleEvery: cfg.SampleEvery, TCP: net15TCP(), Scalar: cfg.Scalar,
			},
			seedOffset: int64(i),
		}
	}
	res, err := runSweep(RepeatConfig{
		Runs: 1, RunDuration: total, Seed: cfg.Seed, Workers: cfg.Workers, Metrics: cfg.Metrics, Trace: cfg.Trace,
	}, cells)
	if err != nil {
		return nil, err
	}
	warm := cfg.PreFailure / 10
	out := make([]Fig4Series, len(cells))
	for i, r := range res {
		out[i] = Fig4Series{
			Policy:     cfg.Policies[i],
			Goodput:    r.Series,
			PreMbps:    r.Series.Window(warm, cfg.PreFailure).Mean(),
			DuringMbps: r.Series.Window(cfg.PreFailure+cfg.SampleEvery, cfg.PreFailure+cfg.FailureFor).Mean(),
			PostMbps:   r.Series.Window(cfg.PreFailure+cfg.FailureFor+2*cfg.SampleEvery, total).Mean(),
			Sender:     r.Sender,
			Receiver:   r.Receiver,
		}
	}
	return out, nil
}

// Fig4Table renders phase means per policy.
func Fig4Table(series []Fig4Series) *measure.Table {
	tbl := &measure.Table{
		Title:   "Fig. 4: TCP throughput (Mb/s) for failed link SW7-SW13, full protection",
		Headers: []string{"Deflection", "Before failure", "During failure", "After repair"},
	}
	for _, s := range series {
		tbl.AddRow(s.Policy,
			fmt.Sprintf("%.1f", s.PreMbps),
			fmt.Sprintf("%.1f", s.DuringMbps),
			fmt.Sprintf("%.1f", s.PostMbps))
	}
	return tbl
}

// ---------------------------------------------------------------------------
// Fig. 5 — the failure × protection × deflection sweep.

// Fig5Config scales the Fig. 5 sweep: RepeatConfig's fields plus the
// three sweep axes (default: AVP/NIP × the three protection levels ×
// the three on-route failures).
type Fig5Config struct {
	Runs        int
	RunDuration time.Duration
	WarmUp      time.Duration
	Seed        int64
	Workers     int
	Policies    []string
	Protections []string
	Failures    [][2]string
	Metrics     *telemetry.Collector
	Trace       *trace.Collector
}

// Fig5Row is one bar of the paper's Fig. 5.
type Fig5Row struct {
	Failure    string
	Protection string
	Policy     string
	Goodput    measure.Summary // Mb/s over the paper's repeated runs
}

// Fig5 regenerates the paper's Fig. 5: mean TCP throughput with 95%
// confidence intervals for every combination of failure location,
// protection level and deflection technique (AVP/NIP), the failed
// link down for the whole run.
func Fig5(cfg Fig5Config) ([]Fig5Row, error) {
	if len(cfg.Policies) == 0 {
		cfg.Policies = []string{"avp", "nip"}
	}
	if len(cfg.Protections) == 0 {
		cfg.Protections = net15Levels
	}
	if len(cfg.Failures) == 0 {
		cfg.Failures = net15Failures
	}
	var rows []Fig5Row
	var cells []sweepCell
	for _, fail := range cfg.Failures {
		for _, prot := range cfg.Protections {
			pairs, err := net15Protection(prot)
			if err != nil {
				return nil, err
			}
			for _, policy := range cfg.Policies {
				cells = append(cells, sweepCell{
					run: TCPRunConfig{
						Graph: shared("net15"), Policy: policy, Src: "AS1", Dst: "AS3",
						Protection: pairs, ReverseBitBudget: reverseBudget(prot), TCP: net15TCP(),
					},
					fail:       fail,
					seedOffset: int64(len(rows)) * 7_777_777,
				})
				rows = append(rows, Fig5Row{Failure: fail[0] + "-" + fail[1], Protection: prot, Policy: policy})
			}
		}
	}
	res, err := runSweep(RepeatConfig{
		Runs: cfg.Runs, RunDuration: cfg.RunDuration, WarmUp: cfg.WarmUp, Seed: cfg.Seed,
		Workers: cfg.Workers, Metrics: cfg.Metrics, Trace: cfg.Trace,
	}.defaults(), cells)
	if err != nil {
		return nil, err
	}
	for i := range rows {
		rows[i].Goodput = res[i].Goodput
	}
	return rows, nil
}

// Fig5Table renders the sweep.
func Fig5Table(rows []Fig5Row) *measure.Table {
	tbl := &measure.Table{
		Title:   "Fig. 5: TCP throughput (Mb/s, mean ± 95% CI) by failure location, protection and deflection",
		Headers: []string{"Failed link", "Protection", "Deflection", "Goodput (Mb/s)"},
	}
	for _, r := range rows {
		tbl.AddRow(r.Failure, r.Protection, r.Policy,
			fmt.Sprintf("%.1f ± %.1f", r.Goodput.Mean, r.Goodput.CI95))
	}
	return tbl
}

// ---------------------------------------------------------------------------
// Fig. 7 — RNP national topology failure sweep.

// Fig7Row is one bar of the paper's Fig. 7.
type Fig7Row struct {
	Scenario string // "no failure" or the failed link
	Goodput  measure.Summary
	// DropPct is the mean reduction relative to the no-failure mean.
	DropPct float64
}

// rnpRun is the measured flow of Fig. 7 and the transport ablation:
// Boa Vista (SW7) → São Paulo (SW73) on the 28-node RNP backbone with
// the Fig. 6 partial-protection segments and NIP deflection.
func rnpRun() TCPRunConfig {
	return TCPRunConfig{
		Graph: shared("rnp28"), Policy: "nip", Src: "EDGE-N", Dst: "EDGE-SP",
		Protection:       topology.RNP28PartialProtection,
		ReverseBitBudget: 41, // the partial set's own footprint, mirrored
		TCP:              rnpTCP(),
	}
}

// Fig7 regenerates the paper's Fig. 7: the rnpRun flow measured with
// no failure and with each of three failure locations.
func Fig7(cfg RepeatConfig) ([]Fig7Row, error) {
	fails := append([][2]string{{}}, rnpFailures...)
	rows := make([]Fig7Row, len(fails))
	cells := make([]sweepCell, len(fails))
	for i, f := range fails {
		rows[i].Scenario = "no failure"
		if i > 0 {
			rows[i].Scenario = f[0] + "-" + f[1]
		}
		cells[i] = sweepCell{run: rnpRun(), fail: f, seedOffset: int64(i) * 13_131_313}
	}
	res, err := runSweep(cfg.defaults(), cells)
	if err != nil {
		return nil, err
	}
	base := res[0].Goodput.Mean
	for i := range rows {
		rows[i].Goodput = res[i].Goodput
		if base > 0 {
			rows[i].DropPct = (base - rows[i].Goodput.Mean) / base * 100
		}
	}
	return rows, nil
}

// Fig7Table renders the sweep.
func Fig7Table(rows []Fig7Row) *measure.Table {
	tbl := &measure.Table{
		Title:   "Fig. 7: RNP 28-node backbone, NIP + partial protection (Mb/s, mean ± 95% CI)",
		Headers: []string{"Scenario", "Goodput (Mb/s)", "Reduction vs no failure"},
	}
	for _, r := range rows {
		tbl.AddRow(r.Scenario,
			fmt.Sprintf("%.1f ± %.1f", r.Goodput.Mean, r.Goodput.CI95),
			fmt.Sprintf("%.1f%%", r.DropPct))
	}
	return tbl
}

// ---------------------------------------------------------------------------
// Fig. 8 — redundant-path worst case.

// Fig8Result reports the measured throughput ratio plus the exact
// analytic expectation for the retry loop of §3.2.
type Fig8Result struct {
	NoFailure   measure.Summary
	WithFailure measure.Summary
	// RatioPct is measured throughput with failure as % of nominal
	// (the paper reports 54.8%).
	RatioPct float64
	// Analytic is the closed-form walk analysis under the failure.
	Analytic analysis.Result
}

// Fig8 regenerates the paper's Fig. 8 scenario: the route extended
// beyond São Paulo to SW113 with the redundant pair SW73–SW109–SW113
// unusable as a default path (single-residue constraint), protection
// SW71→SW17→SW41 returning deflected packets to SW73, and link
// SW73–SW107 failing.
func Fig8(cfg RepeatConfig) (*Fig8Result, error) {
	c := fig8Cell
	base := TCPRunConfig{
		Graph: c.graph, Policy: "nip", Src: c.src, Dst: c.dst, Path: c.path, Protection: c.pairs, TCP: rnpTCP(),
	}
	cells, err := runSweep(cfg.defaults(), []sweepCell{
		{run: base},
		{run: base, fail: c.fail, seedOffset: 55_555},
	})
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{NoFailure: cells[0].Goodput, WithFailure: cells[1].Goodput}
	if res.NoFailure.Mean > 0 {
		res.RatioPct = res.WithFailure.Mean / res.NoFailure.Mean * 100
	}

	// Closed-form expectation for the same scenario.
	res.Analytic, err = analyzeOne(c, "nip")
	return res, err
}

// Fig8Table renders the scenario.
func Fig8Table(r *Fig8Result) *measure.Table {
	tbl := &measure.Table{
		Title:   "Fig. 8: redundant-path worst case (SW73-SW107 failure, NIP)",
		Headers: []string{"Metric", "Value"},
	}
	tbl.AddRow("goodput, no failure (Mb/s)", fmt.Sprintf("%.1f ± %.1f", r.NoFailure.Mean, r.NoFailure.CI95))
	tbl.AddRow("goodput, with failure (Mb/s)", fmt.Sprintf("%.1f ± %.1f", r.WithFailure.Mean, r.WithFailure.CI95))
	tbl.AddRow("ratio (paper: 54.8%)", fmt.Sprintf("%.1f%%", r.RatioPct))
	tbl.AddRow("analytic delivery probability", fmt.Sprintf("%.3f", r.Analytic.PDeliver))
	tbl.AddRow("analytic expected hops (nominal 7)", fmt.Sprintf("%.2f", r.Analytic.ExpectedHops))
	tbl.AddRow("analytic path stretch", fmt.Sprintf("%.3f", r.Analytic.Stretch()))
	return tbl
}

func mustPolicy(name string) deflect.Policy {
	p, err := PolicyByName(name)
	if err != nil {
		panic(err) // static names only
	}
	return p
}
