package scenario

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/controller"
	"repro/internal/experiment"
	"repro/internal/packet"
	"repro/internal/par"
	"repro/internal/resilience"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/udpsim"
)

// DefaultDrain is the post-emission settling window when the file sets
// none.
const DefaultDrain = 100 * time.Millisecond

// RunOptions tunes scenario execution, not results: worker count and
// telemetry collection never change a run's outcome.
type RunOptions struct {
	// Workers bounds parallel runs (0: one per CPU; clamped to the run
	// count).
	Workers int
	// Metrics, when set, receives every run's registry and event log
	// under the deterministic label scenario/<name>/run=<i>/seed=<s>.
	Metrics *telemetry.Collector
	// Trace, when set, attaches a flight recorder to every run's world
	// and collects the records under the same label.
	Trace *trace.Collector
	// Scalar disables the batched data plane (results are identical).
	Scalar bool
	// Job is the serve daemon's job ID (empty for the CLI). It prefixes
	// every collector run label with "job=<id>/", keeping concurrent
	// jobs' event streams separable in one collector, and adds a "job"
	// label to every metric of every run's world, so same-named jobs
	// stay distinct series in the live /metrics exposition.
	Job string
	// Progress, when set, receives live execution milestones: run
	// starts, phase completions, injector activations, run verdicts and
	// resilience-sweep progress. Calls may come concurrently from
	// worker goroutines; the callback must be safe for that. Progress
	// never feeds back into the Verdict, which stays byte-identical
	// with or without it.
	Progress func(ProgressEvent)
}

// ProgressEvent is one live milestone of a scenario execution, emitted
// through RunOptions.Progress while the job runs.
type ProgressEvent struct {
	// Kind is one of "run_start", "phase", "inject", "run_done",
	// "sweep".
	Kind string `json:"kind"`
	// Run and Seed identify the repetition (all kinds except "sweep").
	Run  int   `json:"run"`
	Seed int64 `json:"seed,omitempty"`
	// Phase carries the completed phase's traffic delta (kind "phase").
	Phase *PhaseStats `json:"phase,omitempty"`
	// Result carries the finished run's verdict (kind "run_done").
	Result *RunResult `json:"result,omitempty"`
	// Injection describes one injector activation recorded on the
	// run's virtual timeline (kind "inject").
	Injection string `json:"injection,omitempty"`
	// SweepDone/SweepTotal report resilience-sweep case completion
	// (kind "sweep"): one event per completed (route, policy) unit,
	// SweepDone advancing by the unit's failure-set count of cases.
	SweepDone  int `json:"sweep_done,omitempty"`
	SweepTotal int `json:"sweep_total,omitempty"`
}

// prefix is the collector label prefix Job implies.
func (o *RunOptions) prefix() string {
	if o.Job == "" {
		return ""
	}
	return "job=" + o.Job + "/"
}

// emit invokes the progress callback when one is configured.
func (o *RunOptions) emit(ev ProgressEvent) {
	if o.Progress != nil {
		o.Progress(ev)
	}
}

// FlowResult is one flow's end-of-run traffic accounting.
type FlowResult struct {
	Src           string  `json:"src"`
	Dst           string  `json:"dst"`
	Sent          int     `json:"sent"`
	Received      int     `json:"received"`
	Reordered     int     `json:"reordered"`
	DeliveryRatio float64 `json:"delivery_ratio"`
	MeanHops      float64 `json:"mean_hops"`
}

// PhaseStats is the traffic delta inside one declared phase.
type PhaseStats struct {
	Name     string   `json:"name"`
	Until    Duration `json:"until"`
	Sent     int64    `json:"sent"`
	Received int64    `json:"received"`
}

// RunResult is one seeded repetition's outcome.
type RunResult struct {
	Run  int   `json:"run"`
	Seed int64 `json:"seed"`

	Flows  []FlowResult `json:"flows"`
	Phases []PhaseStats `json:"phases,omitempty"`

	Sent        int64 `json:"sent"`
	Delivered   int64 `json:"delivered"`
	GrayDrops   int64 `json:"gray_drops"`
	Corrupted   int64 `json:"corrupted"`
	Deflections int64 `json:"deflections"`

	// Violations lists every failed expectation; empty means Pass.
	Violations []string `json:"violations,omitempty"`
	Pass       bool     `json:"pass"`
}

// LossFraction returns 1 - delivered/sent across all flows.
func (r *RunResult) LossFraction() float64 {
	if r.Sent == 0 {
		return 0
	}
	return 1 - float64(r.Delivered)/float64(r.Sent)
}

// VerifyResult is the outcome of the scenario's optional resilience
// sweep: the full report plus any assertion violations.
type VerifyResult struct {
	Report     *resilience.Report `json:"report"`
	Violations []string           `json:"violations,omitempty"`
	Pass       bool               `json:"pass"`
}

// Verdict is the scenario's structured outcome: one entry per run plus
// the conjunction of their expectation checks (and of the resilience
// sweep, when the file declares one).
type Verdict struct {
	Scenario string        `json:"scenario"`
	Topology string        `json:"topology"`
	Policy   string        `json:"policy"`
	Runs     []RunResult   `json:"runs"`
	Verify   *VerifyResult `json:"verify,omitempty"`
	Pass     bool          `json:"pass"`
}

// Run executes every seeded repetition of the scenario and evaluates
// its expectations. Runs execute in parallel (each world is its own
// single-threaded simulation); results are keyed by run index and
// collector labels derive from configuration only, so the merged
// telemetry dump is byte-identical per seed regardless of Workers.
func Run(spec *Spec, opts RunOptions) (*Verdict, error) {
	return RunContext(context.Background(), spec, opts)
}

// RunContext is Run under a cancellation context: a cancelled job
// stops at the next run or phase boundary — workers stop pulling new
// run indices, and an in-flight world halts at its next phase edge
// (see runOne) — and ctx.Err() is returned with no partial verdict.
// Every goroutine the pool started has exited by the time RunContext
// returns. A nil ctx means context.Background(); with an
// uncancellable context the behaviour and outputs are exactly Run's.
func RunContext(ctx context.Context, spec *Spec, opts RunOptions) (*Verdict, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	runs := spec.Runs
	if runs <= 0 {
		runs = 1
	}

	results := make([]RunResult, runs)
	err := par.ForEach(ctx, runs, opts.Workers, func(_, i int) error {
		res, err := runOne(ctx, spec, i, &opts)
		if err == nil {
			results[i] = *res
		}
		return err
	})
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if err != nil {
		return nil, err
	}

	v := &Verdict{Scenario: spec.Name, Topology: spec.Topology, Policy: spec.Policy, Runs: results, Pass: true}
	for i := range v.Runs {
		if !v.Runs[i].Pass {
			v.Pass = false
		}
	}
	if spec.Verify != nil {
		vr, err := runVerifySweep(ctx, spec, opts)
		if err != nil {
			return nil, err
		}
		v.Verify = vr
		if !vr.Pass {
			v.Pass = false
		}
	}
	return v, nil
}

// runVerifySweep executes the scenario's declared resilience sweep:
// the flow routes (deduplicated, pinned paths respected) against every
// single-link failure, under the scenario's protection set. Its
// counters land in the collector under scenario/<name>/verify —
// configuration-derived, so dumps stay byte-identical per seed.
func runVerifySweep(ctx context.Context, spec *Spec, opts RunOptions) (*VerifyResult, error) {
	g, err := BuildTopology(spec.Topology)
	if err != nil {
		return nil, err
	}
	cfg, err := resilience.Protect(spec.Topology, spec.Protection)
	if err != nil {
		return nil, err
	}
	routes, policies := spec.verifySweep()
	reg := telemetry.NewRegistry()
	cfg.Policies, cfg.Pairs, cfg.PairSeed = policies, spec.Verify.Pairs, spec.Seed
	cfg.Workers, cfg.Registry = opts.Workers, reg
	cfg.Progress = func(done, total int) {
		opts.emit(ProgressEvent{Kind: "sweep", SweepDone: done, SweepTotal: total})
	}
	rep, err := resilience.SweepContext(ctx, g, routes, cfg)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("scenario %s: verify: %w", spec.Name, err)
	}
	opts.Metrics.Add(opts.prefix()+"scenario/"+spec.Name+"/verify", reg, nil)

	viols := rep.Violations(spec.Verify.MinSurvival, spec.Verify.MaxStretch)
	return &VerifyResult{Report: rep, Violations: viols, Pass: len(viols) == 0}, nil
}

// verifySweep is the verify block's route set — the flow routes,
// deduplicated by (src, dst), pinned paths respected — and its
// policies: the scenario's own unless the block names others.
func (s *Spec) verifySweep() ([]resilience.RouteSpec, []string) {
	seen := make(map[[2]string]bool, len(s.Flows))
	routes := make([]resilience.RouteSpec, 0, len(s.Flows))
	for _, f := range s.Flows {
		if key := [2]string{f.Src, f.Dst}; !seen[key] {
			seen[key] = true
			routes = append(routes, resilience.RouteSpec{Src: f.Src, Dst: f.Dst, Path: f.Path})
		}
	}
	policies := s.Verify.Policies
	if len(policies) == 0 {
		policies = []string{s.Policy}
	}
	return routes, policies
}

// setup builds run idx's world as the run uses it — graph, world,
// routes, reaction wiring and armed injectors — with no traffic yet.
// Validate rejects every spec setup would (FuzzParse).
func setup(spec *Spec, idx int, seed int64, opts *RunOptions) (*experiment.World, *trace.Recorder, error) {
	g, err := BuildTopology(spec.Topology)
	if err != nil {
		return nil, nil, err
	}
	policy, err := experiment.PolicyByName(spec.Policy)
	if err != nil {
		return nil, nil, err
	}
	protection, auto, err := topology.Protection(spec.Topology, spec.Protection)
	if err != nil {
		return nil, nil, err
	}

	labels := []string{"scenario", spec.Name, "run", strconv.Itoa(idx)}
	if opts.Job != "" {
		labels = append(labels, "job", opts.Job)
	}
	worldOpts := []any{
		simnet.WithMetricLabels(labels...),
		simnet.WithShards(spec.Shards),
	}
	det := spec.Detection
	if det != nil {
		worldOpts = append(worldOpts, simnet.WithDetectionDelay(det.DownDelay.D(), det.UpDelay.D()))
		if det.React {
			worldOpts = append(worldOpts, controller.WithFailureReaction())
		}
	}
	if opts.Scalar {
		worldOpts = append(worldOpts, simnet.WithScalarDataPlane())
	}
	if auto {
		worldOpts = append(worldOpts, controller.WithAutoProtection())
	}
	w := experiment.NewWorld(g, policy, seed, worldOpts...)
	// Attach before route installs so the initial ingress programming
	// lands on the recorded control-plane timeline.
	recorder := opts.Trace.Attach(w.Net)

	for i, f := range spec.Flows {
		if len(f.Path) > 0 {
			_, err = w.InstallRouteOnPath(f.Path, protection)
		} else {
			_, err = w.InstallRoute(f.Src, f.Dst, protection)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("scenario %s: flow %d (%s->%s): %w", spec.Name, i, f.Src, f.Dst, err)
		}
	}

	// Reactive control plane: the controller hears about a transition
	// NotifyDelay after the switches detect it, recomputes routes, and
	// each flow's ingress is reprogrammed — the control-plane churn the
	// controller's incremental rerouting is built for.
	if det != nil && det.React {
		pairs := make([][2]string, len(spec.Flows))
		for i, f := range spec.Flows {
			pairs[i] = [2]string{f.Src, f.Dst}
		}
		w.ReactAfter(det.NotifyDelay.D(), pairs)
	}

	for i, inj := range spec.Injections {
		built, err := inj.build(seed, i)
		if err == nil {
			err = built.Install(w.Net)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("scenario %s: injection %d: %w", spec.Name, i, err)
		}
	}
	return w, recorder, nil
}

func runOne(ctx context.Context, spec *Spec, idx int, opts *RunOptions) (*RunResult, error) {
	coll, traces := opts.Metrics, opts.Trace
	seed := spec.Seed + int64(idx)*1_000_003
	w, recorder, err := setup(spec, idx, seed, opts)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	sched := w.Net.Scheduler()

	type liveFlow struct {
		spec     Flow
		sender   *udpsim.Sender
		receiver *udpsim.Receiver
	}
	flows := make([]liveFlow, 0, len(spec.Flows))
	for _, f := range spec.Flows {
		cfg := udpsim.Config{Interval: f.Interval.D(), Size: f.Size}
		s, r := udpsim.NewFlow(w.Net, w.Edges[f.Src], w.Edges[f.Dst], packet.FlowID{Src: f.Src, Dst: f.Dst}, cfg)
		sched.At(0, s.Start)
		sched.At(spec.Duration.D(), s.Stop)
		flows = append(flows, liveFlow{spec: f, sender: s, receiver: r})
	}

	// Sample cumulative traffic counters at each phase boundary; the
	// per-phase deltas come out after the run. The callback also emits
	// the phase's delta live: samples fill in Until order, so the
	// previous entry is complete when phase i fires.
	reg := w.Net.Metrics()
	type sample struct{ sent, received int64 }
	samples := make([]sample, len(spec.Phases))
	for i, p := range spec.Phases {
		i, p := i, p
		sched.At(p.Until.D(), func() {
			samples[i] = sample{
				sent:     reg.SumCounter("kar_udp_sent_total"),
				received: reg.SumCounter("kar_udp_received_total"),
			}
			var prev sample
			if i > 0 {
				prev = samples[i-1]
			}
			opts.emit(ProgressEvent{Kind: "phase", Run: idx, Seed: seed, Phase: &PhaseStats{
				Name: p.Name, Until: p.Until,
				Sent:     samples[i].sent - prev.sent,
				Received: samples[i].received - prev.received,
			}})
		})
	}

	drain := spec.Drain.D()
	if drain <= 0 {
		drain = DefaultDrain
	}
	opts.emit(ProgressEvent{Kind: "run_start", Run: idx, Seed: seed})
	// Phase edges double as cancellation points: the world runs in legs
	// and a cancelled job stops at the next boundary instead of
	// finishing the full duration.
	boundaries := make([]time.Duration, 0, len(spec.Phases)+1)
	for _, p := range spec.Phases {
		boundaries = append(boundaries, p.Until.D())
	}
	boundaries = append(boundaries, spec.Duration.D())
	sort.Slice(boundaries, func(a, b int) bool { return boundaries[a] < boundaries[b] })
	if err := w.RunContext(ctx, spec.Duration.D()+drain, boundaries...); err != nil {
		return nil, err
	}

	// Replay injector activations off the run's recorded timeline, in
	// virtual-time order (the event log is already sorted per world).
	if opts.Progress != nil {
		for _, ev := range w.Net.Events().SortedEvents() {
			if ev.Kind == telemetry.EventFaultInject {
				opts.emit(ProgressEvent{Kind: "inject", Run: idx, Seed: seed,
					Injection: fmt.Sprintf("%s at %s: %s", ev.Where, ev.At, ev.Detail)})
			}
		}
	}

	res := &RunResult{Run: idx, Seed: seed}
	for _, lf := range flows {
		st := lf.receiver.Stats(lf.sender)
		res.Flows = append(res.Flows, FlowResult{
			Src: lf.spec.Src, Dst: lf.spec.Dst,
			Sent: st.Sent, Received: st.Received, Reordered: st.Reordered,
			DeliveryRatio: st.DeliveryRatio(), MeanHops: st.MeanHops(),
		})
		res.Sent += int64(st.Sent)
		res.Delivered += int64(st.Received)
	}
	var prev sample
	for i, p := range spec.Phases {
		res.Phases = append(res.Phases, PhaseStats{
			Name: p.Name, Until: p.Until,
			Sent:     samples[i].sent - prev.sent,
			Received: samples[i].received - prev.received,
		})
		prev = samples[i]
	}
	res.GrayDrops = reg.SumCounter("kar_fault_gray_drops_total")
	res.Corrupted = reg.SumCounter("kar_fault_corrupted_total")
	res.Deflections = reg.SumCounter("kar_switch_deflections_total")
	spec.Expect.evaluate(res)

	label := fmt.Sprintf("%sscenario/%s/run=%d/seed=%d", opts.prefix(), spec.Name, idx, seed)
	coll.Add(label, w.Net.Metrics(), w.Net.Events())
	traces.Commit(label, recorder)
	opts.emit(ProgressEvent{Kind: "run_done", Run: idx, Seed: seed, Result: res})
	return res, nil
}

// evaluate checks every set expectation against the run, recording
// violations.
func (e Expect) evaluate(r *RunResult) {
	fail := func(format string, args ...any) {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
	if e.MaxLossFraction != nil && r.LossFraction() > *e.MaxLossFraction {
		fail("loss fraction %.4f > max %.4f", r.LossFraction(), *e.MaxLossFraction)
	}
	if e.MinDelivered != nil && r.Delivered < *e.MinDelivered {
		fail("delivered %d < min %d", r.Delivered, *e.MinDelivered)
	}
	if e.MinGrayDrops != nil && r.GrayDrops < *e.MinGrayDrops {
		fail("gray drops %d < min %d", r.GrayDrops, *e.MinGrayDrops)
	}
	if e.MinCorrupted != nil && r.Corrupted < *e.MinCorrupted {
		fail("corrupted %d < min %d", r.Corrupted, *e.MinCorrupted)
	}
	if e.MinDeflections != nil && r.Deflections < *e.MinDeflections {
		fail("deflections %d < min %d", r.Deflections, *e.MinDeflections)
	}
	r.Pass = len(r.Violations) == 0
}
