package kar

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/measure"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// The determinism matrix: every artefact the simulator writes is a
// pure function of its inputs — worker count, shard count and data
// plane are execution modes that must not reach a single output byte.
// Each artefact below is produced in-process in a reference mode and in
// every other listed mode and byte-compared, so the race detector sees
// all of it and a new axis value is one more row. (The CLI framing of
// the same buffers is checked by cmd/karsim's tests, scripts/check.sh
// and serve_smoke.sh.)

// mode is one execution mode: a cell of workers × shards × data plane.
// A zero field means "the artefact's default".
type mode struct {
	workers, shards int
	scalar          bool
}

func (m mode) String() string {
	plane := "batch"
	if m.scalar {
		plane = "scalar"
	}
	return fmt.Sprintf("workers=%d/shards=%d/%s", m.workers, m.shards, plane)
}

// dtreeSpec is a packet-level run of the deterministic dtree policy
// under per-destination auto protection, cut mid-run.
const dtreeSpec = `{
  "name": "check-dtree",
  "topology": "net15",
  "policy": "dtree",
  "protection": "auto",
  "seed": 17,
  "duration": "40ms",
  "drain": "10ms",
  "flows": [
    {"src": "AS1", "dst": "AS3", "interval": "1ms"},
    {"src": "AS3", "dst": "AS1", "interval": "1ms"}
  ],
  "injections": [
    {"kind": "link_cut", "link": ["SW7", "SW13"], "start": "10ms"}
  ],
  "expect": {"min_delivered": 1, "min_deflections": 1}
}`

// outputs collects an artefact's named buffers.
type outputs map[string][]byte

func (o outputs) metrics(t *testing.T, c *telemetry.Collector) {
	t.Helper()
	var prom, js bytes.Buffer
	if err := c.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	o["prometheus"], o["json"] = prom.Bytes(), js.Bytes()
}

func (o outputs) traces(t *testing.T, c *trace.Collector) {
	t.Helper()
	var jsonl, perfetto bytes.Buffer
	if err := c.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if err := c.WritePerfetto(&perfetto); err != nil {
		t.Fatal(err)
	}
	o["jsonl"], o["perfetto"] = jsonl.Bytes(), perfetto.Bytes()
}

// scale is `karsim -exp scale` on a fat-tree (fattree:4 has 20
// switches, fattree:8 has 80) with two failed fabric links (the driver
// has no worker pool: shards and data plane are its only modes). With a
// trace collector the flight recorder vetoes parallel windows, so
// metrics and traces are separate artefacts.
func scale(t *testing.T, m mode, topo string, flows int, metrics *telemetry.Collector, traces *trace.Collector) {
	t.Helper()
	_, err := experiment.Scale(experiment.ScaleConfig{
		Topo: topo, Flows: flows, Pairs: 16, Rate: 20, FailLinks: 2,
		Duration: 500 * time.Millisecond, Seed: 3,
		Shards: m.shards, Scalar: m.scalar, Metrics: metrics, Trace: traces,
	})
	if err != nil {
		t.Fatal(err)
	}
}

// runSpec runs a scenario spec in mode m.
func runSpec(t *testing.T, spec *scenario.Spec, m mode, metrics *telemetry.Collector, traces *trace.Collector) *scenario.Verdict {
	t.Helper()
	spec.Shards = m.shards
	v, err := scenario.Run(spec, scenario.RunOptions{Workers: m.workers, Scalar: m.scalar, Metrics: metrics, Trace: traces})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Pass {
		t.Fatalf("scenario %s failed its expectations", spec.Name)
	}
	return v
}

// sweepTrace bounds each run's recorder ring: the sweeps below trace
// dozens of TCP runs, and the ring's oldest-first eviction is as
// deterministic as the records.
var sweepTrace = trace.Config{Rate: 1, Max: 512}

// sweepOutputs collects a TCP sweep's rows (printed at full precision)
// and whichever collectors it filled.
func sweepOutputs(t *testing.T, rows any, err error, metrics *telemetry.Collector, traces *trace.Collector) outputs {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	o := outputs{"rows": fmt.Appendf(nil, "%+v", rows)}
	if metrics != nil {
		o.metrics(t, metrics)
	}
	if traces != nil {
		o.traces(t, traces)
	}
	return o
}

func TestDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulations")
	}
	for _, a := range []struct {
		name    string
		produce func(t *testing.T, m mode) outputs
		modes   []mode   // modes[0] is the reference
		want    []string // substrings some reference buffer must carry
	}{
		{
			name: "fig4-metrics",
			produce: func(t *testing.T, m mode) outputs {
				c := telemetry.NewCollector()
				_, err := experiment.Fig4(experiment.Fig4Config{
					PreFailure: time.Second, FailureFor: time.Second, PostRepair: time.Second,
					SampleEvery: 250 * time.Millisecond, Seed: 1,
					Workers: m.workers, Scalar: m.scalar, Metrics: c,
				})
				if err != nil {
					t.Fatal(err)
				}
				o := outputs{}
				o.metrics(t, c)
				return o
			},
			modes: []mode{{workers: 1}, {workers: 4}, {workers: 1, scalar: true}, {workers: 4, scalar: true}},
			want:  []string{`kar_switch_deflections_total{cause=`, `kar_flow_stretch_hops_bucket{flow=`},
		},
		{
			// The reactive controller fans reroute recomputes across a
			// worker pool but installs in deterministic order, and the dump
			// must carry the incremental-reroute counters.
			name: "reaction-metrics",
			produce: func(t *testing.T, m mode) outputs {
				c := telemetry.NewCollector()
				_, err := experiment.Reaction(experiment.ReactionConfig{
					Seed: 1, Workers: m.workers, Metrics: c,
				})
				if err != nil {
					t.Fatal(err)
				}
				o := outputs{}
				o.metrics(t, c)
				return o
			},
			modes: []mode{{workers: 1}, {workers: 4}},
			want: []string{`kar_ctrl_reroutes_recomputed_total{`, `kar_ctrl_reroutes_skipped_total{`,
				`kar_ctrl_reroute_failures_total{`},
		},
		{
			// The scenario engine's contract: the same file and seed give
			// the same dumps across repeats (the reference mode twice),
			// worker counts, shard counts and data planes, with the flap
			// under the kar_fault_* family and the scenario base label.
			name: "flap-net15-metrics",
			produce: func(t *testing.T, m mode) outputs {
				spec, err := scenario.Load("examples/scenarios/flap-net15.json")
				if err != nil {
					t.Fatal(err)
				}
				c := telemetry.NewCollector()
				runSpec(t, spec, m, c, nil)
				o := outputs{}
				o.metrics(t, c)
				return o
			},
			// Net15 has 12 switches: 7 workers would cut it into 14
			// regions, so the lane count is clamped to one per switch.
			modes: []mode{{workers: 1}, {workers: 1}, {workers: 4}, {workers: 4, scalar: true}, {workers: 1, shards: 2}, {workers: 1, shards: 7}},
			want:  []string{`kar_fault_injections_total{`, `kar_net_drops_total{`, `scenario="flap-net15"`},
		},
		{
			name: "flap-react-trace",
			produce: func(t *testing.T, m mode) outputs {
				spec, err := scenario.Load("examples/scenarios/flap-react-net15.json")
				if err != nil {
					t.Fatal(err)
				}
				c := trace.NewCollector(trace.Config{Rate: 1})
				runSpec(t, spec, m, nil, c)
				o := outputs{}
				o.traces(t, c)
				return o
			},
			modes: []mode{{workers: 1}, {workers: 4}, {workers: 1, scalar: true}, {workers: 4, shards: 2}},
			// Both planes of the recorder: every packet record kind and
			// the control-plane events of one reaction chain.
			want: []string{`"kind":"inject"`, `"kind":"hop"`, `"kind":"decap"`, `"kind":"ctrl"`,
				`"event":"link_fail"`, `"event":"reroute"`, `"event":"ingress_install"`,
				`"name":"reaction:fail SW7-SW13"`},
		},
		{
			name: "scale-metrics",
			produce: func(t *testing.T, m mode) outputs {
				c := telemetry.NewCollector()
				scale(t, m, "fattree:4", 20000, c, nil)
				o := outputs{}
				o.metrics(t, c)
				return o
			},
			modes: []mode{{shards: 1}, {shards: 2}, {shards: 3}, {shards: 4}, {shards: 4, scalar: true}, {shards: 2, scalar: true}, {shards: 1, scalar: true}},
			want:  []string{`kar_flowset_received_total{`},
		},
		{
			name: "scale-trace",
			produce: func(t *testing.T, m mode) outputs {
				c := trace.NewCollector(trace.Config{Rate: 1})
				scale(t, m, "fattree:4", 20000, nil, c)
				o := outputs{}
				o.traces(t, c)
				return o
			},
			modes: []mode{{shards: 1}, {shards: 4}, {shards: 2, scalar: true}},
			want:  []string{`"kind":"hop"`},
		},
		{
			// A deeper fabric under the serial driver: with the recorder
			// attached every step peeks every lane's queue, each holding
			// thousands of entries behind its front heap.
			name: "scale8-trace",
			produce: func(t *testing.T, m mode) outputs {
				c := trace.NewCollector(trace.Config{Rate: 0.05})
				scale(t, m, "fattree:8", 50000, nil, c)
				o := outputs{}
				o.traces(t, c)
				return o
			},
			modes: []mode{{shards: 1}, {shards: 2}, {shards: 3}},
			want:  []string{`"kind":"hop"`},
		},
		{
			// The sweep engine pools over (cell × run): which runs overlap
			// depends on the worker count, and no row, series or trace
			// record may. 2 failures × 2 protections × 2 policies × 3 runs.
			name: "fig5-sweep",
			produce: func(t *testing.T, m mode) outputs {
				mc, tc := telemetry.NewCollector(), trace.NewCollector(sweepTrace)
				rows, err := experiment.Fig5(experiment.Fig5Config{
					Runs: 3, RunDuration: time.Second, WarmUp: 250 * time.Millisecond, Seed: 5, Workers: m.workers,
					Failures:    [][2]string{{"SW10", "SW7"}, {"SW13", "SW29"}},
					Protections: []string{"unprotected", "partial"},
					Metrics:     mc, Trace: tc,
				})
				return sweepOutputs(t, rows, err, mc, tc)
			},
			modes: []mode{{workers: 1}, {workers: 2}, {workers: 5}},
			want:  []string{`kar_edge_reencode_total{`, `"kind":"reencode"`},
		},
		{
			name: "fig7-sweep",
			produce: func(t *testing.T, m mode) outputs {
				mc, tc := telemetry.NewCollector(), trace.NewCollector(sweepTrace)
				rows, err := experiment.Fig7(experiment.RepeatConfig{
					Runs: 3, RunDuration: time.Second, WarmUp: 250 * time.Millisecond, Seed: 5, Workers: m.workers,
					Metrics: mc, Trace: tc,
				})
				return sweepOutputs(t, rows, err, mc, tc)
			},
			modes: []mode{{workers: 1}, {workers: 2}, {workers: 5}},
			want:  []string{`SW13-SW41`, `kar_switch_deflections_total{cause=`},
		},
		{
			// One run per variant, all on one seed: the sweep whose cells
			// only overlap because the pool is flat. It takes no collectors.
			name: "reno-ablation",
			produce: func(t *testing.T, m mode) outputs {
				rows, err := experiment.RenoAblation(5, m.workers)
				return sweepOutputs(t, rows, err, nil, nil)
			},
			modes: []mode{{workers: 1}, {workers: 2}, {workers: 5}},
			want:  []string{`strict Reno`},
		},
		{
			name: "dtree-verdict",
			produce: func(t *testing.T, m mode) outputs {
				spec, err := scenario.Parse(strings.NewReader(dtreeSpec))
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := measure.WriteDocument(&buf, runSpec(t, spec, m, nil, nil)); err != nil {
					t.Fatal(err)
				}
				return outputs{"verdict": buf.Bytes()}
			},
			modes: []mode{{workers: 1}, {workers: 4}, {workers: 4, scalar: true}, {workers: 1, shards: 2}},
			want:  []string{`"pass": true`},
		},
	} {
		t.Run(a.name, func(t *testing.T) {
			ref := a.produce(t, a.modes[0])
			for _, want := range a.want {
				found := false
				for _, buf := range ref {
					found = found || bytes.Contains(buf, []byte(want))
				}
				if !found {
					t.Errorf("no reference buffer carries %q: the artefact does not exercise what it gates", want)
				}
			}
			for _, m := range a.modes[1:] {
				got := a.produce(t, m)
				for name, want := range ref {
					if len(want) == 0 {
						t.Errorf("reference %s buffer is empty", name)
					}
					if !bytes.Equal(want, got[name]) {
						t.Errorf("%s: %s differs from %s (%d vs %d bytes)", m, name, a.modes[0], len(got[name]), len(want))
					}
				}
			}
		})
	}
}
