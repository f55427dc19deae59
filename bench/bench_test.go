package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/topology"
	"repro/internal/udpsim"
)

// The hand-assembled fattree world must be the world experiment.Scale
// builds: same pairs, same routes, same flow set, same statistics.
func TestAssembledWorldMatchesScale(t *testing.T) {
	cfg := flowsParams(true)
	fw, err := buildFlows(cfg, defaultSeed, false, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fw.fs.Start()
	fw.w.net.RunUntil(cfg.inject + cfg.drain)
	got := fw.fs.Stats()

	want, err := experiment.Scale(experiment.ScaleConfig{
		Topo: cfg.topo, Shards: cfg.shards, Flows: cfg.flows, Pairs: cfg.pairs,
		Rate: cfg.rate, Size: cfg.size, Duration: cfg.inject, Seed: defaultSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != want.Stats {
		t.Fatalf("hand-assembled world diverged from experiment.Scale:\n got %+v\nwant %+v", got, want.Stats)
	}
	if got.Sent == 0 || got.Sent != got.Received {
		t.Fatalf("toy flow set sent %d, received %d", got.Sent, got.Received)
	}
}

// net15_saturate's hop count must be that of an experiment.NewWorld
// world given the same route, flow and virtual time.
func TestSaturateMatchesNewWorld(t *testing.T) {
	r := simWorkloads["net15_saturate"].runRep(defaultSeed, true, nil, 0, false, variantPlain)
	if r.err != nil {
		t.Fatal(r.err)
	}

	cfg := saturateParams(true)
	g, err := topology.Net15()
	if err != nil {
		t.Fatal(err)
	}
	policy, err := experiment.PolicyByName("nip")
	if err != nil {
		t.Fatal(err)
	}
	w := experiment.NewWorld(g, policy, defaultSeed)
	if _, err := w.InstallRoute("AS1", "AS3", topology.Net15FullProtection); err != nil {
		t.Fatal(err)
	}
	send, _ := udpsim.NewFlow(w.Net, w.Edges["AS1"], w.Edges["AS3"], saturateFlow, cfg.flow)
	w.Net.ClockOf(w.Edges["AS1"].Node()).At(saturatePhase(defaultSeed), send.Start)
	w.Run(cfg.virtual)

	if got, want := int64(r.hops), w.Net.Delivered(); got != want || want == 0 {
		t.Fatalf("net15_saturate delivered %d hops, an experiment.NewWorld world %d", got, want)
	}
	if r.rc.counts.deflections != 0 {
		t.Fatalf("healthy path deflected %d packets", r.rc.counts.deflections)
	}
}

// benchmarkJSON is the whole of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkJSON
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	return bm
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the program must declare the same workloads and
// metrics, inside the contract's limits.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	bm := loadBenchmarkJSON(t)
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range bm.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json {%s, %q}, program {%s, %q}", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(bm.EndToEnd) != len(endToEndMetrics) || len(bm.EndToEnd) > 16 {
		t.Fatalf("end_to_end: BENCHMARK.json %d, program %d (limit 16)", len(bm.EndToEnd), len(endToEndMetrics))
	}
	seen := make(map[string]bool)
	hasSetup := false
	for i, m := range bm.EndToEnd {
		s := endToEndMetrics[i]
		if m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, program %+v", i, m, s)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		seen[m.Name] = true
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s [s, lower]")
	}
	if len(bm.PerLayer) != len(perLayerMetrics) || len(bm.PerLayer) > 128 {
		t.Fatalf("per_layer: BENCHMARK.json %d, program %d (limit 128)", len(bm.PerLayer), len(perLayerMetrics))
	}
	for i, m := range bm.PerLayer {
		s := perLayerMetrics[i]
		if m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, program %+v", i, m, s)
		}
		if seen[m.Name] {
			t.Errorf("metric name %s used twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, w := range bm.Workloads {
		if seen[w.Name] {
			t.Errorf("name %s used twice", w.Name)
		}
		seen[w.Name] = true
	}
	for name := range seen {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
	}
}

// Every workload, untraced and traced, at toy size: each declared
// metric comes out exactly once with its unit and a finite value, no
// operation fails, a second seed changes the digest, and the trace
// file loads with every span's parent present.
func TestSmokeAllWorkloads(t *testing.T) {
	bm := loadBenchmarkJSON(t)
	out := t.TempDir()
	for _, wl := range bm.Workloads {
		digests := make(map[int64]string)
		for _, run := range []struct {
			seed  int64
			trace bool
		}{{defaultSeed, false}, {defaultSeed, true}, {defaultSeed + 1, false}} {
			opts := runOptions{seed: run.seed, seconds: 200 * time.Millisecond, trace: run.trace, toy: true, outDir: out}
			res, err := runWorkload(wl.Name, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s seed %d trace %v: correct=%v failed=%d attempted=%d: %v",
					wl.Name, run.seed, run.trace, res.Correct, res.Failed, res.Attempted, res.Errors)
			}
			checkContractLine(t, bm, res, run.trace)
			if !run.trace {
				digests[run.seed] = res.Digest
			} else {
				checkTraceFile(t, res.TraceFile)
			}
		}
		if digests[defaultSeed] == "" || digests[defaultSeed] == digests[defaultSeed+1] {
			t.Errorf("%s: digests %v do not differ across seeds", wl.Name, digests)
		}
	}
}

func checkContractLine(t *testing.T, bm benchmarkJSON, res *result, traced bool) {
	t.Helper()
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(res.contractLine()), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 {
		t.Errorf("%s: result line has keys %v, want exactly correct, attempted, failed, metrics", res.Workload, line)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	if traced {
		for _, m := range bm.PerLayer {
			want[m.Name] = m.Unit
		}
	} else {
		for _, m := range bm.EndToEnd {
			want[m.Name] = m.Unit
		}
	}
	if len(metrics) != len(want) {
		t.Errorf("%s trace=%v: %d metrics printed, %d declared", res.Workload, traced, len(metrics), len(want))
	}
	for name, unit := range want {
		m, ok := metrics[name]
		if !ok {
			t.Errorf("%s trace=%v: metric %s missing", res.Workload, traced, name)
			continue
		}
		if len(m) != 2 || m["unit"] != unit {
			t.Errorf("%s: metric %s printed as %v, want unit %q", res.Workload, name, m, unit)
		}
		v, ok := m["value"].(float64)
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: metric %s value %v is not a finite number", res.Workload, name, m["value"])
		}
		if !traced && v <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, must never be 0", res.Workload, name, v)
		}
		if !unitRE.MatchString(unit) {
			t.Errorf("unit %q of %s does not match %s", unit, name, unitRE)
		}
	}
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	ids := make(map[int]bool, len(doc.TraceEvents))
	for _, e := range doc.TraceEvents {
		ids[e.Args["id"]] = true
	}
	for _, e := range doc.TraceEvents {
		if p := e.Args["parent"]; p != 0 && !ids[p] {
			t.Fatalf("%s: span %s (id %d) names parent %d, which is not in the file", path, e.Name, e.Args["id"], p)
		}
		if e.Dur < 0 || e.Ph != "X" {
			t.Fatalf("%s: malformed span %+v", path, e)
		}
	}
}

// The quartiles must be the ones Python's statistics.quantiles(n=4)
// returns, since that is what the driver's steadiness check uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 3, 7, 1, 9, 4, 8, 2, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
