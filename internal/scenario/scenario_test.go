package scenario

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func specJSON() string {
	return `{
	  "name": "t",
	  "topology": "net15",
	  "policy": "nip",
	  "protection": "partial",
	  "seed": 5,
	  "runs": 2,
	  "duration": "300ms",
	  "drain": "100ms",
	  "flows": [{"src": "AS1", "dst": "AS3", "path": ["AS1","SW10","SW7","SW13","SW29","AS3"], "interval": "2ms"}],
	  "injections": [
	    {"kind": "flap", "link": ["SW10","SW7"], "start": "50ms", "window": "100ms", "period": "40ms", "duty": 0.5},
	    {"kind": "gray", "link": ["SW7","SW13"], "start": "150ms", "window": "100ms", "drop_prob": 0.5}
	  ],
	  "phases": [{"name": "a", "until": "150ms"}, {"name": "b", "until": "300ms"}],
	  "expect": {"min_delivered": 1}
	}`
}

func TestParseAndRoundTrip(t *testing.T) {
	spec, err := Parse(strings.NewReader(specJSON()))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Duration.D() != 300*time.Millisecond {
		t.Errorf("duration = %v, want 300ms", spec.Duration.D())
	}
	if spec.Injections[0].Kind != "flap" || spec.Injections[0].Link[1] != "SW7" {
		t.Errorf("injection 0 decoded as %+v", spec.Injections[0])
	}
	if spec.Expect.MinDelivered == nil || *spec.Expect.MinDelivered != 1 {
		t.Errorf("expect.min_delivered decoded as %v", spec.Expect.MinDelivered)
	}
	if spec.Expect.MaxLossFraction != nil {
		t.Error("unset expectation decoded as set")
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	cases := map[string]string{
		"unknown field":    `{"name":"x","topology":"net15","policy":"nip","duration":"1s","flows":[{"src":"AS1","dst":"AS3"}],"bogus":1}`,
		"numeric duration": `{"name":"x","topology":"net15","policy":"nip","duration":5,"flows":[{"src":"AS1","dst":"AS3"}]}`,
		"unknown policy":   `{"name":"x","topology":"net15","policy":"bogus","duration":"1s","flows":[{"src":"AS1","dst":"AS3"}]}`,
		"bad topology":     `{"name":"x","topology":"mesh99","policy":"nip","duration":"1s","flows":[{"src":"AS1","dst":"AS3"}]}`,
		"bad protection":   `{"name":"x","topology":"fig1","policy":"nip","protection":"partial","duration":"1s","flows":[{"src":"A","dst":"B"}]}`,
		"no flows":         `{"name":"x","topology":"net15","policy":"nip","duration":"1s"}`,
		"negative size":    `{"name":"x","topology":"net15","policy":"nip","duration":"1s","flows":[{"src":"AS1","dst":"AS3","size":-5}]}`,
		"negative gap":     `{"name":"x","topology":"net15","policy":"nip","duration":"1s","flows":[{"src":"AS1","dst":"AS3","interval":"-1ms"}]}`,
		"unknown level":    `{"name":"x","topology":"net15","policy":"nip","protection":"total","duration":"1s","flows":[{"src":"AS1","dst":"AS3"}]}`,
		"generated+canned": `{"name":"x","topology":"fattree:4","policy":"nip","protection":"full","duration":"1s","flows":[{"src":"h0","dst":"h1"}]}`,
		"bad injection":    `{"name":"x","topology":"net15","policy":"nip","duration":"1s","flows":[{"src":"AS1","dst":"AS3"}],"injections":[{"kind":"meteor","start":"1ms"}]}`,
		"unsorted phases":  `{"name":"x","topology":"net15","policy":"nip","duration":"1s","flows":[{"src":"AS1","dst":"AS3"}],"phases":[{"name":"a","until":"500ms"},{"name":"b","until":"200ms"}]}`,
		"phase past end":   `{"name":"x","topology":"net15","policy":"nip","duration":"1s","flows":[{"src":"AS1","dst":"AS3"}],"phases":[{"name":"a","until":"20s"}]}`,
	}
	for what, js := range cases {
		if _, err := Parse(strings.NewReader(js)); err == nil {
			t.Errorf("%s: accepted", what)
		}
	}
}

func runDump(t *testing.T, workers int) (string, *Verdict) {
	t.Helper()
	spec, err := Parse(strings.NewReader(specJSON()))
	if err != nil {
		t.Fatal(err)
	}
	coll := telemetry.NewCollector()
	v, err := Run(spec, RunOptions{Workers: workers, Metrics: coll})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := coll.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String(), v
}

// The determinism contract behind `karsim -scenario`: the same file
// and seed produce byte-identical merged telemetry dumps, run twice
// and across worker counts.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	d1, v1 := runDump(t, 1)
	d2, v2 := runDump(t, 1)
	d4, _ := runDump(t, 4)
	if d1 != d2 {
		t.Error("two identical runs produced different telemetry dumps")
	}
	if d1 != d4 {
		t.Error("worker count changed the telemetry dump")
	}
	if !v1.Pass || !v2.Pass {
		t.Error("smoke spec failed its expectations")
	}
	if len(v1.Runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(v1.Runs))
	}
	if v1.Runs[0].Seed == v1.Runs[1].Seed {
		t.Error("runs share a seed")
	}
	if !strings.Contains(d1, "kar_fault_injections_total") {
		t.Error("dump missing kar_fault_injections_total")
	}
	if !strings.Contains(d1, `scenario="t"`) {
		t.Error("dump missing the scenario base label")
	}
}

func TestRunRecordsFaultTelemetry(t *testing.T) {
	dump, v := runDump(t, 2)
	r := v.Runs[0]
	if r.Sent == 0 || r.Delivered == 0 {
		t.Fatalf("no traffic: %+v", r)
	}
	if r.GrayDrops == 0 {
		t.Error("drop_prob=0.5 gray window produced no gray drops")
	}
	if len(r.Phases) != 2 {
		t.Fatalf("got %d phases, want 2", len(r.Phases))
	}
	if got := r.Phases[0].Sent + r.Phases[1].Sent; got != r.Sent {
		t.Errorf("phase sent sums to %d, total %d", got, r.Sent)
	}
	if !strings.Contains(dump, `kar_fault_gray_drops_total`) {
		t.Error("dump missing gray-drop counters")
	}
}

// Expectations that cannot hold must flip the verdict with a concrete
// violation, not an error.
func TestExpectationViolationFailsVerdict(t *testing.T) {
	spec, err := Parse(strings.NewReader(specJSON()))
	if err != nil {
		t.Fatal(err)
	}
	million := int64(1_000_000)
	zero := 0.0
	spec.Expect.MinDelivered = &million
	spec.Expect.MaxLossFraction = &zero
	v, err := Run(spec, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if v.Pass {
		t.Fatal("verdict passed impossible expectations")
	}
	for _, r := range v.Runs {
		if r.Pass || len(r.Violations) != 2 {
			t.Errorf("run %d: pass=%v violations=%v, want 2 violations", r.Run, r.Pass, r.Violations)
		}
	}
}

// An injection naming a link the topology doesn't have surfaces as an
// install error, not a silent no-op.
func TestRunRejectsUnknownLink(t *testing.T) {
	spec, err := Parse(strings.NewReader(specJSON()))
	if err != nil {
		t.Fatal(err)
	}
	spec.Injections[0].Link = [2]string{"SW10", "SW999"}
	if _, err := Run(spec, RunOptions{}); err == nil {
		t.Fatal("ran a scenario with an injection on a nonexistent link")
	}
}

// Detection + react wiring: a scenario with a reactive controller and
// detection latency still runs deterministically and delivers traffic.
func TestReactiveDetectionScenario(t *testing.T) {
	js := `{
	  "name": "react",
	  "topology": "net15",
	  "policy": "nip",
	  "protection": "partial",
	  "seed": 2,
	  "duration": "400ms",
	  "detection": {"down_delay": "20ms", "up_delay": "10ms", "notify_delay": "10ms", "react": true},
	  "flows": [{"src": "AS1", "dst": "AS3", "path": ["AS1","SW10","SW7","SW13","SW29","AS3"], "interval": "2ms"}],
	  "injections": [{"kind": "link_cut", "link": ["SW7","SW13"], "start": "100ms", "duration": "150ms"}],
	  "expect": {"max_loss_fraction": 0.3}
	}`
	run := func() *Verdict {
		spec, err := Parse(strings.NewReader(js))
		if err != nil {
			t.Fatal(err)
		}
		v, err := Run(spec, RunOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	v1, v2 := run(), run()
	if !v1.Pass {
		t.Fatalf("reactive scenario failed: %+v", v1.Runs[0])
	}
	r1, r2 := v1.Runs[0], v2.Runs[0]
	if r1.Delivered != r2.Delivered || r1.Deflections != r2.Deflections {
		t.Errorf("reactive runs diverged: %+v vs %+v", r1, r2)
	}
	// The 20ms detection delay black-holes some packets: loss must be
	// nonzero but bounded.
	if r1.Delivered == r1.Sent {
		t.Error("no loss at all despite a 150ms cut with delayed detection")
	}
}

// The verify block: a full-protection SW29-bound route must clear
// min_survival 1.0, and an unprotected "none" sweep must fail it and
// sink the verdict.
func TestVerifyBlock(t *testing.T) {
	pass := `{
	  "name": "v",
	  "topology": "net15",
	  "policy": "nip",
	  "protection": "full",
	  "seed": 3,
	  "duration": "100ms",
	  "flows": [{"src": "AS1", "dst": "AS3", "interval": "2ms"}],
	  "expect": {"min_delivered": 1},
	  "verify": {"policies": ["avp", "nip"], "pairs": 4, "min_survival": 1.0}
	}`
	spec, err := Parse(strings.NewReader(pass))
	if err != nil {
		t.Fatal(err)
	}
	coll := telemetry.NewCollector()
	v, err := Run(spec, RunOptions{Metrics: coll})
	if err != nil {
		t.Fatal(err)
	}
	if v.Verify == nil || !v.Verify.Pass || !v.Pass {
		t.Fatalf("full-protection verify failed: %+v", v.Verify)
	}
	if v.Verify.Report.PairsDrawn != 4 {
		t.Errorf("pairs drawn = %d, want 4", v.Verify.Report.PairsDrawn)
	}
	var buf bytes.Buffer
	if err := coll.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "kar_verify_cases_total") {
		t.Error("collector dump missing kar_verify_cases_total")
	}

	fail := strings.Replace(pass,
		`"verify": {"policies": ["avp", "nip"], "pairs": 4, "min_survival": 1.0}`,
		`"verify": {"policies": ["none"], "min_survival": 1.0}`, 1)
	spec, err = Parse(strings.NewReader(fail))
	if err != nil {
		t.Fatal(err)
	}
	v, err = Run(spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Verify == nil || v.Verify.Pass || v.Pass {
		t.Fatal("unprotected none sweep passed min_survival 1.0")
	}
	if len(v.Verify.Violations) == 0 {
		t.Error("failing verify recorded no violations")
	}
}

// Auto protection + dtree through the scenario runner: both flow
// directions — including the reverse direction that canned "full"
// protection left exposed — must survive every connected single
// failure, and the sampled pairs beat min_survival 0 trivially but are
// exercised for coverage.
func TestVerifyBlockDtreeAuto(t *testing.T) {
	js := `{
	  "name": "v-dtree",
	  "topology": "net15",
	  "policy": "dtree",
	  "protection": "auto",
	  "seed": 5,
	  "duration": "50ms",
	  "flows": [
	    {"src": "AS1", "dst": "AS3", "interval": "2ms"},
	    {"src": "AS3", "dst": "AS1", "interval": "2ms"}
	  ],
	  "expect": {"min_delivered": 1},
	  "verify": {"policies": ["nip", "dtree"], "pairs": 8, "min_survival": 1.0}
	}`
	spec, err := Parse(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	v, err := Run(spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Verify == nil || !v.Verify.Pass || !v.Pass {
		t.Fatalf("auto-protection dtree verify failed: %+v", v.Verify)
	}
	if v.Verify.Report.Protection != "auto" {
		t.Errorf("report protection = %q, want auto", v.Verify.Report.Protection)
	}
}

// Bad verify blocks are rejected at parse time.
func TestVerifyValidation(t *testing.T) {
	base := `{"name":"x","topology":"net15","policy":"nip","duration":"1s","flows":[{"src":"AS1","dst":"AS3"}],"verify":%s}`
	for what, vb := range map[string]string{
		"unknown policy": `{"policies":["quantum"]}`,
		"negative pairs": `{"pairs":-1}`,
		"survival > 1":   `{"min_survival":1.5}`,
		"zero stretch":   `{"max_stretch":0}`,
	} {
		js := fmt.Sprintf(base, vb)
		if _, err := Parse(strings.NewReader(js)); err == nil {
			t.Errorf("%s: accepted", what)
		}
	}
}
