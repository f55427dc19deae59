package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/serve"
)

// TestExpAllGolden: `-exp all` prints what it printed before the run
// path was collapsed — testdata/exp_all.golden is the parent commit's
// output — so the experiment table, the sweep engine and the pool
// contract hold every figure and every blank line.
func TestExpAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("every experiment, ~6 s")
	}
	want, err := os.ReadFile("testdata/exp_all.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(strings.Fields("-exp all -runs 2 -duration 2s -seed 7"), &got); err != nil {
		t.Fatal(err)
	}
	diffGolden(t, "testdata/exp_all.golden", got.String(), string(want))
}

// TestVerifyGolden: `-verify` prints, and writes as -verify-json, what
// it did before the sweep remembered verdicts and the analyzer kept
// scratch — testdata/verify_net15.golden is the parent commit's table
// followed by its JSON report — at one worker and at four. The golden's
// pair sample was drawn when -seed's default of 1 reached the sampler,
// so the seed is given here.
func TestVerifyGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/verify_net15.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []string{"1", "4"} {
		doc := filepath.Join(t.TempDir(), "verify.json")
		var got bytes.Buffer
		if err := run(strings.Fields("-verify net15 -verify-protection auto -verify-policies hp,avp,nip,dtree"+
			" -verify-pairs 100 -seed 1 -workers "+workers+" -verify-json "+doc), &got); err != nil {
			t.Fatal(err)
		}
		report, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		got.Write(report)
		diffGolden(t, "testdata/verify_net15.golden (-workers "+workers+")", got.String(), string(want))
	}
}

// fullProtection is the exhaustive single-failure sweep over the four
// SW29-rooted routes that full protection covers.
const fullProtection = "-verify net15 -verify-protection full -verify-routes AS1:AS2,AS1:AS3,AS2:AS3,AS3:AS2 -verify-policies avp,nip"

// TestVerifyMinGate: -verify-min passes a sweep whose every route
// survives every single failure — avp and nip under full protection,
// nip and dtree under per-destination auto protection, the AS1-bound
// routes the full set leaves exposed included — and fails the
// unprotected one.
func TestVerifyMinGate(t *testing.T) {
	if doc := cliDocument(t, fullProtection+" -verify-min 1.0", "-verify-json"); !bytes.Contains(doc, []byte(`"survive_fraction": 1`)) {
		t.Errorf("full-protection report carries no perfect survive fraction:\n%s", doc)
	}
	if err := run(strings.Fields("-verify net15 -verify-protection auto -verify-policies nip,dtree -verify-pairs 64 -verify-min 1.0"), io.Discard); err != nil {
		t.Error(err)
	}
	if err := run(strings.Fields("-verify net15 -verify-policies none -verify-min 0.99"), io.Discard); err == nil {
		t.Error("the unprotected sweep passed -verify-min 0.99")
	}
}

// TestSeriesCounts: a -metrics dump carries every registered series,
// zero-valued ones included. Per-link and per-switch series are
// registered as blocks and get their labels on the dump's first read;
// the verify counters resolve on first increment. A block that failed
// to materialise, or a family resolved eagerly, shows as a wrong line
// count: fattree:4 has 40 links (two directions each) and 20 switches
// (four deflection causes each), and the full-protection sweep counts
// cases, survived and disconnected per policy plus the sweep total.
func TestSeriesCounts(t *testing.T) {
	scale := cliDocument(t, "-exp scale -topo fattree:4 -flows 20000 -pairs 16 -rate 20 -duration 500ms -fail-links 2 -seed 3", "-metrics")
	verify := cliDocument(t, fullProtection, "-metrics")
	for _, c := range []struct {
		dump []byte
		want map[string]int // lines per name prefix
	}{
		{scale, map[string]int{"kar_link_up": 40, "kar_link_sent_packets_total": 80, "kar_link_sent_bytes_total": 80,
			"kar_link_queue_drops_total": 80, "kar_link_inflight_drops_total": 80, "kar_switch_deflections_total": 80,
			"kar_switch_received_total": 20, "kar_switch_forwards_total": 20, "kar_switch_ttl_expired_total": 20,
			"kar_switch_policy_drops_total": 20}},
		{verify, map[string]int{"kar_verify_cases_total{": 2, "kar_verify_": 7}},
	} {
		for prefix, want := range c.want {
			if got := strings.Count("\n"+string(c.dump), "\n"+prefix); got != want {
				t.Errorf("%d %s series, want %d", got, prefix, want)
			}
		}
	}
}

// TestScenarioFilesPass: every canned scenario in examples/scenarios
// meets its own expectations.
func TestScenarioFilesPass(t *testing.T) {
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenario files: %v", err)
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			var out bytes.Buffer
			if err := run([]string{"-scenario", f}, &out); err != nil || !strings.Contains(out.String(), "\nverdict: PASS\n") {
				t.Errorf("error %v, printed\n%s", err, &out)
			}
		})
	}
}

// reactionJSONSHA256 pins the JSON twin of reaction_seed1.prom.golden
// (6 341 lines: the per-run event streams beside the metrics).
const reactionJSONSHA256 = "ab2413d7c31c448df5fd4af34d403c00ff6ee5f683bd6a422fcf6631455d85e6"

// TestReactionMetricsGolden: `-exp reaction -seed 1 -metrics` writes the
// dumps it wrote when the reactive strategy's notify was scheduled by
// hand at failure + 250 ms, now that it rides the link-detection hook
// (World.ReactAfter) — testdata/reaction_seed1.prom.golden is that
// Prometheus dump, and its JSON twin is pinned by hash — at one worker
// and at four.
func TestReactionMetricsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/reaction_seed1.prom.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []string{"1", "4"} {
		prom := filepath.Join(t.TempDir(), "reaction.prom")
		if err := run(strings.Fields("-exp reaction -seed 1 -workers "+workers+" -metrics "+prom), io.Discard); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(prom)
		if err != nil {
			t.Fatal(err)
		}
		diffGolden(t, "testdata/reaction_seed1.prom.golden (-workers "+workers+")", string(got), string(want))
		js, err := os.ReadFile(prom + ".json")
		if err != nil {
			t.Fatal(err)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256(js)); sum != reactionJSONSHA256 {
			t.Errorf("-workers %s: JSON dump has SHA-256 %s, want %s", workers, sum, reactionJSONSHA256)
		}
	}
}

// diffGolden fails the test at the first line where got departs from the
// golden file's text.
func diffGolden(t *testing.T, name, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs from %s:\n got %q\nwant %q", i+1, name, gl[i], wl[i])
		}
	}
	t.Fatalf("output has %d lines, %s %d", len(gl), name, len(wl))
}

// TestUnknownExperiment: the error names every experiment of the table.
func TestUnknownExperiment(t *testing.T) {
	err := run([]string{"-exp", "fig6"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "table1, fig4, fig5, fig7, fig8, table2, coverage, ablation, reaction, scale, all") {
		t.Fatalf("unknown experiment: %v", err)
	}
}

// TestNegativeRunsRunsOneSeed: a negative -runs is one seed per cell,
// as it was before the sweeps shared an engine — not a panic.
func TestNegativeRunsRunsOneSeed(t *testing.T) {
	var neg, one bytes.Buffer
	if err := run(strings.Fields("-exp fig8 -runs -1 -duration 1s -seed 7"), &neg); err != nil {
		t.Fatal(err)
	}
	if err := run(strings.Fields("-exp fig8 -runs 1 -duration 1s -seed 7"), &one); err != nil {
		t.Fatal(err)
	}
	if neg.Len() == 0 || !bytes.Equal(neg.Bytes(), one.Bytes()) {
		t.Errorf("-runs -1 printed\n%s-runs 1 printed\n%s", &neg, &one)
	}
}

// cliDocument runs karsim with args plus docFlag naming a temporary
// file, and returns the document written there.
func cliDocument(t *testing.T, args, docFlag string) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "doc.json")
	if err := run(strings.Fields(args+" "+docFlag+" "+path), io.Discard); err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// daemonDocument submits body to path on an in-process daemon, waits
// for the job, and returns its result document.
func daemonDocument(t *testing.T, path, body string) []byte {
	t.Helper()
	srv := serve.New(serve.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())
	resp, err := http.Post(ts.URL+path+"?wait=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st serve.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || st.State != serve.StateDone {
		t.Fatalf("daemon job: %+v, %v", st, err)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	doc, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestScenarioFlagOverrides: -seed and -runs given with -scenario
// override the file as the daemon's request fields do — same request,
// same verdict document — and flags left alone leave the file alone.
func TestScenarioFlagOverrides(t *testing.T) {
	const file = "../../examples/scenarios/multi-failure-net15.json"
	seeds := func(doc []byte) string {
		t.Helper()
		var v scenario.Verdict
		if err := json.Unmarshal(doc, &v); err != nil {
			t.Fatal(err)
		}
		var s []int64
		for _, r := range v.Runs {
			s = append(s, r.Seed)
		}
		return fmt.Sprint(s)
	}

	if got := seeds(cliDocument(t, "-scenario "+file, "-verdict-json")); got != "[7 1000010]" {
		t.Errorf("no overrides: runs seeded %s, want the file's [7 1000010]", got)
	}
	cli := cliDocument(t, "-scenario "+file+" -seed 99 -runs 3", "-verdict-json")
	if got := seeds(cli); got != "[99 1000102 2000105]" {
		t.Errorf("-seed 99 -runs 3: runs seeded %s, want [99 1000102 2000105]", got)
	}

	spec, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	daemon := daemonDocument(t, "/v1/scenarios", `{"spec": `+string(spec)+`, "seed": 99, "runs": 3}`)
	if !bytes.Equal(cli, daemon) {
		t.Errorf("verdict documents differ: CLI %d bytes, daemon %d bytes", len(cli), len(daemon))
	}
}

// TestVerifyMatchesDaemon: the -verify flag family and a /v1/verify
// body name the same request, so they get the same report — sampled
// pairs included, whose seed is 0 on both sides when neither gives one.
func TestVerifyMatchesDaemon(t *testing.T) {
	for _, c := range []struct{ flags, body string }{
		{"-verify-pairs 8", `"pairs": 8`},
		{"-verify-pairs 8 -seed 5", `"pairs": 8, "seed": 5`},
	} {
		cli := cliDocument(t, "-verify net15 -verify-routes AS1:AS3 -verify-policies nip "+c.flags, "-verify-json")
		daemon := daemonDocument(t, "/v1/verify", `{"topology": "net15", "routes": "AS1:AS3", "policies": ["nip"], `+c.body+`}`)
		if !bytes.Equal(cli, daemon) {
			t.Errorf("%s: report differs from the daemon's for {%s}: CLI %d bytes, daemon %d bytes", c.flags, c.body, len(cli), len(daemon))
		}
	}
}

// TestHostileScenarioFiles: the flows that took the daemon down, a
// generated topology past topology.MaxSpecSwitches and flows past
// scenario.MaxPackets are an error from the CLI too — no panic, no hang.
func TestHostileScenarioFiles(t *testing.T) {
	for _, c := range []struct{ topology, flow, want string }{
		{"net15", `"size": -5`, "must not be negative"},
		{"net15", `"interval": "-1ms"`, "must not be negative"},
		{"fattree:100000", `"interval": "1ms"`, "exceeds the limit of 4096"},
		{"net15", `"interval": "1ns"`, "emit over 10000000 packets a run"},
	} {
		path := filepath.Join(t.TempDir(), "hostile.json")
		spec := `{"name": "hostile", "topology": "` + c.topology + `", "policy": "nip", "duration": "20ms",
			"flows": [{"src": "AS1", "dst": "AS3", ` + c.flow + `}]}`
		if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run([]string{"-scenario", path}, io.Discard); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s with flow %s: %v, want an error saying %q", c.topology, c.flow, err, c.want)
		}
	}
	if err := run([]string{"-verify", "fattree:100000"}, io.Discard); err == nil || !strings.Contains(err.Error(), "exceeds the limit of 4096") {
		t.Errorf("-verify fattree:100000: %v", err)
	}
}
