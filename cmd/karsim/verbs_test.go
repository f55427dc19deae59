package main

import (
	"bytes"
	"context"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/serve"
)

// runGolden runs one argument list and holds what it prints to a file
// of testdata/, each captured from the binary the verb replaced.
func runGolden(t *testing.T, golden string, args ...string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(args, &got); err != nil {
		t.Fatalf("karsim %s: %v", strings.Join(args, " "), err)
	}
	diffGolden(t, golden, got.String(), string(want))
}

// TestVerbGoldens: `route` and `topo` print byte for byte what karctl
// and kartopo printed for the same flags.
func TestVerbGoldens(t *testing.T) {
	for golden, args := range map[string]string{
		"route_encode_fig1.golden":         "route encode -topo fig1 -from S -to D -protect SW5:SW11",
		"route_encode_net15_budget.golden": "route encode -topo net15 -from AS1 -to AS3 -budget 28",
		"route_decode.golden":              "route decode -id 660 -switches 4,7,11,5",
		"topo_net15.golden":                "topo -topo net15",
		"topo_rnp28_dot.golden":            "topo -topo rnp28 -dot",
		"topo_net15_sizes.golden":          "topo -topo net15 -sizes AS1,AS3",
	} {
		runGolden(t, golden, strings.Fields(args)...)
	}
	// Switch ID 0 used to divide by zero; a basis that is not coprime is
	// still decomposed, under a warning.
	if err := run(strings.Fields("route decode -id 660 -switches 0,7"), io.Discard); err == nil || !strings.Contains(err.Error(), "modulo zero") {
		t.Errorf("route decode -switches 0,7: %v", err)
	}
	var out bytes.Buffer
	if err := run(strings.Fields("route decode -id 660 -switches 4,6"), &out); err != nil || !strings.Contains(out.String(), "warning: ") || !strings.Contains(out.String(), "660 mod 6    = 0") {
		t.Errorf("route decode -switches 4,6: %v, printed\n%s", err, &out)
	}
}

// TestTraceGolden: `trace` prints what kartrace printed for a
// flap-react-net15 export, as tables and as CSV, and refuses a -flow
// that is not src:dst instead of printing every flow. The export's
// Perfetto twin carries the reaction's control-plane span.
func TestTraceGolden(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "flap")
	if err := run([]string{"-scenario", "../../examples/scenarios/flap-react-net15.json", "-trace-export", prefix}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if perfetto, err := os.ReadFile(prefix + ".trace.json"); err != nil ||
		!bytes.Contains(perfetto, []byte(`"traceEvents"`)) || !bytes.Contains(perfetto, []byte(`"name":"reaction:fail SW7-SW13"`)) {
		t.Errorf("Perfetto export: %v, or no traceEvents carrying the reaction span", err)
	}
	runGolden(t, "trace_flap_journeys.golden", "trace", "-in", prefix+".jsonl", "-journeys", "3")
	runGolden(t, "trace_flap_journeys_csv.golden", "trace", "-in", prefix+".jsonl", "-journeys", "3", "-csv")

	var out bytes.Buffer
	err := run([]string{"trace", "-in", prefix + ".jsonl", "-flow", "bogus"}, &out)
	if err == nil || !strings.Contains(err.Error(), "src:dst") || out.Len() != 0 {
		t.Errorf("-flow bogus: error %v after printing %d bytes, want an error naming src:dst and no output", err, out.Len())
	}
	out.Reset()
	if err := run([]string{"trace", "-in", prefix + ".jsonl", "-flow", "AS3:AS1"}, &out); err != nil || !strings.Contains(out.String(), "AS1->AS3 data  3000") {
		t.Errorf("-flow AS3:AS1: %v, printed\n%s", err, &out)
	}
}

// TestClientGolden: `client -probe` and `client -post … -result` print
// what karload printed against a fresh daemon, and the result document
// is the batch CLI's verdict for the same spec, seed and runs.
func TestClientGolden(t *testing.T) {
	const file = "../../examples/scenarios/multi-failure-net15.json"
	srv := serve.New(serve.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())
	addr := strings.TrimPrefix(ts.URL, "http://")
	dir := t.TempDir()

	runGolden(t, "client_probe.golden", "client", "-addr", addr, "-probe", "/readyz")
	if err := run([]string{"client", "-addr", addr, "-probe", "/v1/jobs/nope"}, io.Discard); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("-probe of a missing job: %v, want a 404", err)
	}

	spec, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	req, daemon, cli := filepath.Join(dir, "req.json"), filepath.Join(dir, "daemon.json"), filepath.Join(dir, "cli.json")
	if err := os.WriteFile(req, []byte(`{"spec": `+string(spec)+`, "seed": 99, "runs": 3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	runGolden(t, "client_post.golden", "client", "-addr", addr, "-post", "/v1/scenarios", "-body", req, "-result", daemon)
	if err := run([]string{"-scenario", file, "-seed", "99", "-runs", "3", "-verdict-json", cli}, io.Discard); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(daemon)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(cli)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || !bytes.Equal(got, want) {
		t.Errorf("client -result wrote %d bytes, -verdict-json %d: the documents differ", len(got), len(want))
	}

	// A job the daemon refuses at admission is an error carrying its
	// reason, and no job status is printed.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"spec": {"name": "bad", "topology": "net15", "policy": "nip", "duration": "5ms",
		"flows": [{"src": "AS1", "dst": "AS3"}],
		"injections": [{"kind": "link_cut", "link": ["SW7", "NOPE"], "start": "1ms"}]}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = run([]string{"client", "-addr", addr, "-post", "/v1/scenarios", "-body", bad}, &out)
	if err == nil || !strings.Contains(err.Error(), ": 400: ") || !strings.Contains(err.Error(), "NOPE") || out.String() != "" {
		t.Errorf("refused job: error %v after printing %q", err, &out)
	}
}

// TestVerbTable: help lists every verb, an unknown verb names them all,
// and an argument list that starts with a flag is still the flag
// grammar.
func TestVerbTable(t *testing.T) {
	var help bytes.Buffer
	if err := run([]string{"help"}, &help); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"karctl"}, io.Discard)
	if err == nil {
		t.Fatal("unknown verb: no error")
	}
	for _, v := range verbs {
		if !strings.Contains(help.String(), "\n  "+v.name+" ") {
			t.Errorf("help does not list %s:\n%s", v.name, &help)
		}
		if !strings.Contains(err.Error(), v.name) {
			t.Errorf("unknown-verb error does not name %s: %v", v.name, err)
		}
	}
	if err := run([]string{"-exp", "table1"}, io.Discard); err != nil {
		t.Errorf("-exp table1: %v", err)
	}
}
