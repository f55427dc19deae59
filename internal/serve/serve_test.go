package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/scenario"
	"repro/internal/topology"
)

// tinySpec is a scenario small enough that a job finishes in
// milliseconds but still exercises flows, a phase and an injection.
const tinySpec = `{
  "name": "serve-probe",
  "topology": "net15",
  "policy": "nip",
  "seed": 11,
  "runs": 2,
  "duration": "20ms",
  "drain": "10ms",
  "flows": [
    {"src": "AS1", "dst": "AS3", "interval": "1ms"}
  ],
  "phases": [
    {"name": "steady", "until": "10ms"},
    {"name": "tail", "until": "20ms"}
  ],
  "injections": [
    {"kind": "link_cut", "link": ["SW7", "SW13"], "start": "5ms", "duration": "5ms"}
  ]
}`

func scenarioBody(t *testing.T, extra string) *bytes.Reader {
	t.Helper()
	body := `{"spec": ` + tinySpec
	if extra != "" {
		body += ", " + extra
	}
	body += "}"
	return bytes.NewReader([]byte(body))
}

func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body io.Reader) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func waitTerminal(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, data := getBody(t, base+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d for job %s: %s", resp.StatusCode, id, data)
		}
		var st JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if st.State.terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestScenarioJobRunsToDone(t *testing.T) {
	_, ts := startServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/scenarios", scenarioBody(t, ""))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, data)
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("fresh job in state %s", st.State)
	}
	fin := waitTerminal(t, ts.URL, st.ID)
	if fin.State != StateDone {
		t.Fatalf("job finished %s (%s)", fin.State, fin.Error)
	}
	if !fin.HasResult {
		t.Fatal("done job reports no result")
	}
	resp, result := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d: %s", resp.StatusCode, result)
	}
	var v scenario.Verdict
	if err := json.Unmarshal(result, &v); err != nil {
		t.Fatal(err)
	}
	if !v.Pass || len(v.Runs) != 2 {
		t.Fatalf("verdict pass=%v runs=%d", v.Pass, len(v.Runs))
	}
}

// TestDaemonMatchesBatchBytes is the determinism contract: one spec,
// one seed — the daemon's result document is byte-identical to the
// batch engine's, at any worker count.
func TestDaemonMatchesBatchBytes(t *testing.T) {
	spec, err := scenario.Parse(strings.NewReader(tinySpec))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := scenario.Run(spec, scenario.RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := encodeResult(ref)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startServer(t, Config{Workers: 2})
	for _, workers := range []int{1, 4} {
		resp, data := postJSON(t, ts.URL+"/v1/scenarios",
			scenarioBody(t, fmt.Sprintf(`"workers": %d`, workers)))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit workers=%d: %d: %s", workers, resp.StatusCode, data)
		}
		var st JobStatus
		json.Unmarshal(data, &st)
		if fin := waitTerminal(t, ts.URL, st.ID); fin.State != StateDone {
			t.Fatalf("workers=%d: job %s (%s)", workers, fin.State, fin.Error)
		}
		_, got := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: daemon result diverged from batch engine", workers)
		}
	}
}

func TestVerifyJobMatchesDirectSweep(t *testing.T) {
	g, err := topology.Net15()
	if err != nil {
		t.Fatal(err)
	}
	routes := []resilience.RouteSpec{{Src: "AS1", Dst: "AS3"}}
	ref, err := resilience.Sweep(g, routes, resilience.Config{
		Policies: []string{"none", "nip"}, ProtectionLabel: "none", Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := encodeResult(ref)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startServer(t, Config{})
	for _, workers := range []int{1, 4} {
		body := fmt.Sprintf(`{"topology": "net15", "routes": "AS1:AS3", "policies": ["none", "nip"], "workers": %d}`, workers)
		resp, data := postJSON(t, ts.URL+"/v1/verify", bytes.NewReader([]byte(body)))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d: %s", resp.StatusCode, data)
		}
		var st JobStatus
		json.Unmarshal(data, &st)
		if fin := waitTerminal(t, ts.URL, st.ID); fin.State != StateDone {
			t.Fatalf("verify job %s (%s)", fin.State, fin.Error)
		}
		_, got := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: daemon verify report diverged from direct sweep", workers)
		}
	}
}

// The dtree round trip: a verify job under auto protection must
// byte-match the direct sweep the CLI runs, at any worker count — the
// structured-failover path through the daemon introduces no
// nondeterminism.
func TestVerifyDtreeAutoRoundTrip(t *testing.T) {
	g, err := topology.Net15()
	if err != nil {
		t.Fatal(err)
	}
	routes := []resilience.RouteSpec{{Src: "AS1", Dst: "AS3"}, {Src: "AS3", Dst: "AS1"}}
	ref, err := resilience.Sweep(g, routes, resilience.Config{
		Policies: []string{"nip", "dtree"}, AutoProtect: true,
		ProtectionLabel: "auto", Pairs: 16, PairSeed: 9, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := encodeResult(ref)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startServer(t, Config{})
	for _, workers := range []int{1, 4} {
		body := fmt.Sprintf(`{"topology": "net15", "routes": "AS1:AS3,AS3:AS1", "policies": ["nip", "dtree"], "protection": "auto", "pairs": 16, "seed": 9, "workers": %d}`, workers)
		resp, data := postJSON(t, ts.URL+"/v1/verify", bytes.NewReader([]byte(body)))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d: %s", resp.StatusCode, data)
		}
		var st JobStatus
		json.Unmarshal(data, &st)
		if fin := waitTerminal(t, ts.URL, st.ID); fin.State != StateDone {
			t.Fatalf("verify job %s (%s)", fin.State, fin.Error)
		}
		_, got := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: daemon dtree verify report diverged from direct sweep", workers)
		}
	}
}

// A verify job's event stream is one "sweep" line per (route, policy)
// unit — not per case, which held O(routes × policies × failure sets)
// lines with the job — each counting the cases done so far, the largest
// equal to the total; the only other lines are the job's state
// transitions. With one sweep worker the counts arrive strictly
// increasing (several workers report concurrently, so only the values
// are pinned there).
func TestVerifyStreamOneSweepLinePerUnit(t *testing.T) {
	_, ts := startServer(t, Config{})
	g, err := topology.Net15()
	if err != nil {
		t.Fatal(err)
	}
	const pairs = 30
	routes, err := resilience.AllPairRoutes(g)
	if err != nil {
		t.Fatal(err)
	}
	units := len(routes) * 2
	for _, workers := range []int{1, 4} {
		body := fmt.Sprintf(`{"topology": "net15", "policies": ["nip", "dtree"], "protection": "auto", "pairs": %d, "seed": 9, "workers": %d}`, pairs, workers)
		resp, data := postJSON(t, ts.URL+"/v1/verify", bytes.NewReader([]byte(body)))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d: %s", resp.StatusCode, data)
		}
		var st JobStatus
		json.Unmarshal(data, &st)
		if fin := waitTerminal(t, ts.URL, st.ID); fin.State != StateDone {
			t.Fatalf("verify job %s (%s)", fin.State, fin.Error)
		}

		_, nd := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/events?format=ndjson")
		seen := map[int]bool{}
		var last, most, total int
		sc := bufio.NewScanner(bytes.NewReader(nd))
		for sc.Scan() {
			var ev struct {
				Kind       string `json:"kind"`
				State      string `json:"state"`
				SweepDone  int    `json:"sweep_done"`
				SweepTotal int    `json:"sweep_total"`
			}
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("ndjson line %q: %v", sc.Text(), err)
			}
			switch ev.Kind {
			case "state":
				if ev.State == "" {
					t.Errorf("state line without a state: %s", sc.Text())
				}
			case "sweep":
				if seen[ev.SweepDone] || workers == 1 && ev.SweepDone <= last {
					t.Errorf("workers=%d: sweep_done %d after %d", workers, ev.SweepDone, last)
				}
				seen[ev.SweepDone] = true
				last, most, total = ev.SweepDone, max(most, ev.SweepDone), ev.SweepTotal
			default:
				t.Errorf("unexpected line in a verify stream: %s", sc.Text())
			}
		}
		if len(seen) != units || most != total || total != units*(len(g.Links())+pairs) {
			t.Fatalf("workers=%d: %d sweep lines reaching %d of %d, want %d lines (one per unit) reaching the total",
				workers, len(seen), most, total, units)
		}
	}
}

// A dtree scenario (auto protection) must run to done through the
// daemon and lose at most the single packet already in flight on the
// link when the cut lands — every packet that reaches a switch after
// the failure is deflected home along the destination-rooted tree.
func TestScenarioDtreeAutoRunsToDone(t *testing.T) {
	const dtreeSpec = `{
	  "name": "serve-dtree",
	  "topology": "net15",
	  "policy": "dtree",
	  "protection": "auto",
	  "seed": 3,
	  "duration": "20ms",
	  "drain": "10ms",
	  "flows": [
	    {"src": "AS3", "dst": "AS1", "interval": "1ms"}
	  ],
	  "injections": [
	    {"kind": "link_cut", "link": ["SW10", "SW7"], "start": "5ms"}
	  ],
	  "expect": {"max_loss_fraction": 0.051, "min_deflections": 1}
	}`
	_, ts := startServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/scenarios",
		bytes.NewReader([]byte(`{"spec": `+dtreeSpec+`}`)))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, data)
	}
	var st JobStatus
	json.Unmarshal(data, &st)
	if fin := waitTerminal(t, ts.URL, st.ID); fin.State != StateDone {
		t.Fatalf("job %s (%s)", fin.State, fin.Error)
	}
	_, got := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	var verdict scenario.Verdict
	if err := json.Unmarshal(got, &verdict); err != nil {
		t.Fatal(err)
	}
	if !verdict.Pass {
		t.Fatalf("dtree scenario failed: %s", got)
	}
}

// blockingServer wires an execHook whose jobs block until released.
func blockingServer(t *testing.T, cfg Config) (*Server, *httptest.Server, chan struct{}) {
	s, ts := startServer(t, cfg)
	release := make(chan struct{})
	s.execHook = func(ctx context.Context, j *Job) ([]byte, error) {
		select {
		case <-release:
			return []byte("{}\n"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return s, ts, release
}

func TestQueueFullRejectsWith429(t *testing.T) {
	_, ts, release := blockingServer(t, Config{QueueCap: 2, Workers: 1})
	defer close(release)
	// One job occupies the worker, two fill the queue; the fourth must
	// bounce with 429 + Retry-After.
	var ids []string
	for i := 0; i < 3; i++ {
		resp, data := postJSON(t, ts.URL+"/v1/scenarios", scenarioBody(t, ""))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d: %s", i, resp.StatusCode, data)
		}
		var st JobStatus
		json.Unmarshal(data, &st)
		ids = append(ids, st.ID)
	}
	resp, data := postJSON(t, ts.URL+"/v1/scenarios", scenarioBody(t, ""))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if !strings.Contains(string(data), "queue full") {
		t.Fatalf("429 body: %s", data)
	}
	_ = ids
}

func TestCancelQueuedAndRunningJobs(t *testing.T) {
	_, ts, release := blockingServer(t, Config{QueueCap: 4, Workers: 1})
	defer close(release)
	submit := func() string {
		resp, data := postJSON(t, ts.URL+"/v1/scenarios", scenarioBody(t, ""))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d: %s", resp.StatusCode, data)
		}
		var st JobStatus
		json.Unmarshal(data, &st)
		return st.ID
	}
	running := submit() // occupies the single worker
	queued := submit()  // waits behind it

	del := func(id string) {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	del(queued)
	if st := waitTerminal(t, ts.URL, queued); st.State != StateCancelled {
		t.Fatalf("queued job cancelled to %s", st.State)
	}
	// Give the worker a moment to have actually started the first job.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, data := getBody(t, ts.URL+"/v1/jobs/"+running)
		var st JobStatus
		json.Unmarshal(data, &st)
		resp.Body.Close()
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	del(running)
	if st := waitTerminal(t, ts.URL, running); st.State != StateCancelled {
		t.Fatalf("running job cancelled to %s", st.State)
	}
}

func TestEventsStreamEndsWithDone(t *testing.T) {
	_, ts := startServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/scenarios", scenarioBody(t, ""))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, data)
	}
	var st JobStatus
	json.Unmarshal(data, &st)

	stream, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	raw, err := io.ReadAll(stream.Body) // server closes at terminal state
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{`"state":"queued"`, `"state":"running"`, `"kind":"run_start"`,
		`"kind":"phase"`, `"kind":"inject"`, `"kind":"run_done"`, `"state":"done"`, "event: done"} {
		if !strings.Contains(text, want) {
			t.Errorf("SSE stream missing %s", want)
		}
	}
	if !strings.HasSuffix(strings.TrimRight(text, "\n"), "}") || !strings.Contains(text[strings.LastIndex(text, "event: done"):], `"state":"done"`) {
		t.Fatalf("stream does not end with the done event:\n%s", text)
	}

	// NDJSON format: every line is one JSON object, last is terminal.
	nd, ndData := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/events?format=ndjson")
	if ct := nd.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("ndjson content type %q", ct)
	}
	var lastLine string
	sc := bufio.NewScanner(bytes.NewReader(ndData))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("ndjson line %q: %v", line, err)
		}
		lastLine = line
	}
	if !strings.Contains(lastLine, `"state":"done"`) {
		t.Fatalf("ndjson stream ends with %q", lastLine)
	}

	// The result stays fetchable after the stream completed.
	r2, result := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if r2.StatusCode != http.StatusOK || len(result) == 0 {
		t.Fatalf("result after stream: %d (%d bytes)", r2.StatusCode, len(result))
	}
}

func TestDrainFinishesInFlightAndCancelsQueued(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{QueueCap: 4, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	release, started := make(chan struct{}), make(chan struct{}, 2)
	s.execHook = func(ctx context.Context, j *Job) ([]byte, error) {
		started <- struct{}{}
		select {
		case <-release:
			return []byte("{}\n"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	submit := func() string {
		resp, data := postJSON(t, ts.URL+"/v1/scenarios", scenarioBody(t, ""))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d: %s", resp.StatusCode, data)
		}
		var st JobStatus
		json.Unmarshal(data, &st)
		return st.ID
	}
	inflight := submit()
	queued := submit()
	// A job the worker takes off the queue after drain begins is
	// cancelled, so drain begins only once the first job runs.
	<-started

	done := make(chan error)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	for deadline := time.Now().Add(5 * time.Second); !s.isDraining(); {
		if time.Now().After(deadline) {
			t.Fatal("drain never began")
		}
		runtime.Gosched()
	}
	// While draining: readyz 503, submissions 503.
	if resp, _ := getBody(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/scenarios", scenarioBody(t, "")); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: %d", resp.StatusCode)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	if st := waitTerminal(t, ts.URL, inflight); st.State != StateDone {
		t.Errorf("in-flight job drained to %s, want done", st.State)
	}
	if st := waitTerminal(t, ts.URL, queued); st.State != StateCancelled {
		t.Errorf("queued job drained to %s, want cancelled", st.State)
	}
	// healthz stays up for liveness probes even while drained.
	if resp, _ := getBody(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after drain: %d", resp.StatusCode)
	}
	ts.Close()
	settleGoroutines(t, base)
}

func TestDrainDeadlineCancelsStuckJobs(t *testing.T) {
	s := New(Config{QueueCap: 2, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.execHook = func(ctx context.Context, j *Job) ([]byte, error) {
		<-ctx.Done() // never finishes voluntarily
		return nil, ctx.Err()
	}
	resp, data := postJSON(t, ts.URL+"/v1/scenarios", scenarioBody(t, ""))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, data)
	}
	var st JobStatus
	json.Unmarshal(data, &st)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("shutdown err = %v, want deadline exceeded", err)
	}
	if fin := waitTerminal(t, ts.URL, st.ID); fin.State != StateCancelled {
		t.Fatalf("stuck job drained to %s, want cancelled", fin.State)
	}
}

func TestWaitModeCancelsOnClientDisconnect(t *testing.T) {
	_, ts, release := blockingServer(t, Config{QueueCap: 2, Workers: 1})
	defer close(release)
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/scenarios?wait=1", scenarioBody(t, ""))
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel() // client walks away mid-wait
	<-errc

	// The job the disconnected client submitted ends cancelled.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, data := getBody(t, ts.URL+"/v1/jobs")
		var jobs []JobStatus
		if err := json.Unmarshal(data, &jobs); err != nil {
			t.Fatal(err)
		}
		if len(jobs) == 1 && jobs[0].State == StateCancelled {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job state after disconnect: %+v", jobs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestStoreCapEvictsOldestTerminalJobs(t *testing.T) {
	s, ts := startServer(t, Config{QueueCap: 8, Workers: 1, StoreCap: 2})
	s.execHook = func(ctx context.Context, j *Job) ([]byte, error) { return []byte("{}\n"), nil }
	var ids []string
	for i := 0; i < 4; i++ {
		resp, data := postJSON(t, ts.URL+"/v1/scenarios", scenarioBody(t, ""))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d: %s", resp.StatusCode, data)
		}
		var st JobStatus
		json.Unmarshal(data, &st)
		ids = append(ids, st.ID)
		waitTerminal(t, ts.URL, st.ID)
	}
	// Retention is enforced at the next admission, so the store holds
	// at most StoreCap + 1 jobs; the earliest ones must be gone.
	resp, _ := getBody(t, ts.URL+"/v1/jobs/"+ids[0])
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("oldest job still retained: %d", resp.StatusCode)
	}
	resp, _ = getBody(t, ts.URL+"/v1/jobs/"+ids[len(ids)-1])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("newest job evicted: %d", resp.StatusCode)
	}
}

// TestStoreCapDropsEvictedJobsTelemetry: an evicted job takes what it
// collected with it. Six collecting scenario jobs at StoreCap 2 leave
// the last two retained, and the collector's run streams and the
// /metrics dump name those two jobs and no other.
func TestStoreCapDropsEvictedJobsTelemetry(t *testing.T) {
	s, ts := startServer(t, Config{QueueCap: 8, Workers: 1, StoreCap: 2})
	var ids []string
	for i := 0; i < 6; i++ {
		resp, data := postJSON(t, ts.URL+"/v1/scenarios", scenarioBody(t, ""))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d: %s", resp.StatusCode, data)
		}
		var st JobStatus
		json.Unmarshal(data, &st)
		ids = append(ids, st.ID)
		if st := waitTerminal(t, ts.URL, st.ID); st.State != StateDone {
			t.Fatalf("job %s ended %s", st.ID, st.State)
		}
	}
	// Each admission evicts down to StoreCap, the new job included.
	retained := map[string]bool{ids[4]: true, ids[5]: true}

	var js bytes.Buffer
	if err := s.coll.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Events map[string]json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for run := range doc.Events {
		id, _, _ := strings.Cut(strings.TrimPrefix(run, "job="), "/")
		if !retained[id] {
			t.Errorf("collector keeps run %q of an evicted job", run)
		}
		seen[id] = true
	}
	_, metrics := getBody(t, ts.URL+"/metrics")
	for _, m := range regexp.MustCompile(`job="([^"]*)"`).FindAllStringSubmatch(string(metrics), -1) {
		if !retained[m[1]] {
			t.Fatalf("/metrics names evicted job %s: %s", m[1], m[0])
		}
		seen["metrics:"+m[1]] = true
	}
	for id := range retained {
		if !seen[id] || !seen["metrics:"+id] {
			t.Errorf("retained job %s: run streams %v, series %v", id, seen[id], seen["metrics:"+id])
		}
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts := startServer(t, Config{QueueCap: 7, Version: "test-9"})
	resp, data := postJSON(t, ts.URL+"/v1/scenarios", scenarioBody(t, ""))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, data)
	}
	var st JobStatus
	json.Unmarshal(data, &st)
	waitTerminal(t, ts.URL, st.ID)

	_, metrics := getBody(t, ts.URL+"/metrics")
	text := string(metrics)
	for _, want := range []string{
		`kar_serve_build_info{go="` + runtime.Version() + `",version="test-9"} 1`,
		`kar_serve_queue_capacity 7`,
		`kar_serve_jobs_total{kind="scenario"} 1`,
		`kar_serve_jobs{state="done"} 1`,
		"kar_serve_job_seconds_bucket",
		// The collected per-job simulation telemetry rides along,
		// labelled by job ID.
		`job="` + st.ID + `"`,
		"kar_udp_sent_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestCollectFalseKeepsMetricsOut(t *testing.T) {
	_, ts := startServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/scenarios", scenarioBody(t, `"collect": false`))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, data)
	}
	var st JobStatus
	json.Unmarshal(data, &st)
	if fin := waitTerminal(t, ts.URL, st.ID); fin.State != StateDone {
		t.Fatalf("job %s (%s)", fin.State, fin.Error)
	}
	_, metrics := getBody(t, ts.URL+"/metrics")
	if strings.Contains(string(metrics), "kar_udp_sent_total") {
		t.Fatal("collect=false job leaked simulation metrics into /metrics")
	}
}

func TestBadRequestsRejected(t *testing.T) {
	_, ts := startServer(t, Config{})
	cases := []struct {
		path, body string
	}{
		{"/v1/scenarios", `{"spec": {"name": "x"}}`},                      // invalid spec
		{"/v1/scenarios", `{"nope": 1}`},                                  // unknown field
		{"/v1/scenarios", `{}`},                                           // no spec
		{"/v1/verify", `{}`},                                              // no topology
		{"/v1/verify", `{"topology": "net15", "routes": "x"}`},            // bad route syntax
		{"/v1/verify", `{"topology": "fattree:4", "protection": "full"}`}, // generated + protection
		{"/v1/verify", `{"topology": "net15", "policies": ["dtreee"]}`},   // unknown policy
		{"/v1/verify", `{"topology": "isp:2048:512:16:1"}`},               // links past the limit
		{"/v1/scenarios", `{"spec": ` + strings.Replace(tinySpec, `"policy": "nip"`, `"policy": "bogus"`, 1) + `}`}, // unknown policy
	}
	for _, c := range cases {
		resp, data := postJSON(t, ts.URL+c.path, strings.NewReader(c.body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %s: %d: %s", c.path, c.body, resp.StatusCode, data)
		}
	}
	if resp, _ := getBody(t, ts.URL+"/v1/jobs/j999999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing job: %d", resp.StatusCode)
	}
}

// A request past an admission limit is refused with a 400 that names
// the limit, before anything is sized from it ("runs": 1e9 used to
// reach make([]RunResult, runs)), and no job is admitted.
func TestAdmissionLimits(t *testing.T) {
	s, ts := startServer(t, Config{})
	specWith := func(field string) string {
		return `{"spec": ` + strings.Replace(tinySpec, `"runs": 2,`, field, 1) + `}`
	}
	cases := []struct {
		name, path, body, want string
	}{
		{"runs override", "/v1/scenarios", `{"spec": ` + tinySpec + `, "runs": 1000000000}`,
			fmt.Sprintf("runs 1000000000 exceeds the limit of %d", maxRuns)},
		{"runs in the spec", "/v1/scenarios", specWith(`"runs": 10001,`),
			fmt.Sprintf("runs 10001 exceeds the limit of %d", maxRuns)},
		{"shards override", "/v1/scenarios", `{"spec": ` + tinySpec + `, "shards": 100000}`,
			fmt.Sprintf("shards 100000 exceeds the limit of %d", maxShards)},
		{"shards in the spec", "/v1/scenarios", specWith(`"runs": 2, "shards": 257,`),
			fmt.Sprintf("shards 257 exceeds the limit of %d", maxShards)},
		{"verify pairs in the spec", "/v1/scenarios", specWith(`"runs": 2, "verify": {"pairs": 100001},`),
			fmt.Sprintf("verify pairs 100001 exceeds the limit of %d", maxPairs)},
		{"verify pairs", "/v1/verify", `{"topology": "net15", "pairs": 2000000000}`,
			fmt.Sprintf("pairs 2000000000 exceeds the limit of %d", maxPairs)},
		{"generated topology in the spec", "/v1/scenarios", specWith(`"runs": 2, "topology": "fattree:100000",`),
			fmt.Sprintf("100000 exceeds the limit of %d", topology.MaxSpecSwitches)},
		{"generated topology", "/v1/verify", `{"topology": "fattree:100000"}`,
			fmt.Sprintf("100000 exceeds the limit of %d", topology.MaxSpecSwitches)},
		{"packets a run", "/v1/scenarios", `{"spec": ` + strings.Replace(tinySpec, `"interval": "1ms"`, `"interval": "1ns"`, 1) + `}`,
			fmt.Sprintf("emit over %d packets a run", scenario.MaxPackets)},
		{"scenario body", "/v1/scenarios", `{"spec": {"name": "` + strings.Repeat("x", maxRequestBytes) + `"}}`,
			fmt.Sprintf("request body exceeds the limit of %d bytes", maxRequestBytes)},
		{"verify body", "/v1/verify", `{"topology": "` + strings.Repeat("x", maxRequestBytes) + `"}`,
			fmt.Sprintf("request body exceeds the limit of %d bytes", maxRequestBytes)},
	}
	for _, c := range cases {
		resp, data := postJSON(t, ts.URL+c.path, strings.NewReader(c.body))
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), c.want) {
			t.Errorf("%s: %d %s; want 400 naming %q", c.name, resp.StatusCode, bytes.TrimSpace(data), c.want)
		}
	}
	if n := s.Registry().SumCounter("kar_serve_jobs_total"); n != 0 {
		t.Errorf("kar_serve_jobs_total = %d after refused requests, want 0", n)
	}
	// At the limits the same requests are admitted.
	resp, data := postJSON(t, ts.URL+"/v1/verify", strings.NewReader(fmt.Sprintf(
		`{"topology": "net15", "routes": "AS1:AS3", "policies": ["nip"], "pairs": %d}`, maxPairs)))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pairs at the limit: %d: %s", resp.StatusCode, data)
	}
	var st JobStatus
	json.Unmarshal(data, &st)
	if fin := waitTerminal(t, ts.URL, st.ID); fin.State != StateDone {
		t.Errorf("pairs at the limit: job %s (%s)", fin.State, fin.Error)
	}
}

// A sweep past resilience.MaxCases, or one naming a policy twice, is
// refused at admission with a 400 naming the limit or the policy, on
// both front doors, and no job is admitted.
func TestVerifyOversizeAndRepeatedPolicyRefused(t *testing.T) {
	s, ts := startServer(t, Config{})
	limit := fmt.Sprintf("exceeds the limit of %d cases", resilience.MaxCases)
	twice := `policy \"nip\" named twice` // JSON-escaped
	// 20 routes under five policies against fattree:16's 2 176 links
	// and 100 000 sampled pairs: 10.2 M cases.
	flows := make([]string, 20)
	for i := range flows {
		flows[i] = fmt.Sprintf(`{"src": "E0", "dst": "E%d"}`, i+1)
	}
	oversize := `{"name": "oversize", "topology": "fattree:16", "policy": "nip", "protection": "auto", "duration": "20ms",
	  "flows": [` + strings.Join(flows, ", ") + `],
	  "verify": {"policies": ["none", "hp", "avp", "nip", "dtree"], "pairs": 100000}}`
	cases := []struct {
		name, path, body, want string
	}{
		// 16 256 routes x 4 policies x 2 176 failure sets.
		{"verify cases", "/v1/verify", `{"topology": "fattree:16"}`, limit},
		{"verify cases in the spec", "/v1/scenarios", `{"spec": ` + oversize + `}`, limit},
		{"policy named twice", "/v1/verify", `{"topology": "net15", "policies": ["nip", "nip"]}`, twice},
		{"policy named twice in the spec", "/v1/scenarios",
			`{"spec": ` + strings.Replace(tinySpec, `"runs": 2,`, `"runs": 2, "verify": {"policies": ["nip", "dtree", "nip"]},`, 1) + `}`, twice},
	}
	for _, c := range cases {
		resp, data := postJSON(t, ts.URL+c.path, strings.NewReader(c.body))
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), c.want) {
			t.Errorf("%s: %d %s; want 400 naming %q", c.name, resp.StatusCode, bytes.TrimSpace(data), c.want)
		}
	}
	if n := s.Registry().SumCounter("kar_serve_jobs_total"); n != 0 {
		t.Errorf("kar_serve_jobs_total = %d after refused requests, want 0", n)
	}
}

// A panicking executor costs its job, not the daemon: the job ends
// failed with the panic text, and the next job on the same worker runs.
func TestPanickingJobFailsAndDaemonSurvives(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 1})
	s.execHook = func(ctx context.Context, j *Job) ([]byte, error) {
		if j.ID == "j000000" {
			panic("counter decremented")
		}
		return []byte("{}\n"), nil
	}
	var states []JobStatus
	for i := 0; i < 2; i++ {
		resp, data := postJSON(t, ts.URL+"/v1/scenarios", scenarioBody(t, ""))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d: %s", i, resp.StatusCode, data)
		}
		var st JobStatus
		json.Unmarshal(data, &st)
		states = append(states, waitTerminal(t, ts.URL, st.ID))
	}
	if states[0].State != StateFailed || states[0].Error != "serve: job panicked: counter decremented" {
		t.Errorf("panicking job: state %s, error %q; want failed with the panic value and no stack", states[0].State, states[0].Error)
	}
	if states[1].State != StateDone {
		t.Errorf("job after the panic: %s (%s)", states[1].State, states[1].Error)
	}
}

// Scenario bodies that used to take the daemon down — a negative flow
// size panicked a counter fold on the executor goroutine, a negative
// interval re-armed the sender at one virtual instant for ever, out of
// reach of DELETE and the drain deadline — are refused at admission,
// and the daemon stays ready.
func TestHostileScenarioBodiesRejected(t *testing.T) {
	_, ts := startServer(t, Config{})
	for _, flow := range []string{
		`{"src": "AS1", "dst": "AS3", "size": -5}`,
		`{"src": "AS1", "dst": "AS3", "interval": "-1ms"}`,
	} {
		body := `{"spec": {"name": "hostile", "topology": "net15", "policy": "nip", "duration": "20ms", "flows": [` + flow + `]}}`
		resp, data := postJSON(t, ts.URL+"/v1/scenarios", strings.NewReader(body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("flow %s: %d: %s", flow, resp.StatusCode, data)
		}
		if resp, _ := getBody(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
			t.Fatalf("daemon not ready after flow %s: %d", flow, resp.StatusCode)
		}
	}
}

// A scenario whose typo only the topology exposes — a bad injector
// parameter, an unknown link, a flow from a node the topology lacks —
// is refused at admission with a 400 naming the field, as /v1/verify
// refuses its typos, not admitted to fail later as a job.
func TestScenarioTyposRejectedAtAdmission(t *testing.T) {
	s, ts := startServer(t, Config{})
	cases := []struct{ old, new, want string }{
		{`{"kind": "link_cut", "link": ["SW7", "SW13"], "start": "5ms", "duration": "5ms"}`,
			`{"kind": "flap", "link": ["SW7", "SW13"], "start": "5ms", "window": "10ms", "period": "0s", "duty": 0.5}`,
			"injection 0: fault: flap SW7-SW13: period 0s must be positive"},
		{`"link": ["SW7", "SW13"]`, `"link": ["SW7", "SW99"]`, "injection 0: fault: link_cut: no link SW7-SW99"},
		{`"src": "AS1"`, `"src": "AS9"`, `flow 0: src \"AS9\" is not an edge node of net15`}, // JSON-escaped
	}
	for _, c := range cases {
		body := `{"spec": ` + strings.Replace(tinySpec, c.old, c.new, 1) + `}`
		resp, data := postJSON(t, ts.URL+"/v1/scenarios", strings.NewReader(body))
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), c.want) {
			t.Errorf("%s: %d %s; want 400 naming %q", c.new, resp.StatusCode, bytes.TrimSpace(data), c.want)
		}
	}
	if n := s.Registry().SumCounter("kar_serve_jobs_total"); n != 0 {
		t.Errorf("kar_serve_jobs_total = %d after refused requests, want 0", n)
	}
}

// settleGoroutines polls until the goroutine count is back near base.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		n := runtime.NumGoroutine()
		if n <= base+4 { // httptest + http client keep-alives settle slowly
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d at baseline", n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
