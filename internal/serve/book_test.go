package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/topology"
)

// smallJobSpec is the daemon benchmark's small job: Net15, one flow,
// a 5 ms link cut, 20 ms of traffic.
const smallJobSpec = `{
  "name": "karload",
  "topology": "net15",
  "policy": "nip",
  "seed": 1,
  "runs": 1,
  "duration": "20ms",
  "drain": "10ms",
  "flows": [{"src": "AS1", "dst": "AS3", "interval": "1ms"}],
  "phases": [{"name": "steady", "until": "10ms"}, {"name": "tail", "until": "20ms"}],
  "injections": [{"kind": "link_cut", "link": ["SW7", "SW13"], "start": "5ms", "duration": "5ms"}]
}`

// The graphs' route books change no byte a job produces: the same jobs
// on cold graphs (a fresh graph cache, so every book starts empty) and
// again on the graphs they left warm give the same scenario verdicts,
// the same verify report and the same collected Prometheus and JSON
// dumps. The jobs are the daemon benchmark's kinds: Net15 with a cut,
// RNP28 with canned protection, fattree:4 with planned protection, and
// a Net15 auto-protection sweep.
func TestRouteBookColdAndWarmMatch(t *testing.T) {
	saved := topology.SharedGraphs
	topology.SharedGraphs = topology.NewGraphCache(64)
	t.Cleanup(func() { topology.SharedGraphs = saved })
	const graySpec = `{"name": "gray", "topology": "rnp28", "policy": "nip", "protection": "partial", "seed": 3,
  "runs": 1, "duration": "60ms", "drain": "20ms",
  "flows": [{"src": "EDGE-N", "dst": "EDGE-SP", "interval": "1ms", "size": 1500}],
  "injections": [{"kind": "gray", "link": ["SW13", "SW41"], "start": "10ms", "window": "40ms", "drop_prob": 0.3}]}`
	const flapSpec = `{"name": "flap", "topology": "fattree:4", "policy": "dtree", "protection": "auto", "seed": 5,
  "runs": 1, "duration": "60ms", "drain": "20ms",
  "flows": [{"src": "E0", "dst": "E7", "interval": "500us", "size": 1000}],
  "injections": [{"kind": "exp_flap", "link": ["T0_0", "A0_0"], "start": "10ms", "window": "40ms", "mean_down": "5ms", "mean_up": "5ms"}]}`
	jobs := []struct{ path, body string }{
		{"/v1/scenarios", `{"spec": ` + smallJobSpec + `, "seed": 7}`},
		{"/v1/scenarios", `{"spec": ` + graySpec + `}`},
		{"/v1/scenarios", `{"spec": ` + flapSpec + `}`},
		{"/v1/verify", `{"topology": "net15", "protection": "auto", "policies": ["nip", "dtree"], "pairs": 100, "seed": 7}`},
	}
	pass := func() [][]byte {
		s := New(Config{JobWorkers: 1})
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		}()
		h := s.Handler()
		var out [][]byte
		for _, job := range jobs {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", job.path+"?wait=1", strings.NewReader(job.body)))
			_, id, _ := strings.Cut(rec.Body.String(), `"id": "`)
			id, _, _ = strings.Cut(id, `"`)
			if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"state": "done"`) {
				t.Fatalf("%s: %d %s", job.path, rec.Code, rec.Body)
			}
			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+id+"/result", nil))
			out = append(out, rec.Body.Bytes())
		}
		var prom, js bytes.Buffer
		if err := s.coll.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		if err := s.coll.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return append(out, prom.Bytes(), js.Bytes())
	}
	cold, warm := pass(), pass()
	names := []string{"small verdict", "gray verdict", "flap verdict", "verify report", "Prometheus dump", "JSON dump"}
	for i, name := range names {
		if len(cold[i]) == 0 || !bytes.Equal(cold[i], warm[i]) {
			t.Errorf("%s: %d bytes cold, %d warm, equal %v", name, len(cold[i]), len(warm[i]), bytes.Equal(cold[i], warm[i]))
		}
	}
}
