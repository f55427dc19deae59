// Under the race detector sync.Pool deliberately bypasses itself
// (poolRaceHash), so the path search's pooled scratch makes allocation
// counts meaningless there; the assertions run in every non-race
// `go test ./...`.
//go:build !race

package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestSmallJobAllocationBudget holds what a warm daemon job allocates,
// the process over — admission, queue, world, run, event stream and
// result — as TestRunTCPAllocationBudget holds a Fig. 5 cell: a small
// scenario job and a Net15 verify job, each submitted, followed to its
// end on the NDJSON stream and fetched through Server.Handler(). Both
// read routes their first run put in the graph's route book: a small
// job allocates ~386 objects (~424 encoding every route and decoding
// durations through encoding/json), a verify job ~537 (~810).
func TestSmallJobAllocationBudget(t *testing.T) {
	s := New(Config{JobWorkers: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	h := s.Handler()
	serve := func(method, target, body string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		if rec.Code != http.StatusOK && rec.Code != http.StatusAccepted {
			t.Fatalf("%s %s: %d %s", method, target, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	for _, job := range []struct {
		name, path, body string
		ceiling          float64
	}{
		{"small scenario", "/v1/scenarios", `{"spec": ` + smallJobSpec + `, "workers": 1, "seed": 7, "collect": false}`, 405},
		{"net15 verify", "/v1/verify", `{"topology": "net15", "protection": "auto", "policies": ["nip", "dtree"],
			"pairs": 100, "seed": 7, "workers": 1, "collect": false}`, 600},
	} {
		run := func() {
			status := serve("POST", job.path, job.body)
			_, id, _ := strings.Cut(status, `"id": "`)
			id, _, _ = strings.Cut(id, `"`)
			events := serve("GET", "/v1/jobs/"+id+"/events?format=ndjson", "")
			if !strings.HasSuffix(events, `"state":"done","kind":"state","run":0}`+"\n") {
				t.Fatalf("%s: stream of job %q does not end done: %s", job.name, id, events)
			}
			serve("GET", "/v1/jobs/"+id+"/result", "")
		}
		run() // warm: topology cache, route book, pools
		if n := testing.AllocsPerRun(20, run); n > job.ceiling {
			t.Errorf("%s job allocates %.0f objects, want <= %.0f", job.name, n, job.ceiling)
		} else {
			t.Logf("%s job allocates %.0f objects (ceiling %.0f)", job.name, n, job.ceiling)
		}
	}
}
