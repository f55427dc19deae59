package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/telemetry"
)

// cancelSpec is a multi-run, multi-phase scenario long enough that
// cancellation always lands mid-execution.
func cancelSpec() *Spec {
	return &Spec{
		Name:     "cancel-probe",
		Topology: "net15",
		Policy:   "nip",
		Seed:     7,
		Runs:     6,
		Duration: Duration(200 * time.Millisecond),
		Flows: []Flow{
			{Src: "AS1", Dst: "AS3", Interval: Duration(200 * time.Microsecond)},
			{Src: "AS2", Dst: "AS1", Interval: Duration(200 * time.Microsecond)},
		},
		Phases: []Phase{
			{Name: "early", Until: Duration(50 * time.Millisecond)},
			{Name: "mid", Until: Duration(100 * time.Millisecond)},
			{Name: "late", Until: Duration(150 * time.Millisecond)},
		},
	}
}

// settleGoroutines polls until the goroutine count is back at or below
// base plus a small runtime tolerance.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d at baseline", n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRunContextCancelStopsAtPhaseBoundary(t *testing.T) {
	spec := cancelSpec()
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel from the first phase milestone: every in-flight world must
	// stop at its next boundary instead of finishing the run, and no
	// further runs may start.
	var once sync.Once
	v, err := RunContext(ctx, spec, RunOptions{
		Workers: 3,
		Progress: func(ev ProgressEvent) {
			if ev.Kind == "phase" {
				once.Do(cancel)
			}
		},
	})
	if v != nil {
		t.Fatal("cancelled scenario returned a partial verdict")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	settleGoroutines(t, base)
}

func TestRunContextMatchesRun(t *testing.T) {
	spec := cancelSpec()
	spec.Runs = 2
	collA, collB := telemetry.NewCollector(), telemetry.NewCollector()
	va, err := RunContext(context.Background(), spec, RunOptions{Workers: 2, Metrics: collA})
	if err != nil {
		t.Fatal(err)
	}
	vb, err := Run(spec, RunOptions{Workers: 1, Metrics: collB})
	if err != nil {
		t.Fatal(err)
	}
	if len(va.Runs) != len(vb.Runs) {
		t.Fatalf("run counts differ: %d vs %d", len(va.Runs), len(vb.Runs))
	}
	for i := range va.Runs {
		a, b := va.Runs[i], vb.Runs[i]
		if a.Sent != b.Sent || a.Delivered != b.Delivered || a.Deflections != b.Deflections {
			t.Fatalf("run %d diverged across RunContext and Run: %+v vs %+v", i, a, b)
		}
	}
}

func TestRunContextProgressMilestones(t *testing.T) {
	spec := cancelSpec()
	spec.Runs = 1
	var mu sync.Mutex
	var kinds []string
	var phases []string
	v, err := RunContext(context.Background(), spec, RunOptions{
		Workers: 1,
		Progress: func(ev ProgressEvent) {
			mu.Lock()
			defer mu.Unlock()
			kinds = append(kinds, ev.Kind)
			if ev.Kind == "phase" {
				phases = append(phases, ev.Phase.Name)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Pass {
		t.Fatalf("probe scenario failed: %+v", v.Runs[0].Violations)
	}
	if len(kinds) == 0 || kinds[0] != "run_start" || kinds[len(kinds)-1] != "run_done" {
		t.Fatalf("milestones must open with run_start and close with run_done, got %v", kinds)
	}
	want := []string{"early", "mid", "late"}
	if len(phases) != len(want) {
		t.Fatalf("phase milestones = %v, want %v", phases, want)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("phase milestones out of order: %v", phases)
		}
	}
	// Live phase deltas must equal the verdict's post-run accounting.
	for i, p := range v.Runs[0].Phases {
		if p.Name != want[i] {
			t.Fatalf("verdict phase %d = %q, want %q", i, p.Name, want[i])
		}
	}
}

func TestRunMetricPrefixAndExtraLabels(t *testing.T) {
	spec := cancelSpec()
	spec.Runs = 1
	coll := telemetry.NewCollector()
	_, err := Run(spec, RunOptions{
		Workers: 1,
		Metrics: coll,
		Job:     "j000042",
	})
	if err != nil {
		t.Fatal(err)
	}
	var js bytes.Buffer
	if err := coll.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Events map[string]json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var labels []string
	for run := range doc.Events {
		labels = append(labels, run)
	}
	if len(labels) != 1 {
		t.Fatalf("collector holds %d runs, want 1: %v", len(labels), labels)
	}
	const want = "job=j000042/scenario/cancel-probe/run=0/seed=7"
	if labels[0] != want {
		t.Fatalf("collector label = %q, want %q", labels[0], want)
	}
	var dump strings.Builder
	if err := coll.WritePrometheus(&dump); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dump.String(), `job="j000042"`) {
		t.Error(`run metrics carry no job="j000042" label`)
	}
}

// BenchmarkJobWorldConstruction pins the per-job world construction
// cost the serve daemon pays on every queued scenario: topology through
// the shared cache (hit path), then full world wiring.
func BenchmarkJobWorldConstruction(b *testing.B) {
	g, err := BuildTopology("net15")
	if err != nil {
		b.Fatal(err)
	}
	policy, err := experiment.PolicyByName("nip")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cached, err := BuildTopology("net15")
		if err != nil {
			b.Fatal(err)
		}
		if cached != g {
			b.Fatal("topology cache missed on a hot key")
		}
		w := experiment.NewWorld(cached, policy, int64(i))
		if len(w.Switches) == 0 {
			b.Fatal("world has no switches")
		}
	}
}
