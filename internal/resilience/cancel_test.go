package resilience

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/topology"
)

// settleGoroutines polls until the goroutine count is back at or below
// base (a small tolerance covers runtime helpers), failing after a
// generous deadline.
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

func TestSweepContextCancelStopsPromptly(t *testing.T) {
	g, err := topology.Net15()
	if err != nil {
		t.Fatal(err)
	}
	routes, err := AllPairRoutes(g)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	// Cancel mid-sweep, from the first progress callback (the first
	// failure set of 73 to complete): every worker must stop at its next
	// route boundary and the pool must drain.
	cfg := Config{
		Policies: []string{"none", "hp", "avp", "nip"},
		Pairs:    50,
		Workers:  4,
		Progress: func(done, total int) { cancel() },
	}
	rep, err := SweepContext(ctx, g, routes, cfg)
	if rep != nil {
		t.Fatal("cancelled sweep returned a partial report")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	settleGoroutines(t, base)
}

func TestSweepContextNilAndBackgroundComplete(t *testing.T) {
	g, err := topology.Net15()
	if err != nil {
		t.Fatal(err)
	}
	routes := []RouteSpec{{Src: "AS1", Dst: "AS3"}}
	repA, err := SweepContext(nil, g, routes, Config{Policies: []string{"none"}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	repB, err := Sweep(g, routes, Config{Policies: []string{"none"}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if repA.Cases != repB.Cases || len(repA.Scores) != len(repB.Scores) {
		t.Fatalf("context sweep diverged: %d/%d cases, %d/%d scores",
			repA.Cases, repB.Cases, len(repA.Scores), len(repB.Scores))
	}
	for i := range repA.Scores {
		if repA.Scores[i] != repB.Scores[i] {
			t.Fatalf("score %d differs across Sweep and SweepContext", i)
		}
	}
}

func TestSweepProgressReachesTotal(t *testing.T) {
	g, err := topology.Net15()
	if err != nil {
		t.Fatal(err)
	}
	routes := []RouteSpec{{Src: "AS1", Dst: "AS3"}, {Src: "AS1", Dst: "AS2"}}
	const failureSets = 23 + 10 // Net15's links and the pair samples
	var calls, last int
	rep, err := Sweep(g, routes, Config{
		Policies: []string{"none", "nip"},
		Pairs:    10,
		Workers:  1, // single worker keeps the callback sequential
		Progress: func(done, total int) {
			// One call per completed (route, policy) unit, each worth
			// every failure set of it.
			if done <= last || done > total || done%failureSets != 0 {
				t.Errorf("progress %d/%d after %d", done, total, last)
			}
			calls++
			last = done
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if last != rep.Cases {
		t.Fatalf("progress reached %d, want %d cases", last, rep.Cases)
	}
	if want := len(routes) * 2; calls != want {
		t.Fatalf("%d progress callbacks for %d (route, policy) units", calls, want)
	}
}

// A sweep whose context is cancelled before it starts returns
// context.Canceled from set-up, before it installs the routes: the last
// route (in install order) names a node the topology lacks, so a sweep
// that installed the routes first would fail on it instead.
func TestSweepCancelledBeforeStartInstallsNothing(t *testing.T) {
	g, err := topology.Shared("fattree:8")
	if err != nil {
		t.Fatal(err)
	}
	routes, err := AllPairRoutes(g)
	if err != nil {
		t.Fatal(err)
	}
	routes = append(routes, RouteSpec{Src: "ZZ", Dst: "E0"})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	progressed := false
	rep, err := SweepContext(ctx, g, routes, Config{
		Policies: []string{"nip"}, AutoProtect: true,
		Progress: func(int, int) { progressed = true },
	})
	if rep != nil || !errors.Is(err, context.Canceled) || progressed {
		t.Fatalf("cancelled sweep: report %v, err %v, progressed %v; want context.Canceled and nothing run", rep != nil, err, progressed)
	}
	if _, err := buildController(ctx, g, routes, nil, true); !errors.Is(err, context.Canceled) {
		t.Fatalf("buildController under a cancelled context: %v", err)
	}
}
