package experiment

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/topology"
)

// net15Cell is a Fig. 5 cell over the given graph builder.
func net15Cell(graph func() (*topology.Graph, error), policy string) sweepCell {
	return sweepCell{run: TCPRunConfig{Graph: graph, Policy: policy, Src: "AS1", Dst: "AS3", TCP: net15TCP()}}
}

// TestRunSweepOverlapsCellsAtOneRun: the pool is over (cell × run), so
// a one-run sweep still fills its workers — the shape of `karsim -exp
// fig5 -runs 1`, of both ablations and of the benchmark's failover
// workload. Each cell's graph builder waits until the other cell is
// inside it too; a sweep that walks its cells in sequence never opens
// the barrier.
func TestRunSweepOverlapsCellsAtOneRun(t *testing.T) {
	var (
		mu     sync.Mutex
		inside int
		open   = make(chan struct{})
	)
	graph := func() (*topology.Graph, error) {
		mu.Lock()
		if inside++; inside == 2 {
			close(open)
		}
		mu.Unlock()
		select {
		case <-open:
		case <-time.After(2 * time.Second):
			return nil, errors.New("the other cell never started")
		}
		return topology.Net15()
	}
	cfg := RepeatConfig{Runs: 1, RunDuration: 100 * time.Millisecond, Workers: 2}
	if _, err := runSweep(cfg, []sweepCell{net15Cell(graph, "nip"), net15Cell(graph, "avp")}); err != nil {
		t.Fatalf("a one-run sweep of two cells ran them one at a time: %v", err)
	}
}

// TestRunSweepErrorIsLowestCell: with two invalid cells the sweep
// reports the earlier one's error whatever the worker count, as the
// cell-major loop did.
func TestRunSweepErrorIsLowestCell(t *testing.T) {
	cells := make([]sweepCell, 6)
	for c := range cells {
		cells[c] = net15Cell(topology.Net15, "nip")
		cells[c].seedOffset = int64(c)
	}
	cells[2].run.Policy = "no-such-policy"
	cells[5].run.Transport = "no-such-transport"
	for _, workers := range []int{1, 4} {
		cfg := RepeatConfig{Runs: 2, RunDuration: 50 * time.Millisecond, Workers: workers}
		_, err := runSweep(cfg, cells)
		if err == nil || !strings.Contains(err.Error(), "no-such-policy") {
			t.Errorf("workers=%d: error %v, want cell 2's unknown policy", workers, err)
		}
	}
}

// TestFig5CellAllocBudget is the allocation ceiling of the deflected
// path, on the Fig. 5 cell that re-encodes most: SW13-SW29 down, partial
// protection, NIP — 16 073 misdeliveries in 2 s. It allocates at most 6
// objects per 1 000 delivered hops (2.3 measured; 36 while each
// re-encode was a closure), so a per-packet allocation on that path
// fails here instead of waiting for a benchmark run.
func TestFig5CellAllocBudget(t *testing.T) {
	pairs, err := net15Protection("partial")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := RunTCP(TCPRunConfig{
		Graph: topology.Net15, Policy: "nip", Src: "AS1", Dst: "AS3", TCP: net15TCP(), Seed: 7,
		Protection: pairs, ReverseBitBudget: reverseBudget("partial"),
		Failures: []FailureSpec{{A: "SW13", B: "SW29", Duration: 2 * time.Second}},
		Duration: 2 * time.Second,
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	hops := res.Metrics.SumCounter("kar_net_delivered_total")
	if reencodes := res.Metrics.SumCounter("kar_edge_reencode_total"); reencodes < 10_000 {
		t.Fatalf("%d re-encodes over %d hops: the cell does not exercise the re-encode path", reencodes, hops)
	}
	perKhop := float64(after.Mallocs-before.Mallocs) / float64(hops) * 1000
	t.Logf("%d allocations over %d hops: %.2f per 1000", after.Mallocs-before.Mallocs, hops, perKhop)
	if perKhop > 6 {
		t.Errorf("%.2f allocations per 1000 hops, budget 6", perKhop)
	}
}
