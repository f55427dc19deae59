#!/bin/sh
# Repository quality gates beyond Tier-1 (go build ./... && go test ./...,
# which holds the design rules of guards_test.go and every CLI golden):
# vet, gofmt, build, race-enabled tests (the determinism matrix among
# them), fuzz exploration from the committed corpora, the benchmark
# module's vet and tests, and the daemon and benchmark smokes.
set -eu

cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

echo "==> fuzz the scheduler queue against a sorted reference (10 s)"
# The committed corpus (internal/simnet/testdata/fuzz) runs with every
# go test; this explores from it: random programs of post / train append
# / re-key / pop over the calendar's bucket and horizon edges.
go test -run '^$' -fuzz FuzzSchedulerOrder -fuzztime 10s ./internal/simnet

echo "==> fuzz the hop-count search against Dijkstra (10 s)"
# rand: topologies and endpoints from the committed corpus
# (internal/topology/testdata/fuzz): the bidirectional search ≡ the
# test-only Dijkstra oracle, with every link usable and with a seeded
# sixth of the links avoided.
go test -run '^$' -fuzz FuzzHopSearch -fuzztime 10s ./internal/topology

echo "==> fuzz xrand's stream against math/rand's (10 s)"
# Arbitrary (seed, length) from the committed corpus, which pins the
# stateless/materialised/steady transitions at draws 273 and 607.
go test -run '^$' -fuzz FuzzStream -fuzztime 10s ./internal/xrand

echo "==> fuzz scenario admission against world setup (10 s)"
# From the committed corpus (internal/scenario/testdata/fuzz): Parse
# never panics, and a spec it accepts sets up its world without error.
go test -run '^$' -fuzz FuzzParse -fuzztime 10s ./internal/scenario

echo "==> gofmt -l"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "FAIL: gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go build ./..."
go build ./...

echo "==> results_full.txt regenerates byte for byte (~80 s)"
# EXPERIMENTS.md's command for the committed full run: a change that
# moves a figure number must regenerate the file and reconcile
# EXPERIMENTS.md in the same commit.
full="$(mktemp)"
go run ./cmd/karsim -exp all -runs 30 -duration 6s -workers 16 -seed 7 >"$full"
if ! cmp "$full" results_full.txt; then
    rm -f "$full"
    echo "FAIL: results_full.txt does not match a fresh -exp all run" >&2
    exit 1
fi
rm -f "$full"

echo "==> go test -race ./internal/trace/... ./internal/telemetry/... ./internal/topology/... ./internal/coprime/..."
# Fast-fail the observability packages first: the flight recorder and
# telemetry registry are the pieces every other gate below depends on.
# The graph and its ID allocator follow: every world, and every job on a
# Shared graph, reads the slab-built links and port tables.
go test -race ./internal/trace/... ./internal/telemetry/... ./internal/topology/... ./internal/coprime/...
go test -race -count=10 -run 'LinkNameConcurrent' ./internal/topology

echo "==> go test -race: sharded driver, failover path"
# Fast-fail the sharded driver next: lane-owned telemetry cells, the
# mid-window flush guard, the queue's barrier push and the trains are
# where a data race would be, and these tests take seconds where the
# full pass takes ~20 minutes.
# With them the packet caches and the failover path: the link and
# handler tables, the switch slow path, the edge's re-encode queue, and
# the sweep pool, whose workers run different cells' worlds side by
# side and close them into the shared packet and ring depots. A race
# in the hand-off between the caller, the crew's workers pulling lanes
# and the inboxes shows only in some interleavings, so the shard tests
# run five times over, with the Bind test (a cut link's receiver reads
# the endpoint Bind resolved from another lane) and the Close test (a
# sharded world closed mid-flight). The FlowSet pattern takes in
# TestFlowSetSeqSpillsPast255: two pumps on different lanes, each
# counting its flows' packets in its own bytes and, past 255, widening
# them into its own four-byte counts; and
# TestFlowSetDeliveredBitsAcrossLanes: receivers on four lanes setting
# delivered bits in one array, adjacent pairs on different lanes, where
# a pair's bits that did not start a word of their own would race.
go test -race -count=5 -run 'Shard|Window|FlowSet|Train' ./internal/udpsim/
go test -race -count=5 -run 'Shard|Window|Train|Bind|Close' ./internal/simnet
go test -race ./internal/simnet ./internal/kswitch ./internal/edge ./internal/packet
go test -race -run 'RunSweep|DeterminismMatrix/(fig4-metrics|fig5-sweep|fig7-sweep|reno-ablation)' ./internal/experiment .
# The verifier's workers share one pre-warmed controller, read-only, and
# each grows its own units' search trees, the no-failure roots included;
# the controller's reaction scans its route table.
go test -race -count=3 -run 'Sweep|Descent|Branch|Reencode|Churn|Reroute' ./internal/resilience ./internal/controller

echo "==> heap, allocation and delivered-bit gates"
# Fast-fail the large world's live heap (fattree:28, 10^6 flows, under
# its 10.0 MB ceiling), a warm Fig. 5 cell's allocation count and the
# flow set's delivered bits across lanes before the long race pass.
go test -run 'LargeWorldHeapBudget|RunTCPAllocationBudget|DeliveredBits' ./internal/experiment ./internal/udpsim

echo "==> benchmark module: go vet and go test in bench/ (~20 s)"
# bench/ is a module of its own, so go build ./... never compiles it: a
# main-module change that breaks the frozen benchmark fails here, with
# the commands of make bench-test, rather than in a benchmark run.
(cd bench && go vet ./... && go test ./...)

echo "==> go test -race ./..."
# The experiment package replays whole figure sweeps; under the race
# detector (~10x slowdown) that outgrows go test's default 10-minute
# budget by a wide margin.
go test -race -timeout 120m ./...

echo "==> serve daemon smoke (byte identity vs batch CLI, drain)"
sh scripts/serve_smoke.sh

echo "==> benchmark smoke (BenchmarkTable1EncodingSize, 100 iterations)"
# Proves the root benchmark harness still compiles and executes; the
# benchmark that is evidence for performance is bench/ (make bench-run).
go test -run '^$' -bench 'BenchmarkTable1EncodingSize' -benchtime 100x .

echo "ALL CHECKS PASSED"
