#!/bin/sh
# Repository quality gates: vet, gofmt, build, race-enabled tests (the
# determinism matrix among them), then the CLI framing of what the
# tests hold in-process — a well-formed fig4 -metrics dump, the trace
# export files, the verifier's exit codes, series counts — and the
# daemon, scenario and benchmark smokes.
set -eu

cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

echo "==> a deflection policy is defined in internal/deflect alone"
# The switch fast path, the chain and the sweep read a policy's shape;
# only the sweep's default-policy list names policies outside deflect.
if grep -nE '"(hp|avp|nip|dtree)"|deflect\.(None|HotPotato|AnyValidPort|NotInputPort|DTree)\b' \
    $(ls internal/kswitch/*.go internal/analysis/*.go internal/resilience/*.go | grep -v _test.go) |
    grep -v 'policies = \[\]string{"none", "hp", "avp", "nip"}'; then
    echo "FAIL: a policy is named outside internal/deflect" >&2
    exit 1
fi

echo "==> a generator is seeded in internal/xrand alone"
# xrand.Source is math/rand's stream without the 607-word seeding pass;
# a rand.NewSource in library code pays it again, per world.
if grep -rn --include='*.go' 'rand\.NewSource(' . | grep -v '_test\.go:' | grep -v '^\./internal/xrand/' | grep -v '^\./bench/'; then
    echo "FAIL: rand.NewSource outside internal/xrand (use xrand.New / xrand.Source)" >&2
    exit 1
fi

echo "==> the switch and the policies draw from xrand alone"
# A deflecting switch hands its xrand.Source to the policy as a
# deflect.Rand; a math/rand import there is a rand.Rand back on the
# deflected hop (tests compare against math/rand and may import it).
if grep -ln '"math/rand"' $(ls internal/kswitch/*.go internal/deflect/*.go | grep -v _test.go); then
    echo "FAIL: math/rand imported in non-test internal/kswitch or internal/deflect" >&2
    exit 1
fi

echo "==> one front door: package main only under cmd/karsim, examples/ and bench/"
# Every user-facing entry point is a row of cmd/karsim's experiment or
# verb table; a second binary is a second flag grammar nobody tests.
if grep -rl --include='*.go' '^package main$' . | grep -vE '^\./(cmd/karsim|examples|bench)/'; then
    echo "FAIL: package main outside cmd/karsim, examples/ and bench/" >&2
    exit 1
fi

echo "==> switch IDs are assigned in internal/topology alone"
# The ID rule sets the route-ID header budget; every generated graph
# gets its IDs from topology's one builder (bench/ times the kernel).
if grep -rln --include='*.go' '"repro/internal/coprime"' . | grep -v '_test\.go$' | grep -vE '^\./(internal/topology|bench)/'; then
    echo "FAIL: internal/coprime imported outside internal/topology" >&2
    exit 1
fi

echo "==> one TCP run engine, one reactive control plane"
# Every TCP figure is a list of cells run through runSweep, and the
# reactive controller is World.ReactAfter: a second caller of RunTCP or
# of the link-detection hook is a second definition that can drift.
if grep -rn --include='*.go' 'RunTCP(' . | grep -v '_test\.go:' | grep -v 'func RunTCP(' |
    grep -v '^\./internal/experiment/experiments\.go:[0-9]*:		res, err := RunTCP(run)$'; then
    echo "FAIL: RunTCP called outside runSweep" >&2
    exit 1
fi
if grep -rn --include='*.go' 'SetLinkDetectionHook(' . | grep -v '_test\.go:' |
    grep -vE '^\./internal/(simnet/|experiment/world\.go:)'; then
    echo "FAIL: SetLinkDetectionHook called outside internal/simnet and World.ReactAfter" >&2
    exit 1
fi

echo "==> a job request is declared by the engine that runs it"
# scenario.Request and resilience.Request are what every front door
# builds: karsim's flags and the daemon's bodies. internal/serve names
# them with two aliases; a request struct of its own is a second
# resolution that can drift from the CLI's.
serve_go=$(ls internal/serve/*.go | grep -v _test.go)
if grep -nE 'Request[[:space:]]+struct' $serve_go ||
    ! grep -qx 'type ScenarioRequest = scenario.Request' $serve_go ||
    ! grep -qx 'type VerifyRequest = resilience.Request' $serve_go; then
    echo "FAIL: internal/serve declares a request struct, or lost its aliases of scenario.Request and resilience.Request" >&2
    exit 1
fi

echo "==> packets are made and recycled on their lane"
# A traffic source takes its packets from its node's lane cache
# (Clock.NewPacket) and a sink hands them back there (Clock.Recycle,
# Network.Drop); the depot behind the caches is internal/packet's own,
# and bench/ times it directly. Tests elsewhere go through a lane too.
if grep -rnE --include='*.go' 'packet\.Get\(|\.Release\(\)' . | grep -vE '^\./(internal/packet|bench)/'; then
    echo "FAIL: packet.Get or Packet.Release outside internal/packet (use Clock.NewPacket / Clock.Recycle)" >&2
    exit 1
fi

echo "==> internal/simnet starts goroutines in one place: the crew"
# A sharded world's lanes run on the crew's workers, the caller and
# shards-1 goroutines pulling lanes each window (shard.go, hire); a
# second go statement is a second crew beside the pool.
spawns=$(grep -nE '^[[:space:]]*go [A-Za-z_(]' $(ls internal/simnet/*.go | grep -v _test.go) || true)
if [ "$(printf '%s\n' "$spawns" | grep -c '^internal/simnet/shard\.go:')" != 1 ] ||
    [ "$(printf '%s\n' "$spawns" | grep -c .)" != 1 ]; then
    echo "FAIL: want exactly one go statement in non-test internal/simnet (crew.hire), found:" >&2
    printf '%s\n' "$spawns" >&2
    exit 1
fi

echo "==> hop-count searches take one path"
# A nil weight is the bidirectional hop-count search; HopWeight makes
# the same search a whole-graph Dijkstra, the hop search's test oracle.
# tablefwd's default, the planner's tree weight and the controller's
# failed-link closure keep HopWeight: none is a ShortestPath call.
if grep -rnE --include='*.go' '(Append)?ShortestPath\(.*topology\.HopWeight' . | grep -v '_test\.go:' | grep -v '^\./internal/topology/'; then
    echo "FAIL: a ShortestPath/AppendShortestPath call passes topology.HopWeight (pass nil for hop count)" >&2
    exit 1
fi

echo "==> a route ID is encoded by core.EncodeRoute alone"
# Every route ID is core.EncodeRoute → rns.NewSystem, with no basis
# cache in front: core.NewEncoder is a stateless shim bench/ pins, and
# kar.go's NewRNS and examples/quickstart build a System for display.
if grep -rnE --include='*.go' '(^|[^.[:alnum:]_])NewEncoder\(|core\.NewEncoder\(' . | grep -v '_test\.go:' |
    grep -v '^\./bench/' | grep -v '^\./internal/core/encoder\.go:[0-9]*:func NewEncoder()'; then
    echo "FAIL: core.NewEncoder called outside bench/ (call core.EncodeRoute)" >&2
    exit 1
fi
if grep -rn --include='*.go' 'rns\.NewSystem(' internal | grep -v '_test\.go:' | grep -vE '^internal/(rns|core)/'; then
    echo "FAIL: rns.NewSystem called under internal/ outside internal/rns and internal/core" >&2
    exit 1
fi

echo "==> the control plane starts no goroutine"
# Reroute batches hold a few routes: the controller recomputes them in
# the caller, and the planner's tree cache, read only from there and
# under reencMu, needs no lock of its own.
ctrl_go=$(ls internal/controller/*.go | grep -v _test.go)
core_go=$(ls internal/core/*.go | grep -v _test.go)
if grep -nE '^[[:space:]]*go [A-Za-z_(]|"repro/internal/par"' $ctrl_go || grep -n '"sync"' $core_go; then
    echo "FAIL: a go statement or internal/par in non-test internal/controller, or sync in non-test internal/core" >&2
    exit 1
fi

echo "==> the recorder is attached through SetTraceSink alone"
# Network.SetTraceSink sets the sink and the event log's tap together,
# and nil detaches both; a second SetTap caller is an observer
# SetTraceSink(nil) leaves behind.
if grep -rn --include='*.go' 'SetTap(' . | grep -v '_test\.go:' | grep -vE '^\./internal/(simnet|telemetry)/'; then
    echo "FAIL: SetTap called outside internal/simnet and internal/telemetry (use Network.SetTraceSink)" >&2
    exit 1
fi

echo "==> controller.WithWorkers only in bench/"
# WithWorkers is a no-op kept for bench/'s frozen callers; it goes with
# the next benchmark change.
if grep -rn --include='*.go' 'WithWorkers(' . | grep -v '_test\.go:' | grep -v '^\./bench/' |
    grep -v '^\./internal/controller/controller\.go:[0-9]*:func WithWorkers('; then
    echo "FAIL: controller.WithWorkers called outside bench/" >&2
    exit 1
fi

echo "==> fuzz the scheduler queue against a sorted reference (10 s)"
# The committed corpus (internal/simnet/testdata/fuzz) runs with every
# go test; this explores from it: random programs of post / train append
# / re-key / pop over the calendar's bucket and horizon edges.
go test -run '^$' -fuzz FuzzSchedulerOrder -fuzztime 10s ./internal/simnet

echo "==> fuzz the hop-count search against Dijkstra (10 s)"
# rand: topologies and endpoints from the committed corpus
# (internal/topology/testdata/fuzz): bidirectional search ≡ HopWeight.
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
# side. A race in the hand-off between the caller, the crew's workers
# pulling lanes and the inboxes shows only in some interleavings, so the
# shard tests run five times over.
go test -race -count=5 -run 'Shard|Window|FlowSet|Train' ./internal/udpsim/
go test -race -count=5 -run 'Shard|Window|Train' ./internal/simnet
go test -race ./internal/simnet ./internal/kswitch ./internal/edge ./internal/packet
go test -race -run 'RunSweep|DeterminismMatrix/(fig4-metrics|fig5-sweep|fig7-sweep|reno-ablation)' ./internal/experiment .

echo "==> go test -race ./..."
# The experiment package replays whole figure sweeps; under the race
# detector (~10x slowdown) that outgrows go test's default 10-minute
# budget by a wide margin.
go test -race -timeout 120m ./...

echo "==> telemetry smoke test (karsim -exp fig4 -metrics)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/karsim" ./cmd/karsim
"$tmp/karsim" -exp fig4 -seed 1 -metrics "$tmp/a.prom" > "$tmp/a.out"
"$tmp/karsim" -exp fig4 -seed 1 -metrics "$tmp/b.prom" > "$tmp/b.out"

test -s "$tmp/a.prom" || { echo "FAIL: metrics dump is empty" >&2; exit 1; }
test -s "$tmp/a.prom.json" || { echo "FAIL: JSON dump is empty" >&2; exit 1; }
for series in \
    'kar_switch_deflections_total{cause=' \
    'kar_net_drops_total{policy=' \
    'kar_flow_stretch_hops_bucket{flow='; do
    grep -q "^$series" "$tmp/a.prom" || {
        echo "FAIL: dump is missing $series" >&2
        exit 1
    }
done
grep -q '^# TYPE kar_flow_stretch_hops histogram$' "$tmp/a.prom" || {
    echo "FAIL: dump is missing histogram TYPE line" >&2
    exit 1
}
cmp -s "$tmp/a.prom" "$tmp/b.prom" || {
    echo "FAIL: same-seed metrics dumps differ" >&2
    exit 1
}
cmp -s "$tmp/a.prom.json" "$tmp/b.prom.json" || {
    echo "FAIL: same-seed JSON dumps differ" >&2
    exit 1
}
echo "metrics smoke test OK ($(wc -l < "$tmp/a.prom") lines, byte-identical across runs)"

echo "==> flight recorder through the CLI (flap-react-net15, -trace-export, karsim trace)"
# Byte identity of metric dumps, trace exports and verdicts across
# repeats, worker counts, shard counts and data planes is
# TestDeterminismMatrix (determinism_test.go: fig4, reaction, sweeps,
# flap-net15, flap-react, scale, dtree rows), which the race pass above
# has run in-process. What is left for the shell is the file framing:
# both export files are written, carry both planes (packet records and
# control-plane reaction events), and `karsim trace` reads them back.
"$tmp/karsim" -scenario examples/scenarios/flap-react-net15.json -trace-export "$tmp/t1" > /dev/null
for want in '"kind":"inject"' '"kind":"hop"' '"kind":"decap"' '"kind":"ctrl"' \
    '"event":"link_fail"' '"event":"reroute"' '"event":"ingress_install"'; do
    grep -q "$want" "$tmp/t1.jsonl" || {
        echo "FAIL: trace export is missing $want records" >&2
        exit 1
    }
done
for want in '"traceEvents"' '"name":"reaction:fail SW7-SW13"'; do
    grep -q "$want" "$tmp/t1.trace.json" || {
        echo "FAIL: Perfetto export is missing $want" >&2
        exit 1
    }
done
"$tmp/karsim" trace -in "$tmp/t1.jsonl" > "$tmp/t1.report"
for want in 'reaction chains' 'detection' 'first delivery' 'Journeys by flow'; do
    grep -q "$want" "$tmp/t1.report" || {
        echo "FAIL: karsim trace report is missing '$want'" >&2
        exit 1
    }
done
echo "flight recorder OK ($(wc -l < "$tmp/t1.jsonl") records)"

echo "==> resilience verifier (karsim -verify net15, -workers 1 vs 4)"
# The exhaustive failure sweep must (a) prove 100% single-failure
# delivery for avp/nip on the SW29-rooted full-protection routes
# (-verify-min 1.0 exits non-zero otherwise), (b) produce
# byte-identical tables and JSON reports at any worker count, and
# (c) fail loudly when an unprotected route is gated.
verify_args="-verify net15 -verify-protection full \
    -verify-routes AS1:AS2,AS1:AS3,AS2:AS3,AS3:AS2 -verify-policies avp,nip"
"$tmp/karsim" $verify_args -verify-min 1.0 -workers 1 -verify-json "$tmp/v1.json" > "$tmp/v1.out"
"$tmp/karsim" $verify_args -verify-min 1.0 -workers 4 -verify-json "$tmp/v4.json" > "$tmp/v4.out"
cmp -s "$tmp/v1.out" "$tmp/v4.out" || {
    echo "FAIL: verify tables differ across worker counts" >&2
    exit 1
}
cmp -s "$tmp/v1.json" "$tmp/v4.json" || {
    echo "FAIL: verify JSON reports differ across worker counts" >&2
    exit 1
}
grep -q '"survive_fraction": 1' "$tmp/v1.json" || {
    echo "FAIL: verify report carries no perfect survive fraction" >&2
    exit 1
}
if "$tmp/karsim" -verify net15 -verify-policies none -verify-min 0.99 > /dev/null 2>&1; then
    echo "FAIL: unprotected 'none' sweep passed -verify-min 0.99" >&2
    exit 1
fi
"$tmp/karsim" $verify_args -verify-min 1.0 -metrics "$tmp/v.prom" > /dev/null
grep -q '^kar_verify_cases_total{' "$tmp/v.prom" || {
    echo "FAIL: verify metrics dump is missing kar_verify_cases_total" >&2
    exit 1
}
echo "resilience verifier OK"

echo "==> series counts (scale and verify dumps carry every registered series)"
# Per-link and per-switch series are registered as blocks and get their
# labels on the dump's first read; the verify counters resolve on first
# increment. A block that failed to materialise, or a family resolved
# eagerly, shows up as a wrong line count, not as a wrong number:
# fattree:4 has 40 links (x2 directions) and 20 switches (x4 deflection
# causes), and the full-protection avp,nip sweep increments cases,
# survived and disconnected per policy plus the sweep total.
"$tmp/karsim" -exp scale -topo fattree:4 -flows 20000 -pairs 16 -rate 20 -duration 500ms -fail-links 2 -seed 3 \
    -metrics "$tmp/sh1.prom" > /dev/null
for want in sh1:kar_link_up:40 sh1:kar_link_sent_packets_total:80 sh1:kar_link_sent_bytes_total:80 \
    sh1:kar_link_queue_drops_total:80 sh1:kar_link_inflight_drops_total:80 \
    sh1:kar_switch_received_total:20 sh1:kar_switch_forwards_total:20 sh1:kar_switch_ttl_expired_total:20 \
    sh1:kar_switch_policy_drops_total:20 sh1:kar_switch_deflections_total:80 v:kar_verify_:7; do
    dump=${want%%:*} rest=${want#*:}
    got=$(grep -c "^${rest%:*}" "$tmp/$dump.prom" || true)
    [ "$got" = "${rest#*:}" ] || {
        echo "FAIL: $dump.prom carries $got ${rest%:*} series, want ${rest#*:}" >&2
        exit 1
    }
done
echo "series counts OK"

echo "==> structured failover determinism (dtree, auto protection)"
# dtree is fully deterministic: the verify sweep under per-destination
# auto protection must (a) prove 100% single-failure delivery on every
# route INCLUDING the AS1-bound reverse direction the canned full set
# left exposed and (b) emit byte-identical reports at any worker count.
# (The packet-level dtree scenario is a row of the determinism matrix.)
dtree_args="-verify net15 -verify-protection auto -verify-policies nip,dtree -verify-pairs 64"
"$tmp/karsim" $dtree_args -verify-min 1.0 -workers 1 -verify-json "$tmp/d1.json" > "$tmp/d1.out"
"$tmp/karsim" $dtree_args -verify-min 1.0 -workers 4 -verify-json "$tmp/d4.json" > "$tmp/d4.out"
cmp -s "$tmp/d1.out" "$tmp/d4.out" || {
    echo "FAIL: dtree verify tables differ across worker counts" >&2
    exit 1
}
cmp -s "$tmp/d1.json" "$tmp/d4.json" || {
    echo "FAIL: dtree verify JSON reports differ across worker counts" >&2
    exit 1
}
echo "structured failover determinism OK"

echo "==> serve daemon smoke (byte identity vs batch CLI, drain)"
sh scripts/serve_smoke.sh "$tmp/karsim"

echo "==> scenario smoke (examples/scenarios)"
sh scripts/scenarios.sh "$tmp/karsim"

echo "==> benchmark smoke (BenchmarkTable1EncodingSize, 100 iterations)"
# Proves the root benchmark harness still compiles and executes; the
# benchmark that is evidence for performance is bench/ (make bench-run).
go test -run '^$' -bench 'BenchmarkTable1EncodingSize' -benchtime 100x .

echo "ALL CHECKS PASSED"
