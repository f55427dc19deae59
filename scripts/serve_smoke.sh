#!/bin/sh
# Serve-daemon smoke gate: start `karsim serve` on an ephemeral port,
# drive it with `karsim client` (no curl dependency), and enforce the
# determinism contract — the daemon's verdict and verify documents must
# be byte-identical to the batch CLI's, at workers 1 and 4 — plus the
# health/metrics surfaces, a burst of concurrent clients and a graceful
# SIGTERM drain.
#
# Usage: serve_smoke.sh [karsim-binary]
# (the binary is built into a temp dir when not given)
set -eu

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
SERVE_PID=""
cleanup() {
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

KARSIM="${1:-}"
if [ -z "$KARSIM" ]; then
    go build -o "$tmp/karsim" ./cmd/karsim
    KARSIM="$tmp/karsim"
fi

scenario=examples/scenarios/flap-react-net15.json

echo "--> batch CLI references (workers 1 vs 4)"
"$KARSIM" -scenario "$scenario" -workers 1 -verdict-json "$tmp/cli1.json" > /dev/null
"$KARSIM" -scenario "$scenario" -workers 4 -verdict-json "$tmp/cli4.json" > /dev/null
cmp -s "$tmp/cli1.json" "$tmp/cli4.json" || {
    echo "FAIL: CLI verdicts differ across worker counts" >&2
    exit 1
}
# -verify-pairs without -seed: the sampler's seed is the request's, 0
# when omitted on either side.
verify_args="-verify net15 -verify-routes AS1:AS2,AS1:AS3 -verify-policies avp,nip -verify-pairs 8"
"$KARSIM" $verify_args -workers 1 -verify-json "$tmp/vcli.json" > /dev/null

echo "--> starting karsim serve"
"$KARSIM" serve -addr 127.0.0.1:0 -addr-file "$tmp/addr" -queue 32 -workers 2 \
    > "$tmp/serve.log" 2>&1 &
SERVE_PID=$!
i=0
while [ ! -s "$tmp/addr" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "FAIL: daemon never bound" >&2; cat "$tmp/serve.log" >&2; exit 1; }
    sleep 0.1
done
ADDR="$(tr -d '\n' < "$tmp/addr")"

echo "--> health and readiness"
"$KARSIM" client -addr "$ADDR" -probe /healthz | grep -q ok || { echo "FAIL: healthz" >&2; exit 1; }
"$KARSIM" client -addr "$ADDR" -probe /readyz | grep -q ready || { echo "FAIL: readyz" >&2; exit 1; }

echo "--> daemon/CLI byte identity (scenario, workers 1 vs 4)"
# Build job requests wrapping the scenario file as the spec document.
{ printf '{"spec": '; cat "$scenario"; printf ', "workers": 1}'; } > "$tmp/req1.json"
{ printf '{"spec": '; cat "$scenario"; printf ', "workers": 4}'; } > "$tmp/req4.json"
"$KARSIM" client -addr "$ADDR" -post /v1/scenarios -body "$tmp/req1.json" -result "$tmp/d1.json" > /dev/null
"$KARSIM" client -addr "$ADDR" -post /v1/scenarios -body "$tmp/req4.json" -result "$tmp/d4.json" > /dev/null
cmp -s "$tmp/d1.json" "$tmp/cli1.json" || {
    echo "FAIL: daemon verdict (workers=1) differs from batch CLI" >&2
    exit 1
}
cmp -s "$tmp/d4.json" "$tmp/cli1.json" || {
    echo "FAIL: daemon verdict (workers=4) differs from batch CLI" >&2
    exit 1
}

echo "--> daemon/CLI byte identity (verify sweep)"
printf '{"topology": "net15", "routes": "AS1:AS2,AS1:AS3", "policies": ["avp", "nip"], "pairs": 8}' > "$tmp/vreq.json"
"$KARSIM" client -addr "$ADDR" -post /v1/verify -body "$tmp/vreq.json" -result "$tmp/vd.json" > /dev/null
cmp -s "$tmp/vd.json" "$tmp/vcli.json" || {
    echo "FAIL: daemon verify report differs from batch CLI" >&2
    exit 1
}

echo "--> metrics exposition"
"$KARSIM" client -addr "$ADDR" -probe /metrics > "$tmp/metrics.prom"
for series in \
    'kar_serve_build_info{' \
    'kar_serve_queue_capacity 32' \
    'kar_serve_jobs_total{kind="scenario"}' \
    'kar_serve_jobs_total{kind="verify"}' \
    'kar_serve_job_seconds_bucket' \
    'kar_udp_sent_total'; do
    grep -q "$series" "$tmp/metrics.prom" || {
        echo "FAIL: /metrics is missing $series" >&2
        exit 1
    }
done

echo "--> concurrent burst (40 jobs, 8 clients at a time)"
# A 20 ms scenario per job: five rounds of eight clients against two
# executors and a 32-slot queue; every one must end "done".
cat > "$tmp/burst.json" <<'EOF'
{"spec": {"name": "burst", "topology": "net15", "policy": "nip", "seed": 1,
  "duration": "20ms", "drain": "10ms",
  "flows": [{"src": "AS1", "dst": "AS3", "interval": "1ms"}],
  "injections": [{"kind": "link_cut", "link": ["SW7", "SW13"], "start": "5ms", "duration": "5ms"}]},
 "workers": 1, "collect": false}
EOF
for round in 1 2 3 4 5; do
    pids=""
    for client in 1 2 3 4 5 6 7 8; do
        "$KARSIM" client -addr "$ADDR" -post /v1/scenarios -body "$tmp/burst.json" > /dev/null &
        pids="$pids $!"
    done
    for pid in $pids; do
        wait "$pid" || { echo "FAIL: a job of burst round $round did not end done" >&2; exit 1; }
    done
done
"$KARSIM" client -addr "$ADDR" -probe /metrics | grep -q '^kar_serve_queue_depth 0$' || {
    echo "FAIL: queue not drained after the burst" >&2
    exit 1
}

echo "--> graceful SIGTERM drain"
kill -TERM "$SERVE_PID"
i=0
while kill -0 "$SERVE_PID" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "FAIL: daemon did not exit on SIGTERM" >&2; exit 1; }
    sleep 0.1
done
wait "$SERVE_PID" 2>/dev/null || {
    echo "FAIL: daemon exited non-zero on SIGTERM" >&2
    cat "$tmp/serve.log" >&2
    exit 1
}
grep -q "draining" "$tmp/serve.log" || {
    echo "FAIL: daemon log shows no drain" >&2
    exit 1
}
SERVE_PID=""

echo "serve smoke OK"
