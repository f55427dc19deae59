GO ?= go

.PHONY: all build test vet race bench bench-run bench-test bench-compare check scenarios verify serve-smoke

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# The repository benchmark (bench/README.md): four workloads, end to
# end, built into .bench_build/ and run from the checkout root.
bench-run:
	bash bench/run.sh

# The benchmark's own equivalence and smoke tests (~20 s).
bench-test:
	cd bench && $(GO) test ./...

# Compare two result sets written by `bash bench/run.sh -runs N -json
# <file>` under BENCHMARK.json's bounds: make bench-compare A=a.json B=b.json
bench-compare:
	bash bench/run.sh compare $(A) $(B)

# Scenario smoke: run every declarative fault scenario in
# examples/scenarios/ and require each verdict to PASS.
scenarios:
	$(GO) test -run TestScenarioFilesPass -v ./cmd/karsim

# Resilience verification: exhaustively sweep every single-link
# failure on Net15 under full protection and require 100% delivery
# for avp/nip on the SW29-rooted routes (exits non-zero otherwise).
verify:
	$(GO) run ./cmd/karsim -verify net15 -verify-protection full \
	    -verify-routes AS1:AS2,AS1:AS3,AS2:AS3,AS3:AS2 \
	    -verify-policies avp,nip -verify-min 1.0

# Serve-daemon smoke: start `karsim serve`, byte-compare its verdict
# and verify documents against the batch CLI at workers 1 vs 4, check
# /metrics and /healthz, run a 40-job burst of concurrent clients, and
# require a clean SIGTERM drain. The daemon's load test is the
# benchmark's serve_mix workload (make bench-run).
serve-smoke:
	sh scripts/serve_smoke.sh

# Quality gates beyond `make test` (which holds the design rules of
# guards_test.go and every CLI golden): vet + gofmt + build + race tests
# + 10-s fuzz explorations + serve-daemon and benchmark smokes. See
# scripts/check.sh.
check:
	sh scripts/check.sh
