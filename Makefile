GO ?= go

.PHONY: all build test test-short test-race bench embed-bench vet fmt check lint experiments examples cover fault-sweep fuzz audit-smoke serve serve-smoke serve-bench trace-smoke phase-bench scale-smoke soak-smoke warm-bench dist-smoke dist-bench stream-smoke capacity-bench

all: vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race ./...

# Everything CI gates on: formatting, vet, build, tests.
check:
	gofmt -l .
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem ./...

vet:
	gofmt -l . && $(GO) vet ./...

# Static analysis beyond vet.  staticcheck is used when installed
# (go install honnef.co/go/tools/cmd/staticcheck@latest); the target
# still runs vet-level checks without it instead of failing.
lint:
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; ran gofmt+vet only"; \
	fi

fmt:
	gofmt -w .

# Regenerate the EXPERIMENTS.md tables (stdout).
experiments:
	$(GO) run ./cmd/xtree-bench -exp all -maxr 9 -seeds 5

# E16 only: slowdown degradation under message drops and link kills.
fault-sweep:
	$(GO) run ./cmd/xtree-bench -exp e16

# Short fuzz of the netsim fault layer (determinism + counter invariants),
# the cache-snapshot parser, and the distsim exchange codec (arbitrary
# bytes must never panic; accepted frames must re-encode identically).
fuzz:
	$(GO) test -run Fuzz -fuzz=FuzzNetsimFaults -fuzztime=10s ./internal/netsim
	$(GO) test -run Fuzz -fuzz=FuzzWarm -fuzztime=10s ./internal/engine
	$(GO) test -run Fuzz -fuzz=FuzzExchange -fuzztime=10s ./internal/distsim

# E1 + the simulator experiments with the LinkAudit invariant checker
# attached to every run: any model violation aborts with a violation list.
audit-smoke:
	$(GO) run ./cmd/xtree-bench -exp e1 -maxr 4 -seeds 2 -audit
	$(GO) run ./cmd/xtree-bench -exp e10 -maxr 4 -audit
	$(GO) run ./cmd/xtree-bench -exp e17 -maxr 4 -audit

# Run the embedding service on :8080 (Ctrl-C for a graceful drain).
serve:
	$(GO) run ./cmd/xtree-serve -addr :8080

# The serving acceptance gate (also the CI serve job): boots real
# servers and checks health, Theorem 1 bounds over the wire, Prometheus
# metrics, 429 + Retry-After at queue saturation, and a graceful
# shutdown that drains every in-flight request.
serve-smoke:
	$(GO) run ./cmd/xtree-serve -smoke

# The tracing acceptance gate (also the CI trace job): boots a fully
# sampled server, fires one /v1/simulate request, and validates the
# /debug/trace JSONL export — one trace ID from the X-Trace-Id response
# header covering the server root, engine phases, separator spans with
# depth attributes, and simulator hops nested under the simulate span.
trace-smoke:
	$(GO) run ./cmd/xtree-serve -trace-smoke

# The concurrency-scaling gate (also the CI scale job): the load
# generator drives a default-config in-process server at c=1 and then
# c=8; on a multi-core machine the concurrent run must beat the serial
# one (2x on >= 4 CPUs, 1.2x on 2-3; skipped on 1 CPU where a closed
# CPU-bound loop cannot scale).  This is the gate the pre-redesign
# single-worker server engine failed by construction.
scale-smoke:
	$(GO) run ./cmd/xtree-serve -scale-smoke -n 600

# The soak/chaos gate (also the CI soak job): closed-loop load plus
# fault-injected simulations against a live server, a mid-run graceful
# drain that snapshots the caches, a restart that warms from the
# snapshot, and the same load again.  Fails on any client-visible error,
# a shed rate over 50%, a p99 over 5s, or a warmed server that runs even
# one compute for a previously-seen shape.
soak-smoke:
	$(GO) run ./cmd/xtree-serve -soak-smoke -n 300 -tree-n 600 -shapes 8

# The partitioned-simulation gate (also the CI dist job): the same
# /v1/simulate request run single-process and sharded over 4
# epoch-barrier workers must return byte-identical counters, the
# response must break the run down by shard, the xtreesim_dist_*
# metric families must be live, and an over-cap partition count must
# be a 400.
dist-smoke:
	$(GO) run ./cmd/xtree-serve -dist-smoke

# The streaming-telemetry gate (also the CI stream job): a
# fault-injected partitioned /v1/simulate?stream=1 run must stream
# schema-valid per-cycle and per-shard NDJSON, an idle attach with a
# far-future cursor must heartbeat, and the session and telemetry
# metric families (plus the build_info gauge) must be live on /metrics.
stream-smoke:
	$(GO) run ./cmd/xtree-serve -stream-smoke

# E23 only: rps-per-core per host type with and without attached
# streaming observers; writes BENCH_capacity.json.
capacity-bench:
	$(GO) run ./cmd/xtree-bench -exp e23

# E22 only: partition-scaling sweep of the distributed simulator with
# the per-shard LinkAudit attached; writes BENCH_dist.json.
dist-bench:
	$(GO) run ./cmd/xtree-bench -exp e22 -audit

# E21 only: restart-with-snapshot vs cold-restart comparison table.
warm-bench:
	$(GO) run ./cmd/xtree-bench -exp e21

# E19 only: traced phase breakdown (separator vs host-build vs simulate).
phase-bench:
	$(GO) run ./cmd/xtree-bench -exp e19

# E18 only: serving latency/throughput sweep; writes BENCH_serve.json.
serve-bench:
	$(GO) run ./cmd/xtree-bench -exp e18

# E20 + the perf gate (also the CI perf job): the exact AllocsPerRun
# budgets on the default-option embed, the closed-form X-tree distance
# (zero), a warm n=1008 x-tree /v1/embed through the full handler and
# the n=1008 ideal-tree simulation baseline, then the E20 sweep diffed
# against the committed BENCH_embed.json — any
# configuration more than 10% over its baseline allocs/op fails.
# Refresh the baseline by running `go run ./cmd/xtree-bench -exp e20`
# and committing the file.
embed-bench:
	$(GO) test -run TestEmbedAllocBudget -v ./internal/core
	$(GO) test -run TestDistanceZeroAlloc -v ./internal/xtree
	$(GO) test -run TestWarmEmbedAllocBudget -v ./internal/server
	$(GO) test -run TestIdealBaselineAllocBudget -v ./internal/netsim
	$(GO) run ./cmd/xtree-bench -exp e20 -embed-out '' -embed-baseline BENCH_embed.json

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/batch
	$(GO) run ./examples/simulate
	$(GO) run ./examples/faults
	$(GO) run ./examples/observe
	$(GO) run ./examples/universal
	$(GO) run ./examples/hypercube
	$(GO) run ./examples/separators
	$(GO) run ./examples/serve

cover:
	$(GO) test -coverprofile=cover.out ./... && $(GO) tool cover -func=cover.out | tail -1
