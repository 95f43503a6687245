# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet test test-race race cover bench bench-json bench-fleet bench-admission bench-bundle bench-megafleet bench-serve bench-residual alloc-gate residual-gate scaling-gate conservation scope-gate fuzz-short experiments examples obs-smoke serve-smoke

all: build test

build:
	go build ./...

# vet also fails on any file gofmt would rewrite.
vet:
	go vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt -l: files need formatting:" >&2; echo "$$out" >&2; exit 1; \
	fi

test: vet obs-smoke serve-smoke conservation scope-gate fuzz-short alloc-gate residual-gate scaling-gate
	go test -shuffle=on ./...

# The fleet allocation gate: one exact run of the 10k-device parallel
# fleet benchmark against the committed budgets in bench_budget.json.
# Keeps the memory-compact state plane honest — an accidental
# per-tick allocation on the MAPE hot path fails `make test`, not a
# benchmark review three PRs later.
alloc-gate:
	sh scripts/alloc_gate.sh bench_budget.json

# The partial-evaluation gate: the 10k-policy/64-class residual must
# stay at least 10x faster than the full snapshot deciding for the
# same device (measured margin ~22x; the ratio of two same-process
# benchmarks is robust to host speed).
residual-gate:
	sh scripts/residual_gate.sh

# The fan-out scaling gate: per-subscriber converge time of a publish
# at 8k subscribers per root must stay within 1.5x of the same at 2k
# (median of interleaved publishes in one process). A per-event
# O(fleet) cost on the bundle path fails `make test`: a lagging-gauge
# scan on every ack read 1.8x.
scaling-gate:
	sh scripts/scaling_gate.sh

# The trust-boundary gate: the cross-org scope-refusal property (any
# bundle signed by org A's key that names an org-B policy is refused
# with ErrScope), the multi-root distributor refusal path, the
# lagging-books property (each root's bundle.lagging gauge equals the
# LaggingRoot scan after every random enroll/publish/ack/loss/repair
# step), and the E21 coalition chaos run with its exact books and
# 1/2/4-worker determinism differential.
scope-gate:
	go test -run 'TestScope|TestAgentsTwoRootsOneSet|TestKeyRing' ./internal/bundle
	go test -run 'TestDistributorMultiRoot|TestDistributorForged|TestDistributorBadPayload|TestDistributorEncodeFailure|TestDistributorLaggingBooks' \
		./internal/core
	go test -run 'TestE21' ./internal/experiments

# Short randomized passes on top of the seeded corpora: no input to
# the bundle wire-format decoder may reach live policy state or crash
# the fail-closed verification chain, and every policy-DSL source the
# compiler accepts must format to a print/parse fixed point.
fuzz-short:
	go test -run=FuzzBundleDecode -fuzz=FuzzBundleDecode -fuzztime=10s \
		./internal/bundle
	go test -run=FuzzPolicyFixedPoint -fuzz=FuzzPolicyFixedPoint -fuzztime=10s \
		./internal/policylang

# The admission-plane conservation gate, runnable on its own: the E16
# saturation ledger must balance exactly (sent == delivered + dropped
# + shed, pending 0) and the drop-site audit must find no discarded
# Send/Deliver outcomes anywhere in the production source.
conservation:
	go test -run 'TestE16ConservationExact|TestNoUnaccountedDropSites|TestConservationUnderRandomLoad' \
		./internal/experiments ./internal/admission

# End-to-end observability check: run a short scenario with the live
# endpoint up and assert /metrics and /traces serve well-formed,
# non-empty output.
obs-smoke:
	sh scripts/obs_smoke.sh

# End-to-end control-plane check: start `skynetsim serve`, submit a
# command, follow its trace to a connected decision tree, stream the
# verifiable audit tail, burst it with loadgen and drain on SIGTERM.
serve-smoke:
	sh scripts/serve_smoke.sh

# Race-check the library packages (the chaos and resilience tests
# exercise concurrent senders); `race` covers the whole module. The
# second command repeats the parallel-determinism differentials under
# the race detector — goroutine schedules vary across -count runs, so
# byte-identical journals twice in a row is strong evidence the merge
# order really is deterministic. The third repeats, at 2 workers, the
# bundle plane's shared decode/compile caches and lagging books with
# the E17/E21 rollouts whose lanes share them.
test-race:
	go test -race ./internal/...
	go test -race -count=2 -run 'TestParallelDeterminism|TestE15Determinism|TestPropertyBoxedScratchEquivalence|TestDifferentialResidualVsFull|TestResidualConcurrentSpecialize' \
		./internal/sim ./internal/experiments ./internal/device ./internal/policy
	go test -race -count=2 -cpu 2 -run 'TestDecodeCache|TestCompileCache|TestCaches|TestDistributorLaggingBooks|TestE17Converges|TestE21CoalitionGate' \
		./internal/bundle ./internal/core ./internal/experiments

race:
	go test -race ./...

cover:
	go test -cover ./...

# Benchmarks: 5 repetitions per benchmark, results mirrored to
# bench.txt for before/after comparisons (see EXPERIMENTS.md E13).
bench:
	go test -bench=. -benchmem -count=5 ./... | tee bench.txt

# Machine-readable benchmark results: run the suite (3 repetitions for
# turnaround), then distill bench.txt into bench.json (generated, not
# committed). Fleet, serve, decision-plane and fan-out rows also append
# to the cumulative BENCH_HISTORY.json, so the trend across PRs is one
# file.
bench-json:
	go test -bench=. -benchmem -count=3 ./... | tee bench.txt
	sh scripts/bench_json.sh bench.txt bench.json

# Admission-control hot paths only (PR5): admit/shed/gate/drain on a
# virtual clock, distilled into BENCH_PR5.json.
bench-admission:
	go test -bench='BenchmarkAdmission' -benchmem -count=5 \
		./internal/admission | tee bench_admission.txt
	sh scripts/bench_json.sh bench_admission.txt BENCH_PR5.json

# Bundle distribution hot paths: publish, verify+activate (full and
# delta) and the fail-closed reject path into BENCH_PR6.json (PR6);
# then the 100k-device multi-root publish fan-out — sharded batch
# events at 1/2/4 workers — into BENCH_PR10.json (PR10), with dated
# rows in BENCH_HISTORY.json.
bench-bundle:
	go test -bench='BenchmarkBundle' -benchmem -count=5 \
		./internal/bundle | tee bench_bundle.txt
	sh scripts/bench_json.sh bench_bundle.txt BENCH_PR6.json
	DIST_BENCH_FLEET=100000 go test -bench='BenchmarkDistributorFanout' \
		-benchmem -benchtime=1x -count=3 -timeout 30m \
		./internal/core | tee bench_fanout.txt
	sh scripts/bench_json.sh bench_fanout.txt BENCH_PR10.json

# Control-plane latency benchmarks (PR8): three loadgen runs — closed
# loop, open loop at 1x admission capacity, open loop at 2x — with
# p50/p95/p99 decision latency into BENCH_PR8.json; the benchmark
# lines also append BenchmarkServe* rows to BENCH_HISTORY.json.
bench-serve:
	sh scripts/bench_serve.sh BENCH_PR8.json BENCH_HISTORY.json

# Decision-plane / partial-evaluation benchmarks only (PR9): full
# snapshot vs residual vs specialization cost at 10k policies,
# distilled into BENCH_PR9.json; the Evaluate/Residual/Specialize
# rows also append to BENCH_HISTORY.json.
bench-residual:
	go test -bench='BenchmarkEvaluate|BenchmarkResidual|BenchmarkSpecialize' \
		-benchmem -count=3 ./internal/policy | tee bench_residual.txt
	sh scripts/bench_json.sh bench_residual.txt BENCH_PR9.json

# The 10k-device parallel-fleet benchmarks only (E15). One run per
# variant: each iteration is a whole 30-virtual-second fleet, so
# -benchtime=1x keeps the loop honest.
bench-fleet:
	go test -bench='BenchmarkE15Fleet' -benchmem -benchtime=1x -count=3 \
		./internal/experiments

# The mega-fleet gates (E18): the 10^5-device differential (byte-
# identical journals at 1/2/4 workers) and the 10^6-device smoke run.
# Costs minutes and several GB of RAM, hence env-gated out of `make
# test`.
bench-megafleet:
	E18_MEGAFLEET=1 go test -run TestE18Megafleet100k -v -timeout 60m \
		./internal/experiments
	E18_MEGAFLEET_1M=1 go test -run TestE18Megafleet1M -v -timeout 60m \
		./internal/experiments

experiments:
	go run ./cmd/experiments

examples:
	@for ex in quickstart surveillance tripartite breakglass emergent coalitionshare autonomic; do \
		echo "== examples/$$ex =="; \
		go run ./examples/$$ex; \
		echo; \
	done
