GO ?= go

.PHONY: all build test vet fmt-check race check chaos chaos-ckpt chaos-dist chaos-replica chaos-churn fuzz bench bench-tables bench-server bench-charwork bench-charlib bench-yield bench-smoke allocbudget determinism clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every Go file must be gofmt-clean.
fmt-check:
	test -z "$$(gofmt -l .)"

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 20m ./...

# Allocation-budget regression tests (testing.AllocsPerRun; skipped under
# -race, so they get their own invocation).
allocbudget:
	$(GO) test -run 'AllocBudget' -count 1 ./internal/fit/

# Bit-identical serial-vs-parallel multi-start — and bit-identical
# warm-started library builds across worker counts — under the race
# detector and several GOMAXPROCS values so the concurrent paths engage.
determinism:
	$(GO) test -race -cpu 1,4,8 -run 'TestFitLVF2ParallelDeterminism|TestFitLVF2Golden|TestFitLVF2SeededDeterminism' -count 1 ./internal/fit/
	$(GO) test -race -cpu 1,4,8 -run 'TestBuildWarmDeterminismAcrossWorkers' -count 1 -timeout 15m ./internal/libbuild/
	$(GO) test -race -cpu 1,4,8 -run 'TestYieldEstimatorDeterminism' -count 1 ./internal/yield/

# Crash-safety chaos suite: randomized seeded fault scripts (disk faults,
# fit outages, snapshot corruption, kill-and-restart) against lvf2d under
# the race detector. A failing script is written to CHAOS_ARTIFACT_DIR as
# chaos-failure-seed-<seed>.json; replay it with -chaos.seed=<seed>.
CHAOS_SEEDS ?= 8
CHAOS_ARTIFACT_DIR ?= $(CURDIR)/chaos-artifacts

chaos:
	CHAOS_ARTIFACT_DIR=$(CHAOS_ARTIFACT_DIR) \
		$(GO) test -race -run TestChaosServing -count 1 -timeout 15m \
		./internal/server/ -chaos.seeds $(CHAOS_SEEDS)

# Kill-and-resume chaos suite for the checkpointed characterisation
# pipeline: seeded scripts kill a library build mid-run, optionally tear
# or rot the journal, and assert the resumed build is bit-identical to
# an uninterrupted one. A failing script plus the journal segments it
# resumed from land in CHAOS_ARTIFACT_DIR; replay with -ckptchaos.seed.
chaos-ckpt:
	CHAOS_ARTIFACT_DIR=$(CHAOS_ARTIFACT_DIR) \
		$(GO) test -race -run TestChaosCheckpointResume -count 1 -timeout 15m \
		./internal/libbuild/ -ckptchaos.seeds $(CHAOS_SEEDS)

# Distributed characterisation chaos suite: seeded schedules kill workers
# and crash-restart the coordinator while every HTTP exchange runs through
# a seeded fault transport (request errors, dropped responses, corrupt and
# truncated bodies, stalls). Asserts the drained journal assembles a .lib
# bit-identical to a single-process build and that no unit is journaled
# terminal twice. Failing scripts, logs and journal segments land in
# CHAOS_ARTIFACT_DIR; replay with -distchaos.seed=<seed>.
chaos-dist:
	CHAOS_ARTIFACT_DIR=$(CHAOS_ARTIFACT_DIR) \
		$(GO) test -race -run TestChaosDistributedBuild -count 1 -timeout 15m \
		./internal/dist/ -distchaos.seeds $(CHAOS_SEEDS)

# Replicated-serving chaos suite: seeded scripts drive a three-replica
# in-process lvf2d fleet through peer-link faults (refused connections,
# dropped/corrupt/truncated responses, stalls, asymmetric partitions)
# plus kill-and-restart, asserting every client response is a 200
# bit-identical to a single-process oracle and that a restarted replica
# warm-seeds ≥90% of its owned keys from its peers. Failing scripts land
# in CHAOS_ARTIFACT_DIR as replchaos-failure-seed-<seed>.json; replay
# with -replchaos.seed=<seed>.
chaos-replica:
	CHAOS_ARTIFACT_DIR=$(CHAOS_ARTIFACT_DIR) \
		$(GO) test -race -run TestChaosReplicatedServing -count 1 -timeout 15m \
		./internal/server/ -replchaos.seeds $(CHAOS_SEEDS)

# Fleet-churn chaos suite: seeded scripts reshape a live lvf2d fleet —
# graceful joins, graceful drains with key handoff, crash-leaves with an
# operator epoch bump, kill-and-restart — while client traffic flows over
# faulty peer links. Asserts every response across every epoch is a 200
# bit-identical to a single-process oracle, that every live replica
# serves ≥90% of its owned keys warm within one anti-entropy round of
# each rebalance, and that the fleet converges on one epoch. Failing
# scripts land in CHAOS_ARTIFACT_DIR as
# churnchaos-failure-seed-<seed>.json; replay with -churnchaos.seed.
chaos-churn:
	CHAOS_ARTIFACT_DIR=$(CHAOS_ARTIFACT_DIR) \
		$(GO) test -race -run TestChaosFleetChurn -count 1 -timeout 15m \
		./internal/server/ -churnchaos.seeds $(CHAOS_SEEDS)

# One iteration of every benchmark in -short mode: benchmark code cannot
# rot between perf PRs (heavy benches shrink their workload under -short;
# this smokes the code paths, it does not measure).
bench-smoke:
	$(GO) test -short -run '^$$' -bench . -benchtime 1x -timeout 20m ./...

# The gate: gofmt + vet + build + full suite under the race detector +
# perf and crash-safety guards + the benchmark smoke pass.
check: fmt-check vet build race allocbudget determinism chaos chaos-ckpt chaos-dist chaos-replica chaos-churn bench-smoke

# Short fuzz pass over every untrusted-input decoder: the Liberty/netlist
# parsers, the journaled work-unit payload, the model-cache snapshot, the
# fleet membership document and the parse stage of the lvf2d arc
# queries. CI runs it as its own job, outside check's time budget.
fuzz:
	$(GO) test -fuzz '^FuzzParse$$' -fuzztime 30s -run '^$$' ./internal/liberty/
	$(GO) test -fuzz '^FuzzRoundTrip$$' -fuzztime 30s -run '^$$' ./internal/liberty/
	$(GO) test -fuzz '^FuzzParseNetlist$$' -fuzztime 30s -run '^$$' ./internal/netlist/
	$(GO) test -fuzz '^FuzzDecodeUnit$$' -fuzztime 30s -run '^$$' ./internal/libbuild/
	$(GO) test -fuzz '^FuzzSnapshotDecode$$' -fuzztime 30s -run '^$$' ./internal/modelcache/
	$(GO) test -fuzz '^FuzzParseMembership$$' -fuzztime 30s -run '^$$' ./internal/server/
	$(GO) test -fuzz '^FuzzParseArcQuery$$' -fuzztime 30s -run '^$$' ./internal/server/

# Micro benchmarks with memory stats, exported as BENCH_fit.json evidence.
BENCH_FILTER = BenchmarkFit|BenchmarkSNCDF|BenchmarkCharacterizeArc|BenchmarkSSTASum|BenchmarkLibertyParse

bench:
	$(GO) test -bench '$(BENCH_FILTER)' -benchmem -count 3 -run '^$$' -timeout 30m . \
		| $(GO) run ./cmd/benchjson -out BENCH_fit.json

# Warm-vs-cold lvf2d serving benchmarks over httptest (acceptance: warm
# /v1/arc/binning p50 ≥10x below cold), exported as BENCH_server.json.
bench-server:
	$(GO) test -bench 'BenchmarkServerBinning' -benchmem -count 3 -run '^$$' -timeout 10m ./internal/server/ \
		| $(GO) run ./cmd/benchjson -out BENCH_server.json

# Distributed characterisation scaling benchmark (acceptance: 4 workers
# drain the same build >=3x faster than 1), exported as BENCH_charwork.json.
bench-charwork:
	$(GO) test -bench 'BenchmarkCharWork' -benchmem -benchtime 3x -count 3 -run '^$$' -timeout 10m ./internal/dist/ \
		| $(GO) run ./cmd/benchjson -out BENCH_charwork.json

# Library characterisation throughput, warm-started vs cold (acceptance:
# warm cells/sec >= 2x cold), exported as BENCH_charlib.json.
bench-charlib:
	$(GO) test -bench 'BenchmarkCharLib' -benchmem -benchtime 1x -count 3 -run '^$$' -timeout 60m ./internal/libbuild/ \
		| $(GO) run ./cmd/benchjson -out BENCH_charlib.json

# Rare-event yield estimator ladder: samples-to-±1%-CI for MC/MNIS/AIS
# at 3σ/4σ/5σ (acceptance: MNIS and AIS close the 4σ contract with ≥50x
# fewer samples than plain MC needs, and produce a converged 5σ estimate
# inside a budget where plain MC cannot), exported as BENCH_yield.json.
bench-yield:
	$(GO) test -bench 'BenchmarkYield' -benchmem -benchtime 1x -count 3 -run '^$$' -timeout 60m ./internal/yield/ \
		| $(GO) run ./cmd/benchjson -out BENCH_yield.json

# Paper artefact regeneration benchmarks (tables, figures, ablations).
bench-tables:
	$(GO) test -bench 'BenchmarkTable|BenchmarkFig|BenchmarkAblation' -benchtime 1x -run '^$$' -timeout 30m .

clean:
	$(GO) clean ./...
