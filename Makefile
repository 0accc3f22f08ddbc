GO ?= go

.PHONY: all build test verify bench sweep experiments fmt chaos chaos-soak fuzz-short race

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the fast correctness gate: static analysis, a full build,
# and the race detector over the concurrency-bearing packages.
verify:
	./scripts/verify.sh

# chaos is the fault-injection soak: the ETSI vacate property suite
# (100 seeded schedules + the 10k-step run + golden-log determinism)
# repeated 5x under the race detector. Scale with CHAOS_SEEDS /
# CHAOS_STEPS.
chaos:
	$(GO) test -race -count=5 -run 'TestETSIVacateProperty|TestChaosDeterminism|TestChaosGoldenTransitionLog' ./internal/core

# chaos-soak is the world-level acceptance run: a 100-seed chaos
# matrix (AP crash/restart x incumbent storms x PAWS failover x clock
# skew) under the race detector, every world audited online by the
# regulatory invariant watchdog — zero violations or the run fails
# with the first violating trace record.
chaos-soak:
	CHAOS_WORLD_SEEDS=100 $(GO) test -race -run 'TestChaosMatrix|TestWatchdog' -v ./internal/chaos

# race runs the full test suite under the race detector (the verify
# gate covers only the concurrency-bearing subset; this is the long
# form, also reachable via VERIFY_RACE=1 ./scripts/verify.sh).
race:
	$(GO) test -race ./...

# fuzz-short gives the parsing surfaces a quick shake: the PAWS
# client-side response decoder, the flight-recorder stream decoder,
# and the invariant verifier replaying arbitrary decoded streams.
fuzz-short:
	$(GO) test -fuzz=FuzzParse -fuzztime=10s -run '^$$' ./internal/paws
	$(GO) test -fuzz=FuzzDecode -fuzztime=10s -run '^$$' ./internal/trace
	$(GO) test -fuzz=FuzzVerify -fuzztime=10s -run '^$$' ./internal/invariant

# bench runs the hot-path benchmark suite with allocation tracking:
# the sim event core, the Wi-Fi CSMA and LTE subframe loops, the
# propagation link cache, the runner fleet, and the IM epoch (netsim
# Step at 14 and 200 APs, the core controller).
bench:
	$(GO) test -bench . -benchmem -benchtime 100ms -run '^$$' \
		./internal/sim ./internal/propagation ./internal/wifi ./internal/lte \
		./internal/runner ./internal/geo ./internal/stats ./internal/metro \
		./internal/shard ./internal/netsim ./internal/core

# Regenerate the committed engine benchmark artifact (also enforces
# 0 allocs/op on Schedule+fire and the >=2x speedup floor).
BENCH_sim.json: FORCE
	SIM_BENCH_OUT=$(CURDIR)/BENCH_sim.json $(GO) test -run TestEngineBenchArtifact -count 1 -v .

# Regenerate the committed runner speedup artifact.
BENCH_runner.json: FORCE
	RUNNER_BENCH_OUT=$(CURDIR)/BENCH_runner.json $(GO) test -run TestCampaignSpeedup -count 1 ./internal/runner

# Regenerate the committed flight-recorder overhead artifact (also
# enforces 0 allocs/op on the instrumented hot loops with tracing off
# AND on).
BENCH_trace.json: FORCE
	TRACE_BENCH_OUT=$(CURDIR)/BENCH_trace.json $(GO) test -run TestTraceBenchArtifact -count 1 -v .

# Regenerate the committed spectrum-database load artifact (also
# enforces >= 50k qps sustained, the cache beating the raw index path,
# and a bounded p99 under a scripted database outage).
BENCH_paws.json: FORCE
	PAWS_BENCH_OUT=$(CURDIR)/BENCH_paws.json $(GO) test -run TestPAWSBenchArtifact -count 1 -v .

# Regenerate the committed city-scale baseline: the examples/metro
# scenario (2,000 APs / 100k UEs, one diurnal cycle) single-threaded.
# Enforces faster-than-real-time, 0 allocs/op on the grid query and the
# steady-state metro epoch, and indexed-beats-brute SINR at N=1000.
BENCH_city.json: FORCE
	CITY_BENCH_OUT=$(CURDIR)/BENCH_city.json $(GO) test -run TestCityBenchArtifact -count 1 -v -timeout 20m .

# Regenerate the committed sharded-execution baseline: the metro city at
# K in {1, 2, 4, 8} shards. Enforces 0 allocs/op on the lockstep barrier
# path, identical attached-count telemetry at every K, and — on machines
# with >= 8 cores — a >= 3x speedup at K=8.
BENCH_shard.json: FORCE
	SHARD_BENCH_OUT=$(CURDIR)/BENCH_shard.json $(GO) test -run TestShardBenchArtifact -count 1 -v -timeout 20m .

FORCE:

sweep:
	$(GO) run ./cmd/cellfi-sweep

experiments:
	$(GO) run ./cmd/experiments -quick

fmt:
	gofmt -w $$(find . -name '*.go' -not -path './.git/*')
