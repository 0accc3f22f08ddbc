GO ?= go

.PHONY: all build test verify bench bench-all sweep experiments fmt chaos chaos-soak fuzz-short race

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the fast correctness gate: static analysis, a full build,
# the legacy-harness and collapsed-path guards (no metro/wifi index
# selector, no metro link-ID slab, no link cache in wifi, no runner
# shard telemetry, ring-size or slack option, no netsim shard count or
# cluster fork-join entry, no
# float streaming-moments type, no hand-rolled netsim trial loop in
# internal/experiments), the one-binary guard (one package main under
# cmd/, and only cmd/cellfi/main.go touches exit codes, signals, the
# global flag set and os.Stdout/os.Stderr), the dead-export guard
# (every exported function in internal/ is reached from non-test code,
# or allowlisted with a reason), and the race detector over
# every package that owns goroutines or is driven from them (runner,
# sim, core, paws, faults, trace, shard, pawsdb, pawsload, metro,
# netsim, and cmd/cellfi's daemon drain tests).
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

# fuzz-short gives the parsing surfaces a quick shake — the PAWS
# client-side response decoder, the flight-recorder stream decoder,
# the invariant verifier replaying arbitrary decoded streams, the LTE
# DCI grant decoder, the outage-window specs behind `cellfi db -flaky`
# and `cellfi load -outages`, the comma-separated lists of `cellfi
# sweep` — and checks the squeezed ziggurat slow path against its
# pre-squeeze reference on arbitrary hashes.
fuzz-short:
	$(GO) test -fuzz=FuzzParse -fuzztime=10s -run '^$$' ./internal/paws
	$(GO) test -fuzz=FuzzDecode -fuzztime=10s -run '^$$' ./internal/trace
	$(GO) test -fuzz=FuzzVerify -fuzztime=10s -run '^$$' ./internal/invariant
	$(GO) test -fuzz=FuzzUnmarshalDCI -fuzztime=10s -run '^$$' ./internal/lte
	$(GO) test -fuzz=FuzzExpFromHash -fuzztime=10s -run '^$$' ./internal/propagation
	$(GO) test -fuzz=FuzzParseWindows -fuzztime=10s -run '^$$' ./internal/faults
	$(GO) test -fuzz=FuzzSweepLists -fuzztime=10s -run '^$$' ./cmd/cellfi

# bench is for microbenchmarks while you work: the per-package
# `go test -bench` sweep with allocation tracking (sim event core,
# Wi-Fi CSMA and LTE subframe loops, propagation link cache and the
# fused fade kernels in ns/link — metro's row kernel
# (BenchmarkFadeWeightedSum) and netsim's transmitter-list walks
# (BenchmarkFadeAddSum, BenchmarkFadeSumRows) — the linear CQI
# quantizer, runner fleet, netsim Step at 14 and 200 APs, the core
# controller). Nothing it prints is committed or compared; `make
# bench-all` is the number of record.
bench:
	$(GO) test -bench . -benchmem -benchtime 100ms -run '^$$' \
		./internal/sim ./internal/propagation ./internal/wifi ./internal/lte \
		./internal/runner ./internal/geo ./internal/stats ./internal/metro \
		./internal/shard ./internal/netsim ./internal/core ./internal/phy

# bench-all runs the one benchmark (BENCHMARK.json, bench/README.md):
# all seven workloads, one machine-stamped result set under bench/out/.
# Compare two result sets with `go run ./bench compare A B`.
bench-all:
	$(GO) run ./bench -workload all -seed 1

sweep:
	$(GO) run ./cmd/cellfi sweep

experiments:
	$(GO) run ./cmd/cellfi experiments -quick

fmt:
	gofmt -w $$(find . -name '*.go' -not -path './.git/*')
