GO ?= go

.PHONY: all build test verify mutants bench bench-all sweep experiments fmt chaos chaos-soak fuzz-short race

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the fast correctness gate: gofmt, static analysis, a full
# build, and the race detector over every package that owns goroutines
# or is driven from them (runner, sim, core, paws, faults, trace, shard,
# pawsdb, pawsload, and cmd/cellfi's daemon drain tests; netsim at
# -cpu 1,4 and metro at -cpu 4, so their forked passes race even on a
# 1-core box).
# The anti-regrowth guards (dead exports, options only tests set,
# collapsed paths, one binary, doc references) are TestGuards in
# guards_test.go, run by `make test`.
verify:
	./scripts/verify.sh

# mutants runs the mutant catalogue (TestMutants in mutants_test.go)
# alone: each mutant is applied to its own copy of the module and the
# test it names must fail; none may survive. `make test` runs it too,
# and `go test -short` checks only that every anchor and test exists.
mutants:
	$(GO) test -count=1 -run '^TestMutants$$' -v .

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
# with the first violating trace record. That the watchdog can fail
# at all is the vacate-gate mutant's job (`make mutants`).
chaos-soak:
	CHAOS_WORLD_SEEDS=100 $(GO) test -race -run 'TestChaosMatrix|TestWatchdog' -v ./internal/chaos

# race runs the full test suite under the race detector (the verify
# gate covers only the concurrency-bearing subset; this is the long
# form, also reachable via VERIFY_RACE=1 ./scripts/verify.sh).
race:
	$(GO) test -race ./...

# fuzz-short runs every fuzz target for 10 s: the PAWS client-side
# response decoder, never panicking and, for getSpectrum, against its
# two-step reference decode (same value, or same error class and
# text); the PAWS server against arbitrary bodies (never
# panics, always a well-formed envelope) and against its two-step
# reference decode (same bytes, same leases, registrations and
# counters); the server's hand-assembled AVAIL_SPECTRUM_RESP bytes
# against encoding/json over arbitrary registries, locations and
# clocks; the lease store against a brute map under random grants,
# renewals, releases and clock jumps; the flight-recorder stream
# decoder; the invariant verifier replaying arbitrary decoded streams;
# the IM share invariants; the LTE
# DCI grant decoder and DFT round trip; the outage-window specs behind
# `cellfi db -flaky` and `cellfi load -outages`; the comma-separated
# lists of `cellfi sim`; and the squeezed ziggurat slow path against
# its pre-squeeze reference on arbitrary hashes.
fuzz-short:
	$(GO) test -fuzz=FuzzParse -fuzztime=10s -run '^$$' ./internal/paws
	$(GO) test -fuzz=FuzzClientDecode -fuzztime=10s -run '^$$' ./internal/paws
	$(GO) test -fuzz=FuzzServerRobustness -fuzztime=10s -run '^$$' ./internal/paws
	$(GO) test -fuzz=FuzzOnePassDecode -fuzztime=10s -run '^$$' ./internal/paws
	$(GO) test -fuzz=FuzzSpectrumRespBytes -fuzztime=10s -run '^$$' ./internal/paws
	$(GO) test -fuzz=FuzzLeaseStore -fuzztime=10s -run '^$$' ./internal/pawsdb
	$(GO) test -fuzz=FuzzDecode -fuzztime=10s -run '^$$' ./internal/trace
	$(GO) test -fuzz=FuzzVerify -fuzztime=10s -run '^$$' ./internal/invariant
	$(GO) test -fuzz=FuzzShareInvariants -fuzztime=10s -run '^$$' ./internal/core
	$(GO) test -fuzz=FuzzUnmarshalDCI -fuzztime=10s -run '^$$' ./internal/lte
	$(GO) test -fuzz=FuzzDFTRoundTrip -fuzztime=10s -run '^$$' ./internal/lte
	$(GO) test -fuzz=FuzzExpFromHash -fuzztime=10s -run '^$$' ./internal/propagation
	$(GO) test -fuzz=FuzzParseWindows -fuzztime=10s -run '^$$' ./internal/faults
	$(GO) test -fuzz=FuzzSimLists -fuzztime=10s -run '^$$' ./cmd/cellfi

# bench is for microbenchmarks while you work: the per-package
# `go test -bench` sweep with allocation tracking (sim event core,
# Wi-Fi CSMA and LTE subframe loops, link loss with and without the
# benchmark's propagation.LinkCache, and the fused fade kernels in
# ns/link — metro's row kernel (BenchmarkFadeWeightedSum) and netsim's transmitter-list walks
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
	$(GO) run ./cmd/cellfi sim -scheme cellfi,lte,oracle -aps 6,8,10,12,14 -trials 3 -epochs 20

experiments:
	$(GO) run ./cmd/cellfi experiments -quick

fmt:
	gofmt -w $$(find . -name '*.go' -not -path './.git/*')
