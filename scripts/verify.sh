#!/bin/sh
# verify.sh — the repo's fast correctness gate.
#
# Runs gofmt, static analysis, a full build and the race detector over
# every package that owns goroutines or is driven from them (race_pkgs
# below: persistent shard workers, pawsdb's lock-free snapshot and
# lease wheel, the runner's worker pool, ...; and cmd/cellfi's daemon
# drain tests). The repo's anti-regrowth rules — no export only tests
# reach, no deleted selector, option or type declared again, one
# binary that alone owns the process, docs whose backticked references
# resolve — are TestGuards in guards_test.go, part of `go test ./...`.
#
# Opt-in stages: VERIFY_RACE=1 (whole suite under -race),
# VERIFY_CHAOS=1 (ETSI vacate soak), VERIFY_INVARIANTS=1 (chaos worlds
# + watchdog under -race).
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted=$(gofmt -l . 2>/dev/null | grep -v '^\.git/' || true)
if [ -n "$unformatted" ]; then
	echo "gofmt: files need formatting (run make fmt):" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

race_pkgs="runner sim core paws faults trace shard pawsdb pawsload metro"
echo "== go test -race ($race_pkgs cmd/cellfi)"
go test -race $(printf './internal/%s ' $race_pkgs) ./cmd/cellfi

# netsim forks its per-cell kernels over GOMAXPROCS workers and skips
# the fork on one core, so it also runs at -cpu 4: a 1-core runner
# still races the forked path.
echo "== go test -race -cpu 1,4 (netsim)"
go test -race -cpu 1,4 ./internal/netsim

# Optional full-race stage: VERIFY_RACE=1 runs the entire test suite
# under the race detector (equivalent to `make race`).
if [ "${VERIFY_RACE:-0}" = "1" ]; then
	echo "== go test -race ./... (full suite)"
	go test -race ./...
fi

# Optional chaos stage: VERIFY_CHAOS=1 adds the full fault-injection
# soak (the ETSI vacate property suite, 5x under -race) on top.
if [ "${VERIFY_CHAOS:-0}" = "1" ]; then
	echo "== make chaos (ETSI vacate property soak)"
	make chaos
fi

# Optional invariant stage: VERIFY_INVARIANTS=1 runs the world-level
# chaos matrix (crash x storm x failover x skew) with the online
# regulatory watchdog attached, plus the checker's own unit suite,
# under the race detector. Scale with CHAOS_WORLD_SEEDS /
# CHAOS_WORLD_STEPS (or use `make chaos-soak` for the 100-seed form).
if [ "${VERIFY_INVARIANTS:-0}" = "1" ]; then
	echo "== go test -race (chaos worlds + invariant watchdog)"
	go test -race ./internal/chaos ./internal/invariant
fi

echo "verify: OK"
