#!/bin/sh
# verify.sh — the repo's fast correctness gate.
#
# Runs static analysis, a full build, the legacy-harness,
# collapsed-path, one-binary and dead-export guards, and the race
# detector over every package that owns goroutines or is driven from
# them (race_pkgs below: persistent shard workers, pawsdb's lock-free
# snapshot and lease wheel, the runner's worker pool, ...; and
# cmd/cellfi's daemon drain tests). The collapsed-path guard
# fails if a deleted selector, option, execution mode or slab is named
# again: metro/wifi index knobs, metro's per-row link-ID slab, a link
# cache under internal/wifi (its dense link table replaced it), runner shard
# telemetry and its ring-size and checker-slack options, netsim's shard
# count and its fading-blocks-per-epoch knob (a constant that sizes the
# per-epoch fade row table), the cluster's fork-join entry point, the float
# streaming-moments type in internal/stats; and internal/experiments'
# hand-rolled trial loops — netsim.New( may appear in at most two
# non-test files there (the sweep runner and Fig. 9c's web-workload
# driver), and the per-trial fleet helper, the per-scheme sweep and the
# Fig. 9 trial function may not be named again. The dead-export guard
# fails if an exported function or method in internal/ has no reference
# in any non-test .go file, outside a short commented allowlist.
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

# There is one benchmark (BENCHMARK.json + bench/, `make bench-all`).
# The six per-subsystem artifact harnesses it replaced must not grow
# back: fail if their file names, env switches or the shell differ
# reappear outside the three files that keep the history (and ISSUE.md,
# which the PR driver owns).
echo "== legacy bench harness guard"
if git grep --untracked -nE 'BENCH_[a-z]+\.json|bench[d]iff|_BENCH[_]OUT' -- . \
	':!bench/README.md' ':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md'; then
	echo "verify: a legacy bench harness reference reappeared (see bench/README.md)" >&2
	exit 1
fi

# metro and wifi have one neighbor-enumeration mode each (grid rows,
# all-pairs), the runner no shard telemetry, ring-size or slack option,
# netsim one execution mode (sequential) and ten fading blocks per
# epoch, a shard cluster one face (Run
# windows) and metro one moment accumulator; the selectors and types
# that made the other halves must not grow back. Nor must metro's
# link-ID slab: the fused row kernel forms link IDs in registers. Nor
# must a LinkCache in wifi: its static link budget is a dense per-pair
# table, like netsim's.
echo "== collapsed-path guard"
if git grep --untracked -n 'UseSpatialIndex' -- internal/metro internal/wifi examples ||
	git grep --untracked -n 'nbr[L]ink' -- internal/metro ||
	git grep --untracked -n 'LinkCache' -- internal/wifi ||
	git grep --untracked -n 'AddShard[S]tats\|Stream[S]tat\|Invariant[S]lack\|Trace[R]ing:' -- . ':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md' ||
	git grep --untracked -nw 'Shards' -- internal/netsim ||
	git grep --untracked -n 'Blocks[P]erEpoch' -- '*.go' ||
	git grep --untracked -n 'func (c \*Cluster) Do(' -- internal/shard; then
	echo "verify: a removed mode selector, option, type or slab reappeared (see CHANGES.md)" >&2
	exit 1
fi

# internal/experiments has one sweep path: grid fans out every trial
# loop, and sweep's arm.run is the one place a backlogged netsim network
# is built (Fig. 9c's web driver is the other netsim caller).
exp_netsim_files=$(git grep --untracked -l 'netsim\.New(' -- 'internal/experiments/*.go' ':!internal/experiments/*_test.go' | wc -l)
if [ "$exp_netsim_files" -gt 2 ]; then
	echo "verify: netsim.New( appears in $exp_netsim_files non-test files of internal/experiments; go through sweep (sweep.go)" >&2
	exit 1
fi
if git grep --untracked -n 'trial[F]leet\|scheme[S]weep\|runFig9[T]rial' -- . ':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md'; then
	echo "verify: a hand-rolled experiment trial loop helper reappeared (see CHANGES.md, PR 24)" >&2
	exit 1
fi

# There is one command, cmd/cellfi, and its main.go alone owns the
# process: exit codes, signals, the global flag set and the real
# stdout/stderr. Verbs get a context, their args and two writers, which
# is what lets main_test.go drive every verb in-process.
echo "== one-binary guard"
mains=$(git grep --untracked -l '^package main$' -- 'cmd/*.go' | sed 's|/[^/]*$||' | sort -u)
if [ "$mains" != "cmd/cellfi" ]; then
	echo "verify: cmd/ must hold exactly one package main, cmd/cellfi; found:" $mains >&2
	exit 1
fi
if git grep --untracked -nE 'os\.Exit|log\.Fatal|signal\.[A-Z]|flag\.Parse\(|os\.Std(out|err)' -- \
	'cmd/cellfi/*.go' ':!cmd/cellfi/main.go' ':!cmd/cellfi/*_test.go'; then
	echo "verify: only cmd/cellfi/main.go may exit, catch signals, parse the global flag set or write os.Stdout/os.Stderr" >&2
	exit 1
fi

# Every exported function and method in internal/ must be reached from
# some non-test .go file (cmd/, examples/, bench/ and the root count);
# its own declaration and full-line comments do not. One pass counts
# the identifiers of every non-test file, so a name used anywhere keeps
# every declaration of it alive (method-name collisions err towards
# keeping). Methods of unexported types are not part of a package's
# surface and are skipped. The allowlist is "directory name reason".
echo "== dead-export guard"
dead_allow='
internal/netgraph Valid the oracle and core tests use it as their cross-package referee
internal/netgraph MinSubchannels TestGreedyVsExact referees GreedyColor with it; ROADMAP item 2 needs the exact optimum
internal/paws Unwrap implements the errors.Unwrap interface
internal/trace WriteTo implements io.WriterTo
internal/chaos Matrix the chaos-soak scenario harness, driven by its tests; ROADMAP item 6 folds it into metro
'
dead=$(git grep --untracked -n -e '' -- '*.go' ':!*_test.go' | awk -v allow="$dead_allow" '
BEGIN {
	n = split(allow, lines, "\n")
	for (i = 1; i <= n; i++) {
		split(lines[i], f, " ")
		if (f[2] != "") ok[f[1] " " f[2]] = 1
	}
}
{
	i = index($0, ":"); path = substr($0, 1, i - 1); rest = substr($0, i + 1)
	text = substr(rest, index(rest, ":") + 1)
	if (text ~ /^[ \t]*\/\//) next
	if (text ~ /^func /) {
		recv = "T" # a plain function passes the exported-receiver test
		if (match(text, /^func \([^)]*\) /)) {
			recv = substr(text, 7, RLENGTH - 8)
			sub(/^.* \**/, "", recv)
		}
		sub(/^func (\([^)]*\) )?/, "", text)
		match(text, /^[A-Za-z_][A-Za-z0-9_]*/)
		name = substr(text, 1, RLENGTH)
		text = substr(text, RLENGTH + 1)
		dir = path; sub(/\/[^\/]*$/, "", dir)
		if (dir ~ /^internal\// && name ~ /^[A-Z]/ && recv ~ /^[A-Z]/ && !ok[dir " " name]) {
			nd++; decl[nd] = name; where[nd] = path
		}
	}
	while (match(text, /[A-Za-z_][A-Za-z0-9_]*/)) {
		used[substr(text, RSTART, RLENGTH)] = 1
		text = substr(text, RSTART + RLENGTH)
	}
}
END { for (k = 1; k <= nd; k++) if (!used[decl[k]]) print where[k] ": " decl[k] }')
if [ -n "$dead" ]; then
	echo "verify: exported functions no non-test code reaches (delete them, or allowlist with a reason):" >&2
	echo "$dead" >&2
	exit 1
fi

race_pkgs="runner sim core paws faults trace shard pawsdb pawsload metro netsim"
echo "== go test -race ($race_pkgs cmd/cellfi)"
go test -race $(printf './internal/%s ' $race_pkgs) ./cmd/cellfi

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
