# Drivolution reproduction — build/test/bench entry points.
#
#   make check           # the tier-1 gate: build + vet + lint + tests
#   make check-race      # tier-1 under the race detector (all packages)
#   make tier1           # build + tests only (what scripts/bench.sh gates on)
#   make race            # grant-path packages under the race detector
#   make lint            # vet + doclint + drivolint (LINT_FILTER narrows analyzers)
#   make doclint         # every internal/ package must have a package comment
#   make chaos           # longer fault-injection soak across several seeds
#   make bench           # run the perf-tracked benchmark set
#   make bench-baseline  # tier1 + benches, refresh BENCH_baseline.json
#   make bench-compare   # tier1 + benches, diff against BENCH_baseline.json
#   make loadtest        # fleet-scale load tier: scaled tests + tail gate vs BENCH_tail.json
#   make loadtest-baseline  # full-population load scenarios, refresh BENCH_tail.json
#   make perfbench-test  # vet + test the perfbench module (its own go.mod)
#   make fuzz            # run every Fuzz* target, one at a time, FUZZTIME each
#
# Benchmark knobs (see scripts/README.md): BENCH_COUNT, BENCH_TIME,
# BENCH_FILTER ('.'' = full suite, includes slow lease-traffic sweeps),
# BENCH_PKGS. Fuzz knob: FUZZTIME (per target, default 10s).

.PHONY: check check-race tier1 race lint drivolint doclint chaos bench bench-baseline bench-compare loadtest loadtest-baseline perfbench-test fuzz

# check is the documented tier-1 entry point: everything CI (and the
# next PR) must keep green. lint folds in vet + doclint + drivolint,
# so the tree must be analyzer-clean to merge.
check: lint
	go build ./...
	go test ./...

# lint is the static-analysis gate: go vet, the package-comment lint,
# and the repo's own drivolint analyzer suite (cmd/drivolint). Narrow
# to a subset of analyzers with LINT_FILTER, a regexp over analyzer
# names, e.g. `make lint LINT_FILTER='sqlcheck|latchorder'`.
LINT_FILTER ?= .
lint:
	go vet ./...
	scripts/doclint.sh
	go run ./cmd/drivolint -filter='$(LINT_FILTER)' ./...

drivolint:
	go run ./cmd/drivolint -filter='$(LINT_FILTER)' ./...

# check-race is the tier-1 gate with the race detector on: slower, so
# it is a separate target, but it covers every package — including a
# short chaos soak (TestChaosSoak injects resets/partitions plus a
# server restart; ~2s at the default duration).
check-race:
	go build ./...
	go test -race ./...

# chaos runs the randomized fault-injection soak longer and across
# several fresh seeds (each run logs its seed; rerun one exactly with
# CHAOS_SEED=<n>). Knobs: CHAOS_SEEDS (runs), CHAOS_DURATION (storm
# length per run).
CHAOS_SEEDS ?= 5
CHAOS_DURATION ?= 5s
chaos:
	CHAOS_DURATION=$(CHAOS_DURATION) go test -race -run 'TestChaosSoak' -count=$(CHAOS_SEEDS) -v ./internal/core/

tier1:
	go build ./...
	go test ./...

race:
	go test -race ./internal/core/ ./internal/wire/ ./internal/sqlmini/ ./internal/driverimg/

doclint:
	scripts/doclint.sh

bench:
	scripts/bench.sh run

bench-baseline:
	scripts/bench.sh baseline

bench-compare:
	scripts/bench.sh compare

# loadtest is the fleet-scale tier, off the tier-1 critical path: the
# scaled-down deterministic scenario tests, then the full-population
# steady/storm scenarios gated against the committed BENCH_tail.json
# tail baseline (p50/p95/p99 + statements/sec; see scripts/README.md
# for thresholds and the refresh policy). CLUSTER=3 adds the
# multi-member tier: the scaled server-failover test plus the
# full-population "cluster" scenario (internal/cluster fleet, one
# member killed mid-run).
CLUSTER ?= 0
loadtest:
	CLUSTER="$(CLUSTER)" scripts/loadtest.sh check
	CLUSTER="$(CLUSTER)" scripts/loadtest.sh compare

loadtest-baseline:
	CLUSTER="$(CLUSTER)" scripts/loadtest.sh baseline

# perfbench-test vets and tests the repo benchmark (perfbench/). It is a
# Go module of its own, so `go build/vet/test ./...` at the root never
# reaches it: a core API change that breaks it would otherwise only show
# when the benchmark runs. Off the tier-1 path.
perfbench-test:
	cd perfbench && go vet ./... && go test ./...

# fuzz runs every Fuzz* target in the tree (perfbench and lint testdata
# excluded) for FUZZTIME each, one target at a time: `go test -fuzz`
# accepts a single target per run. Off the tier-1 path; plain `go test`
# already replays each target's seed corpus and any saved crasher under
# testdata/fuzz. A failure leaves its input there as a new regression.
FUZZTIME ?= 10s
fuzz:
	@set -e; \
	for file in $$(grep -rl --include='*_test.go' --exclude-dir=testdata --exclude-dir=perfbench \
			--exclude-dir=.bench_build '^func Fuzz' .); do \
		for target in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$file); do \
			echo "== $$target ($$(dirname $$file), $(FUZZTIME))"; \
			go test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) $$(dirname $$file); \
		done; \
	done
