GO ?= go

.PHONY: all build fmt-check vet test race docs-check deadcode check bench bench-compare bench-hop bench-engine \
	loadtest loadtest-colocation loadtest-smoke cover size lint metrics-smoke \
	fuzz fuzz-smoke chaos-smoke clean

all: check

build:
	$(GO) build ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# docs-check is the one docs command, run by check and by CI. It fails
# when a DESIGN.md block generated from a registry (§2 experiments, §6
# load scenarios, §9 metric families and event types) differs from what
# the code renders, printing the block to paste; when a phrase the docs pin
# goes missing; when a parameter default fails its own range; or when a
# package loses its godoc comment.
docs-check:
	$(GO) test -run '^Test(RegistryMatchesDesignDoc|ParamDefaultsValidate|EveryPackageHasGodoc|\w+Docs\w*)$$' -v .

# deadcode fails, naming each one, on any top-level declaration that only
# tests reach and on any struct field that only tests read: the module is
# type-checked from source with the standard library, and bench/ and the
# root harness count as callers.
deadcode:
	$(GO) test -run '^TestNoDeadCode$$' -v .

# check is what CI runs.
check: fmt-check vet build docs-check deadcode race

# The repository benchmark (bench/, BENCHMARK.json) is the one perf
# instrument. W names its workloads (default: all five); each run builds
# into the git-ignored .bench_build/. The root harness's per-experiment
# benchmarks are `go test -run xxx -bench . .`, not a make target.
W ?= engine-warm wire-warm wire-routed wire-batch sweep-cold

# bench is one quick 5 s reading of each workload in W: a level, not a
# comparison (shared machines have fast and slow modes; compare commits
# with bench-compare).
bench:
	@for w in $(W); do bash bench/run.sh --workload $$w --seconds 5 --trace 0 || exit 1; done

# bench-compare is a smoke reading of "did my change slow it down": BASE
# (a git revision, default HEAD) is checked out into a temporary
# worktree, and for each workload in W the benchmark runs three pairs of
# 5 s windows, one on BASE and one on the working tree per pair, seeds
# 101-103, the side that goes first flipping every pair. `bench -compare`
# then applies BENCHMARK.json's bounds to the two sets and exits 1 only
# on a `worse` row. Three pairs catch a gross regression, not a close
# call: `unresolved` means the runs spread wider than the bound, and one
# outlier run is enough for that (engine-warm's ~1.5 ms setup_s read
# unresolved on single 2.4-2.6 ms runs that ten pairs of the same trees
# read ok). Re-run an unresolved workload at ten alternating pairs, as
# ROADMAP's rules of engagement ask, before reading anything into it.
# About two minutes per workload.
BASE ?= HEAD
bench-compare:
	@set -eu; \
	tmp=$$(mktemp -d); wt="$$tmp/base"; \
	trap 'rm -rf "$$tmp"; git worktree prune' EXIT; \
	trap 'exit 130' INT TERM; \
	git worktree add --quiet --detach "$$wt" "$(BASE)"; \
	if [ ! -f "$$wt/bench/run.sh" ]; then \
		echo "bench-compare: $(BASE) has no bench/run.sh, so there is nothing to compare against" >&2; exit 2; fi; \
	mkdir "$$tmp/old" "$$tmp/new"; \
	for w in $(W); do for seed in 101 102 103; do \
		case $$seed in 102) order="new old";; *) order="old new";; esac; \
		for side in $$order; do \
			root=.; if [ $$side = old ]; then root="$$wt"; fi; \
			echo "bench-compare: $$w seed $$seed on $$side" >&2; \
			bash "$$root/bench/run.sh" --workload $$w --seed $$seed --seconds 5 --trace 0 \
				-json "$$tmp/$$side/$$w-$$seed.json" >/dev/null; \
		done; \
	done; done; \
	.bench_build/bench -compare "$$tmp/old" "$$tmp/new"

# bench-hop times one front-end -> replica exchange over the frame
# stream, alone and eight deep: ns, cpu-us and allocs per exchange,
# replies checked.
bench-hop:
	$(GO) test -run xxx -bench 'BenchmarkHop' -benchtime 2s -count 3 -cpu 1,2 ./internal/router

# bench-engine is the in-tree core-scaling evidence (DESIGN §6): the warm
# engine hit and the slab Get from 1, 2 and 4 goroutines (ns/op falls as
# cores are added only if the hit path shares nothing it writes), among
# them BenchmarkEngineWarmHit/mix, the repository benchmark's engine-warm
# in-tree (its hot set on the real registry, Zipf draws per goroutine),
# and the boot-and-fill cost the repository benchmark's setup_s is
# sensitive to.
bench-engine:
	$(GO) test -run xxx -bench 'BenchmarkEngineWarmHit|BenchmarkEngineBoot|BenchmarkCacheGetHotParallel' -benchmem -cpu 1,2,4 ./internal/serve

# loadtest runs one load scenario against the in-process engine and
# prints the measured report (SCENARIO/DURATION overridable).
SCENARIO ?= warm-hammer
DURATION ?= 5s
loadtest:
	$(GO) run ./cmd/arch21 loadtest -scenario $(SCENARIO) -duration $(DURATION)

# loadtest-colocation runs the QoS colocation scenario (warmed
# interactive hammer + concurrent batch sweep-storm) with the live
# feedback controller attached and writes the per-class report to /tmp —
# its events field carries the controller's halve/reclaim timeline. The
# verdict itself is asserted by the TestColocation* acceptance tests.
loadtest-colocation:
	GOMAXPROCS=1 $(GO) run ./cmd/arch21 loadtest -scenario colocation -duration 2s -lc-slo 50ms -json /tmp/colocation.json

# loadtest-smoke runs every catalog scenario (arch21 loadtest -list) for
# 300 ms against the in-process engine, then colocation and
# multi-tenant against an in-process 3-replica router, each writing its
# -json report, and stops at the first run that exits nonzero. It
# checks that every scenario still runs end to end and reports; the
# scenarios' verdicts are their acceptance tests'. CI runs it in
# bench-smoke.
loadtest-smoke:
	@set -eu; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/arch21" ./cmd/arch21; \
	for sc in $$("$$tmp/arch21" loadtest -list | awk '{print $$1}'); do \
		echo "loadtest-smoke: $$sc" >&2; \
		"$$tmp/arch21" loadtest -scenario $$sc -duration 300ms -json "$$tmp/$$sc.json" >/dev/null; \
	done; \
	for sc in colocation multi-tenant; do \
		echo "loadtest-smoke: $$sc -replicas 3" >&2; \
		"$$tmp/arch21" loadtest -scenario $$sc -duration 300ms -replicas 3 -json "$$tmp/$$sc-replicas.json" >/dev/null; \
	done

# size prints non-test lines (wc -l) per serving-stack package and their
# sum: the number ROADMAP's "least code" aim tracks, then the module's
# non-test Go lines outside bench/ (and outside dot-directories such as
# .bench_build/). CI prints it in its summary next to the coverage figure;
# nothing gates on it.
size:
	@total=0; for p in serve router load httpapi obs admit sweep qos; do \
		n=$$(ls internal/$$p/*.go | grep -v _test.go | xargs cat | wc -l); \
		printf '%-8s %6d\n' $$p $$n; total=$$((total + n)); done; \
	printf '%-8s %6d\n' total $$total; \
	n=$$(find . \( -path ./bench -o -name '.?*' \) -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l); \
	printf '%-8s %6d  (non-test Go lines outside bench/)\n' module $$n

# cover prints total statement coverage (CI enforces the floor).
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# lint runs the pinned staticcheck CI uses (downloads on first run),
# plus the promlint-style exposition checks on both registries.
lint:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@2025.1.1 ./...
	$(GO) test -run 'TestMetricsExpositionClean|TestRouterMetricsExpositionClean|TestLint' ./internal/serve ./internal/router ./internal/obs

# metrics-smoke boots a real arch21d, scrapes /metrics while it serves,
# and fails on any promlint-style exposition problem. The scrape is left
# in /tmp/metrics-smoke.prom for inspection.
metrics-smoke:
	$(GO) build -o /tmp/arch21d-smoke ./cmd/arch21d
	@/tmp/arch21d-smoke -addr 127.0.0.1:18021 -lc-slo 50ms & pid=$$!; \
	for i in $$(seq 1 50); do \
		curl -sf http://127.0.0.1:18021/healthz >/dev/null 2>&1 && break; sleep 0.1; done; \
	curl -sf http://127.0.0.1:18021/run/E3 >/dev/null; \
	curl -sf http://127.0.0.1:18021/run/E3 >/dev/null; \
	curl -sf http://127.0.0.1:18021/metrics -o /tmp/metrics-smoke.prom; rc=$$?; \
	kill $$pid 2>/dev/null; \
	[ $$rc -eq 0 ] || { echo "metrics-smoke: scrape failed"; exit 1; }
	$(GO) run ./cmd/arch21 metricslint /tmp/metrics-smoke.prom

# fuzz runs every native fuzz target for FUZZTIME each (the local
# acceptance bar). This target is the one authoritative fuzz-target
# list; fuzz-smoke (CI's quick crash check) reuses it at 10s.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run xxx -fuzz FuzzDecodeResult -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run xxx -fuzz FuzzE7OptimumFinding -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run xxx -fuzz FuzzParseAxis -fuzztime $(FUZZTIME) ./internal/sweep
	$(GO) test -run xxx -fuzz FuzzParseRateSchedule -fuzztime $(FUZZTIME) ./internal/workload
	$(GO) test -run xxx -fuzz FuzzBatchFrame -fuzztime $(FUZZTIME) ./internal/httpapi
	$(GO) test -run xxx -fuzz FuzzStreamMessage -fuzztime $(FUZZTIME) ./internal/httpapi
	$(GO) test -run xxx -fuzz FuzzAppendJSONString -fuzztime $(FUZZTIME) ./internal/httpapi
	$(GO) test -run xxx -fuzz FuzzIdentOfMatchesResolveKey -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run xxx -fuzz FuzzDecodeSnapshot -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run xxx -fuzz FuzzOptimalSymmetricR -fuzztime $(FUZZTIME) ./internal/multicore

fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=10s

# chaos-smoke mirrors CI's chaos job locally: a short soak over an
# in-process 3-replica cluster with live fault injection (kills, hangs,
# error bursts), failing unless per-class conservation, the goroutine
# bracket, and the heap bound all hold at the end. Artifacts land in
# /tmp for inspection. SOAK overrides the duration (CI uses 30s).
SOAK ?= 10s
chaos-smoke:
	$(GO) run -race ./cmd/arch21 loadtest -chaos -soak-duration $(SOAK) \
		-replicas 3 -clients 8 -seed 1 \
		-events-log /tmp/chaos-events.ndjson -json /tmp/chaos.json

clean:
	$(GO) clean ./...
