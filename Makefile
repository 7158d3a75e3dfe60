GO ?= go

.PHONY: all build fmt-check vet test race docs-check check bench bench-serve bench-sweep bench-wire \
	bench-routed bench-batch bench-hop bench-engine \
	loadtest loadtest-colocation bench-baseline bench-check cover size lint metrics-smoke \
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

# docs-check fails when DESIGN.md §2 drifts from the experiment registry,
# §4 drifts from the slab-cache implementation, §8 drifts from the admit
# package's policy/class lists, §9 drifts from the obs metric registries
# or event vocabulary, or a package loses its godoc comment.
docs-check:
	$(GO) test -run 'TestRegistryMatchesDesignDoc|TestParamDefaultsValidate|TestEveryPackageHasGodoc|TestReplicaDocsCoverRouter|TestRoutingDocsCoverHedging|TestQoSDocsCoverAdmit|TestObservabilityDocsCoverObs|TestAdversarialWorkloadDocs|TestSlabCacheDocs|TestBatchedDataPlaneDocs' -v .

# check is what CI runs.
check: fmt-check vet build docs-check race

bench:
	$(GO) test -bench=. -benchmem .

bench-serve:
	$(GO) test -run xxx -bench 'BenchmarkServe' -benchmem .

# bench-sweep is the quick reading of POST /v1/sweep over a fresh 64-point
# E7 grid per call: the workload the closed-form Hill-Marty optimum and the
# flush-when-about-to-wait stream (DESIGN §5) are judged on; ops are
# points. The root BenchmarkSweep* stay reachable through `make bench`.
bench-sweep:
	bash bench/run.sh --workload sweep-cold --seconds 5 --trace 0

# bench-wire runs the repository benchmark's wire-warm workload (GET
# /v1/run JSON over loopback; see bench/README.md) for a quick reading.
bench-wire:
	bash bench/run.sh --workload wire-warm --seconds 5 --trace 0

# bench-routed is the same quick reading through the router front-end
# over three HTTP replicas: the workload the replica stream (DESIGN §7)
# is judged on.
bench-routed:
	bash bench/run.sh --workload wire-routed --seconds 5 --trace 0

# bench-batch is the quick reading of POST /v1/batch 64-entry frames
# through the same front-end: the workload the request identity (DESIGN
# §7) is judged on; ops are entries.
bench-batch:
	bash bench/run.sh --workload wire-batch --seconds 5 --trace 0

# bench-hop times one front-end -> replica exchange three ways (net/http
# POST /v1/batch, the frame stream, the stream eight deep): ns, cpu-us
# and allocs per exchange, replies checked.
bench-hop:
	$(GO) test -run xxx -bench 'BenchmarkHop' -benchtime 2s -count 3 -cpu 1,2 ./internal/router

# bench-engine is the in-tree core-scaling evidence (DESIGN §6): the warm
# engine hit and the slab Get from 1, 2 and 4 goroutines (ns/op falls as
# cores are added only if the hit path shares nothing it writes), and the
# boot-and-fill cost the repository benchmark's setup_s is sensitive to.
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
# feedback controller attached and writes the per-class BENCH report —
# its events field carries the controller's halve/reclaim timeline.
# The artifact CI uploads (informational until a colocation baseline is
# committed).
loadtest-colocation:
	$(GO) run ./cmd/arch21 loadtest -scenario colocation -duration 2s -maxprocs 1 -lc-slo 50ms -json BENCH_colocation.json

# bench-baseline refreshes the committed perf baseline CI's bench-smoke
# job gates against: warm-hammer, warm-hammer-4c, and the routed
# cluster-scatter scenario, merged into one three-report file
# (-maxprocs 1 matches the CI measurement for the single-core pair;
# warm-hammer-4c pins its own GOMAXPROCS=4 via the scenario's Cores
# field, so its gate engages at equal core counts too). Run it on an
# idle machine, eyeball the diff, and commit the result.
bench-baseline:
	$(GO) run ./cmd/arch21 loadtest -scenario warm-hammer -duration 2s -maxprocs 1 -json BENCH_baseline.json
	$(GO) run ./cmd/arch21 loadtest -scenario warm-hammer-4c -duration 2s -json BENCH_baseline.json -append
	$(GO) run ./cmd/arch21 loadtest -scenario cluster-scatter -replicas 3 -duration 2s -maxprocs 1 -json BENCH_baseline.json -append

# bench-check mirrors CI's bench-smoke gate locally (all gated
# scenarios).
bench-check:
	$(GO) run ./cmd/arch21 loadtest -scenario warm-hammer -duration 2s -maxprocs 1 -json /tmp/bench.json
	$(GO) run ./cmd/arch21 loadtest -scenario warm-hammer-4c -duration 2s -json /tmp/bench-4c.json
	$(GO) run ./cmd/arch21 loadtest -scenario cluster-scatter -replicas 3 -duration 2s -maxprocs 1 -json /tmp/bench-scatter.json
	$(GO) run ./cmd/arch21 benchcmp -tolerance 0.25 BENCH_baseline.json /tmp/bench.json /tmp/bench-4c.json /tmp/bench-scatter.json

# size prints non-test lines (wc -l) per serving-stack package and their
# sum: the number ROADMAP's "least code" aim tracks. CI prints it in its
# summary next to the coverage figure; nothing gates on it.
size:
	@total=0; for p in serve router load httpapi obs admit sweep qos; do \
		n=$$(ls internal/$$p/*.go | grep -v _test.go | xargs cat | wc -l); \
		printf '%-8s %6d\n' $$p $$n; total=$$((total + n)); done; \
	printf '%-8s %6d\n' total $$total

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
	$(GO) test -run xxx -fuzz FuzzParseAxis -fuzztime $(FUZZTIME) ./internal/sweep
	$(GO) test -run xxx -fuzz FuzzParseRateSchedule -fuzztime $(FUZZTIME) ./internal/workload
	$(GO) test -run xxx -fuzz FuzzBatchFrame -fuzztime $(FUZZTIME) ./internal/httpapi
	$(GO) test -run xxx -fuzz FuzzStreamMessage -fuzztime $(FUZZTIME) ./internal/httpapi
	$(GO) test -run xxx -fuzz FuzzAppendJSONString -fuzztime $(FUZZTIME) ./internal/httpapi
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
