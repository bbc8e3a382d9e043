GO ?= go

.PHONY: check build test race race-parallel chaos dataset serve trace cluster fleet perfbench vet bench bench-telemetry bench-gate profile clean

# check is the full verification gate: vet, build, the test suite under
# the race detector, the parallel-study workload under the race
# detector at eight workers, the fault-injection chaos matrix, the
# dataset round-trip and merge determinism suite, the study-service
# scheduler/drain suite, and the trace determinism/attribution/leak
# suite, the fleet-scale smoke (10k synthetic devices through the
# month-spill path under a peak-RSS ceiling), and the perfbench module's
# own vet and tests. Set BENCH_GATE=1 to
# additionally run the performance
# regression gate (off by default: it re-measures codec throughput, so
# it is meaningful only on quiet, comparable hardware).
check: vet build race race-parallel chaos dataset serve trace cluster fleet perfbench
ifneq ($(BENCH_GATE),)
check: bench-gate
endif

build:
	$(GO) build ./...

# vet also fails on formatting drift: any file gofmt would rewrite. It
# also guards the crypto boundary: Ed25519 signing and verification
# belong to internal/certs (certificate signatures), so no other
# non-test code can bring back a per-handshake signature. And it
# guards the one passive entry point: only internal/core builds a
# traffic generator (Study.RunPassive), so no non-test code can bring
# back a second passive path that skips the study's window, phase
# record or drain check.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	@out=$$(grep -rlE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build 'ed25519\.(Sign|Verify)' . | grep -v '^\./internal/certs/'); \
		if [ -n "$$out" ]; then echo "ed25519.Sign/Verify outside internal/certs:"; echo "$$out"; exit 1; fi
	@out=$$(grep -rlE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build 'traffic\.New\(' . | grep -v '^\./internal/core/'); \
		if [ -n "$$out" ]; then echo "traffic.New outside internal/core (use Study.RunPassive):"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-parallel drives every concurrent engine path — pooled
# handshakes, sharded capture, verify caching, stacked taps — at eight
# workers under the race detector.
race-parallel:
	$(GO) test -race -run TestParallelStudyRace -count=1 ./internal/core/

# chaos runs the fault-seed matrix under the race detector: aggressive
# fault plans across multiple seeds at 1 and 8 workers, asserting the
# study never deadlocks, always renders, stays byte-identical across
# worker counts, and that telemetry fault counters match the plan.
chaos:
	$(GO) test -race -run 'TestChaos' -count=1 -timeout 10m ./internal/core/

# dataset pins the persistent-store contracts: capture → persist →
# restore renders byte-identical artifacts (at 1 and 8 workers, with
# gzip, under faults), the month-spill path writes the same bytes as a
# whole-run Write (at 1 and 8 workers, under faults, over a narrowed
# window, with gzip), multi-run merges are order-independent down to
# the on-disk bytes, provenance collisions are rejected, and corrupted
# shards or manifests always surface wrapped errors.
dataset:
	$(GO) test -race -run 'TestRoundTripByteIdentical|TestStreamingSpill|TestMerge|TestCorrupt|TestGoldenFixture' \
		-count=1 -timeout 10m ./internal/dataset/

# serve pins the study-service contracts under the race detector: the
# scheduler's budget invariant and strict-FIFO admission, concurrent
# jobs matching sequential runs byte for byte, the SIGTERM drain
# persisting analyzable datasets, and the HTTP API surface (per-phase
# progress, CRC-checked shard streaming, 429 shedding).
serve:
	$(GO) test -race -run 'TestScheduler|TestConcurrentJobsMatchSequential|TestDrain|TestHTTPAPIEndToEnd|TestQueueFullSheds429|TestAnalyzeAndMergeJobs|TestPerJobTelemetryIsolation' \
		-count=1 -timeout 10m ./internal/serve/

# cluster pins the distributed study fabric under the race detector:
# the headline kill-one-worker-mid-fetch run staying byte-identical to
# single-node, the coordinator chaos matrix (seeded heartbeat drops,
# corrupted and truncated shard streams, a hostile kill across 2 seeds
# x {3,6} workers), straggler speculation, elastic join/leave, partial
# degradation, the serve-side lease/cancel/readiness fabric, and the
# CRC-verified fetch retry/resume loop.
cluster:
	$(GO) test -race -run 'TestCoordinateMatchesLocal|TestCoordChaosMatrix|TestCoordSpeculationWins|TestCoordElasticJoinLeave|TestCoordPartialOnExhaustion' \
		-count=1 -timeout 20m ./internal/coord/
	$(GO) test -race -run 'TestCancel|TestLease|TestReadyz|TestFetch' \
		-count=1 -timeout 10m ./internal/serve/ ./internal/dataset/ ./internal/fault/

# fleet is the scale smoke: the synthetic-fleet generator's
# subset-composability contract, plus a 10k-device two-month window
# through the streaming month-spill path asserting peak RSS stays
# under the memory-bounded engine's ceiling. `go test -short` drops
# the fleet to 1k devices for quick iteration.
fleet:
	$(GO) test -run 'TestFleetSmoke|TestFleetDeterminism' -count=1 -timeout 15m ./internal/fleet/

# perfbench vets and tests the benchmark module. It has its own go.mod,
# so `go build ./...` and `go test ./...` at the root never compile it,
# yet it drives the dataset and core APIs directly.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# trace pins the causal-trace contracts under the race detector: an
# aggressive-fault study at parallelism 1 and 8 emits byte-identical
# trace.bin shards and Chrome exports, passive-phase abandonments are
# attributed to fault-injection spans, a full study leaks no spans, and
# every phase's span.phase.* metrics carry its tree span's status.
trace:
	$(GO) test -race -run 'TestTraceDeterminism|TestTraceErrorsAttributesDegradations|TestStudyLeaksNoSpans|TestPhaseMetricsMatchTree' \
		-count=1 -timeout 10m ./internal/core/

# bench measures the full study sequential vs parallel (in-memory and
# with simulated 5ms connection-setup latency) and writes
# BENCH_study.json; it then measures fault-subsystem overhead
# (baseline vs armed-but-empty plan vs mild plan) into
# BENCH_faults.json, dataset I/O throughput plus the
# analyze-from-disk vs resimulate speedup into BENCH_dataset.json,
# service throughput into BENCH_serve.json, the always-on tracing
# overhead (traced vs -no-trace, budget 5%) into BENCH_trace.json,
# single-node vs coordinated-fleet wall time (the distribution
# overhead ratio on one machine) into BENCH_coord.json, and the
# fleet-scale memory profile (peak RSS at 10k and 100k synthetic
# devices, each measured in its own process) into BENCH_fleet.json.
bench:
	$(GO) test ./internal/core/ -run TestEmitStudyBench -count=1 -timeout 30m \
		-study.benchout=$(CURDIR)/BENCH_study.json
	$(GO) test ./internal/core/ -run TestEmitFaultsBench -count=1 -timeout 30m \
		-faults.benchout=$(CURDIR)/BENCH_faults.json
	$(GO) test ./internal/dataset/ -run TestEmitDatasetBench -count=1 -timeout 30m \
		-dataset.benchout=$(CURDIR)/BENCH_dataset.json
	$(GO) test ./internal/serve/ -run TestEmitServeBench -count=1 -timeout 30m \
		-serve.benchout=$(CURDIR)/BENCH_serve.json
	$(GO) test ./internal/core/ -run TestEmitTraceBench -count=1 -timeout 30m \
		-trace.benchout=$(CURDIR)/BENCH_trace.json
	$(GO) test ./internal/coord/ -run TestEmitCoordBench -count=1 -timeout 30m \
		-coord.benchout=$(CURDIR)/BENCH_coord.json
	$(GO) test ./internal/fleet/ -run TestEmitFleetBench -count=1 -timeout 60m \
		-fleet.benchout=$(CURDIR)/BENCH_fleet.json

# bench-telemetry runs the full study through `iotls metrics report`
# and captures the deterministic telemetry report.
bench-telemetry:
	$(GO) run ./cmd/iotls metrics report -o BENCH_telemetry.json > /dev/null

# bench-gate is the performance regression gate: it fails if the
# committed BENCH_study.json reports speedup_no_latency < 1.0, or if
# freshly measured dataset codec throughput regresses more than 10%
# below the committed BENCH_dataset.json. Opt into it from the full
# gate with `make check BENCH_GATE=1`.
bench-gate:
	$(GO) test ./internal/dataset/ -run TestBenchGate -count=1 -timeout 30m -v \
		-dataset.benchgate=$(CURDIR)

# profile captures CPU and heap profiles of the full-study benchmark
# (in-memory sequential + parallel pair) into ./profiles/ and prints
# the top-10 flat entries of each, so the next perf pass starts from
# data instead of guesses.
profile:
	mkdir -p profiles
	$(GO) test ./internal/core/ -run '^$$' -bench 'BenchmarkFullStudy/(sequential|parallel)$$' \
		-benchtime 3x -count=1 -timeout 30m \
		-cpuprofile $(CURDIR)/profiles/cpu.out -memprofile $(CURDIR)/profiles/mem.out \
		-o $(CURDIR)/profiles/bench.test
	$(GO) tool pprof -top -flat -nodecount=10 $(CURDIR)/profiles/bench.test $(CURDIR)/profiles/cpu.out
	$(GO) tool pprof -top -flat -nodecount=10 -sample_index=alloc_objects $(CURDIR)/profiles/bench.test $(CURDIR)/profiles/mem.out

clean:
	rm -f observations.jsonl trace.json
	rm -rf trace-example-data
