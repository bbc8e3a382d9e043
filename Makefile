GO ?= go

.PHONY: check build test race race-parallel chaos dataset serve trace cluster fleet perfbench vet profile fuzz cover clean

# check is the full verification gate: vet, build, the test suite under
# the race detector, the parallel-study workload under the race
# detector at eight workers, the fault-injection chaos matrix, the
# dataset round-trip and merge determinism suite, the study-service
# scheduler/drain suite, the trace determinism/attribution/leak suite,
# the coordinator cluster suite, the fleet-scale smoke (10k synthetic
# devices through the month-spill path under a peak-RSS ceiling), and
# the perfbench module's own vet and tests. Performance numbers come
# from perfbench alone (perfbench/run.sh), never from this gate.
check: vet build race race-parallel chaos dataset serve trace cluster fleet perfbench

build:
	$(GO) build ./...

# vet also fails on formatting drift: any file gofmt would rewrite. It
# also guards the crypto boundary: Ed25519 signing and verification
# belong to internal/certs (certificate signatures), so no other
# non-test code can bring back a per-handshake signature. And it
# guards the one passive entry point: only internal/core builds a
# traffic generator (Study.RunPassive), so no non-test code can bring
# back a second passive path that skips the study's window, phase
# record or drain check. And it guards the one transport: non-test code
# connects in-process peers with netem.NewPair, never net.Pipe. And it
# guards the one report derivation: only internal/core builds artifacts
# (Study.Derive and its parts), so a restored report cannot drift from a
# live one. And it guards the one reboot: instance state is reset only
# through device.Reset (internal/tlssim defines ResetState), so no
# experiment can reset some slots and not others. And it guards the one
# wall-clock bound: no non-test code sets a connection deadline outside
# internal/serve, whose HTTP write deadlines act on real sockets; a hung
# simulated connection is the study watchdog's to end (internal/core).
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	@out=$$(grep -rlE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build 'ed25519\.(Sign|Verify)' . | grep -v '^\./internal/certs/'); \
		if [ -n "$$out" ]; then echo "ed25519.Sign/Verify outside internal/certs:"; echo "$$out"; exit 1; fi
	@out=$$(grep -rlE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build 'traffic\.New\(' . | grep -v '^\./internal/core/'); \
		if [ -n "$$out" ]; then echo "traffic.New outside internal/core (use Study.RunPassive):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rlE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build '\bnet\.Pipe\(' .); \
		if [ -n "$$out" ]; then echo "net.Pipe in non-test code (use netem.NewPair):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rlE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build 'analysis\.Build' . | grep -vE '^\./internal/(analysis|core)/'); \
		if [ -n "$$out" ]; then echo "analysis.Build outside internal/analysis and internal/core (use Study.Derive):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rlE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build '\.ResetState\(\)' . | grep -vE '^\./internal/(device|tlssim)/'); \
		if [ -n "$$out" ]; then echo "ResetState outside internal/device and internal/tlssim (use device.Reset):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rlE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build '\.Set(Read|Write)?Deadline\(' . | grep -v '^\./internal/serve/'); \
		if [ -n "$$out" ]; then echo "connection deadline outside internal/serve (the study watchdog bounds simulated connections):"; echo "$$out"; exit 1; fi

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
# x {3,6} workers), straggler speculation, partial degradation, a lost
# worker rejoining and taking work again, the serve-side
# lease/cancel/readiness fabric, and the CRC-verified fetch
# retry/resume loop.
cluster:
	$(GO) test -race -run 'TestCoordinateMatchesLocal|TestCoordChaosMatrix|TestCoordSpeculationWins|TestCoordPartialOnExhaustion|TestCoordWorkerRejoins' \
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

# fuzz runs each native fuzz target for 60 s on one worker: the wire
# decoders (records, read and framed; ClientHello; alerts), the
# dataset decoders (manifests, every record kind, the Content-Range
# start) and netem's corrupt-fault record walk. Plain `go test` runs
# only their seed corpora; commit any crasher written under the
# package's testdata/fuzz/ together with its fix. Not part of check.
fuzz:
	for t in FuzzReadRecord FuzzFramer FuzzParseClientHello FuzzParseAlert; do \
		$(GO) test -run '^$$' -fuzz "^$$t\$$" -fuzztime 60s -parallel 1 ./internal/wire/ || exit 1; \
	done
	for t in FuzzDecodeManifest FuzzDecodeRecord FuzzContentRangeStart; do \
		$(GO) test -run '^$$' -fuzz "^$$t\$$" -fuzztime 60s -parallel 1 ./internal/dataset/ || exit 1; \
	done
	$(GO) test -run '^$$' -fuzz '^FuzzCorruptWalk$$' -fuzztime 60s -parallel 1 ./internal/netem/

# cover runs the whole suite once with every internal and CLI package
# instrumented, so a statement counts as covered whichever test binary
# reaches it. The profiles of all test binaries land in one file
# (cover.out); the report merges their blocks and prints each package's
# statement coverage, then the internal/ total. Not part of check.
cover:
	$(GO) test -count=1 -coverpkg=./internal/...,./cmd/... -coverprofile=cover.out ./... > /dev/null
	@awk -F'[: ]' '!/^mode:/ { b = $$1 ":" $$2; n[b] = $$3; if ($$4 > 0) hit[b] = 1 } \
		END { for (b in n) { split(b, f, ":"); p = f[1]; sub(/\/[^\/]*$$/, "", p); \
			t[p] += n[b]; c[p] += hit[b] * n[b]; \
			if (p ~ /\/internal\//) { ti += n[b]; ci += hit[b] * n[b] } } \
		for (p in t) printf "%-32s %5.1f%%\n", p, 100 * c[p] / t[p] | "sort"; close("sort"); \
		printf "%-32s %5.1f%%\n", "internal/ (total)", 100 * ci / ti }' cover.out

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
	rm -f observations.jsonl trace.json cover.out
