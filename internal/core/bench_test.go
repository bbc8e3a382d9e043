package core

import (
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/netem"
)

// benchParallelism is the worker count the parallel benchmarks use. A
// fixed count (rather than GOMAXPROCS) keeps the measurement meaningful
// on small machines: latency overlap pays off even on one core.
const benchParallelism = 8

// benchDialDelay is the simulated connection-setup RTT for the
// *_latency benchmarks. The in-memory testbed collapses the network
// round-trips a real deployment pays on every TLS connection; adding
// them back shows the overlap the worker pool buys.
const benchDialDelay = 5 * time.Millisecond

// benchStudy runs the complete study — passive window, active suites,
// probe, and report rendering — at the given parallelism.
func benchStudy(b *testing.B, parallelism int, delay time.Duration) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewStudy()
		s.Parallelism = parallelism
		if delay > 0 {
			// Registered before any experiment tap, so every dial
			// pays the delay and then routes as usual.
			s.Network.AddTap(func(netem.ConnMeta) netem.Handler {
				time.Sleep(delay)
				return nil
			})
		}
		rep, err := s.RunAll()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Render(s) == "" {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkFullStudy compares the sequential engine against the worker
// pool, both on the raw in-memory transport and with a simulated 5ms
// connection-setup latency.
func BenchmarkFullStudy(b *testing.B) {
	b.Run("sequential", func(b *testing.B) { benchStudy(b, 1, 0) })
	b.Run("parallel", func(b *testing.B) { benchStudy(b, benchParallelism, 0) })
	b.Run("sequential_latency", func(b *testing.B) { benchStudy(b, 1, benchDialDelay) })
	b.Run("parallel_latency", func(b *testing.B) { benchStudy(b, benchParallelism, benchDialDelay) })
}

// benchFaultStudy runs the complete study with a fault plan armed (or
// nil for the unarmed baseline) at the given parallelism.
func benchFaultStudy(b *testing.B, parallelism int, plan func() *fault.Plan) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewStudy()
		s.Parallelism = parallelism
		if plan != nil {
			s.SetFaultPlan(plan())
		}
		rep, err := s.RunAll()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Render(s) == "" {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkFaultInjection measures what arming the fault subsystem
// costs: the decision path runs on every dial even when the profile
// ("off") can never injure a connection, so the baseline-vs-empty-plan
// pair isolates the plan's bookkeeping overhead.
func BenchmarkFaultInjection(b *testing.B) {
	b.Run("baseline", func(b *testing.B) { benchFaultStudy(b, benchParallelism, nil) })
	b.Run("empty_plan", func(b *testing.B) {
		benchFaultStudy(b, benchParallelism, func() *fault.Plan { return fault.NewPlan(1, fault.Profiles["off"]) })
	})
	b.Run("mild_plan", func(b *testing.B) {
		benchFaultStudy(b, benchParallelism, func() *fault.Plan { return fault.NewPlan(1, fault.Profiles["mild"]) })
	})
}

var studyBenchOut = flag.String("study.benchout", "", "write the full-study benchmark comparison to this JSON file")

// seedParallelAllocsPerOp is the parallel-study allocs/op pinned in the
// BENCH_study.json committed by the growth seed (schema v1). The v2
// schema reports the relative change against it so every later bench
// run states its allocation progress explicitly; -0.30 means 30% fewer
// allocations than the seed engine.
const seedParallelAllocsPerOp = 5748986

// benchEntry is one measured configuration in BENCH_study.json.
type benchEntry struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

func entry(r testing.BenchmarkResult) benchEntry {
	return benchEntry{NsPerOp: r.NsPerOp(), AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp()}
}

// TestEmitStudyBench measures the four BenchmarkFullStudy
// configurations via testing.Benchmark and writes BENCH_study.json.
// It only runs when -study.benchout is set (`make bench`).
func TestEmitStudyBench(t *testing.T) {
	if *studyBenchOut == "" {
		t.Skip("set -study.benchout to emit BENCH_study.json")
	}
	one := func(parallelism int, delay time.Duration) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) { benchStudy(b, parallelism, delay) })
	}
	seq := one(1, 0)
	par := one(benchParallelism, 0)
	seqLat := one(1, benchDialDelay)
	parLat := one(benchParallelism, benchDialDelay)

	doc := struct {
		Schema      string     `json:"schema"`
		Cores       int        `json:"cores"`
		Parallelism int        `json:"parallelism"`
		DialDelayMS int64      `json:"dial_delay_ms"`
		Sequential  benchEntry `json:"sequential"`
		Parallel    benchEntry `json:"parallel"`
		SeqLatency  benchEntry `json:"sequential_latency"`
		ParLatency  benchEntry `json:"parallel_latency"`
		// Speedup compares the latency-realistic pair: on multi-core
		// machines the in-memory pair shows a comparable ratio, while
		// on a single core only the overlapped network waits pay off.
		Speedup          float64 `json:"speedup"`
		SpeedupNoLatency float64 `json:"speedup_no_latency"`
		// AllocsDeltaVsSeed is (parallel allocs/op − seed) / seed: the
		// relative allocation change against the committed seed engine.
		// Negative means fewer allocations.
		AllocsDeltaVsSeed float64 `json:"allocs_delta_vs_seed"`
	}{
		Schema:            "iotls/bench-study/v2",
		Cores:             runtime.NumCPU(),
		Parallelism:       benchParallelism,
		DialDelayMS:       benchDialDelay.Milliseconds(),
		Sequential:        entry(seq),
		Parallel:          entry(par),
		SeqLatency:        entry(seqLat),
		ParLatency:        entry(parLat),
		Speedup:           float64(seqLat.NsPerOp()) / float64(parLat.NsPerOp()),
		SpeedupNoLatency:  float64(seq.NsPerOp()) / float64(par.NsPerOp()),
		AllocsDeltaVsSeed: float64(par.AllocsPerOp()-seedParallelAllocsPerOp) / float64(seedParallelAllocsPerOp),
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*studyBenchOut, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("speedup %.2fx latency-realistic, %.2fx in-memory (%d cores)", doc.Speedup, doc.SpeedupNoLatency, doc.Cores)
}

var faultsBenchOut = flag.String("faults.benchout", "", "write the fault-injection overhead comparison to this JSON file")

// TestEmitFaultsBench measures the BenchmarkFaultInjection
// configurations via testing.Benchmark and writes BENCH_faults.json.
// The headline number is overhead_ratio_empty: an armed-but-empty
// ("off") plan still runs the decision path on every dial, and that
// bookkeeping should cost approximately nothing (ratio ≈ 1.0).
// It only runs when -faults.benchout is set (`make bench`).
func TestEmitFaultsBench(t *testing.T) {
	if *faultsBenchOut == "" {
		t.Skip("set -faults.benchout to emit BENCH_faults.json")
	}
	one := func(plan func() *fault.Plan) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) { benchFaultStudy(b, benchParallelism, plan) })
	}
	baseline := one(nil)
	empty := one(func() *fault.Plan { return fault.NewPlan(1, fault.Profiles["off"]) })
	mild := one(func() *fault.Plan { return fault.NewPlan(1, fault.Profiles["mild"]) })

	doc := struct {
		Schema      string     `json:"schema"`
		Cores       int        `json:"cores"`
		Parallelism int        `json:"parallelism"`
		Baseline    benchEntry `json:"baseline"`
		EmptyPlan   benchEntry `json:"empty_plan"`
		MildPlan    benchEntry `json:"mild_plan"`
		// OverheadRatioEmpty is empty-plan ns/op over baseline ns/op —
		// the cost of arming the subsystem with no faults to inject.
		OverheadRatioEmpty float64 `json:"overhead_ratio_empty"`
		// OverheadRatioMild is mild-plan ns/op over baseline ns/op —
		// what a realistic fault campaign (retries and all) adds.
		OverheadRatioMild float64 `json:"overhead_ratio_mild"`
	}{
		Schema:             "iotls/bench-faults/v1",
		Cores:              runtime.NumCPU(),
		Parallelism:        benchParallelism,
		Baseline:           entry(baseline),
		EmptyPlan:          entry(empty),
		MildPlan:           entry(mild),
		OverheadRatioEmpty: float64(empty.NsPerOp()) / float64(baseline.NsPerOp()),
		OverheadRatioMild:  float64(mild.NsPerOp()) / float64(baseline.NsPerOp()),
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*faultsBenchOut, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("empty-plan overhead %.3fx, mild-plan overhead %.3fx (%d cores)", doc.OverheadRatioEmpty, doc.OverheadRatioMild, doc.Cores)
}
