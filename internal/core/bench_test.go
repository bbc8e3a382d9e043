package core

import (
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
