// Package telemetry is the testbed's dependency-free metrics core:
// atomic counters and gauges and fixed-bucket histograms, snapshotted
// against the simulated clock. Causal, per-connection records live in
// repro/internal/trace; study phases and dataset operations report
// their outcomes here as span.<name>.<status> counters with duration
// histograms.
//
// Design constraints, in order:
//
//   - Determinism. Instrumentation must never perturb the simulation.
//     Counters, gauges and virtual-time measurements are pure functions
//     of the (seeded, deterministic) simulation, so two identical runs
//     produce identical values. Wall-clock measurements are inherently
//     nondeterministic; by convention every such metric name carries a
//     "wall" segment (e.g. "span.phase.passive.wall_us") and
//     Snapshot.DeterministicCounters / DeterministicHistograms filter
//     them out for run-to-run comparison.
//
//   - Concurrency. Every instrument is safe for concurrent use from the
//     connections' client and server goroutines and analysis code, and
//     the hot-path operations (Counter.Add, Histogram.Observe) are
//     single atomic ops after the first lookup.
//
//   - Optionality. A nil *Registry is fully usable: every method
//     degrades to a no-op (returning shared no-op instruments), so
//     instrumented code never branches on "is telemetry enabled".
//
// The package depends only on the standard library; the simulated clock
// is injected through the local Clock interface, which
// repro/internal/clock.Clock satisfies structurally.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Clock is the time source for snapshots. It is satisfied by
// repro/internal/clock.Clock without importing it, keeping this package
// dependency-free.
type Clock interface {
	Now() time.Time
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is ignored: counters are monotonic).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry holds every instrument created under one testbed. The zero
// value is not usable; construct with New. All methods are safe for
// concurrent use, and all methods are no-ops on a nil receiver.
type Registry struct {
	clock Clock

	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New builds an empty registry reading time through clk. A nil clk
// falls back to the wall clock.
func New(clk Clock) *Registry {
	return &Registry{
		clock:    clk,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Now returns the registry's current (virtual) time.
func (r *Registry) Now() time.Time {
	if r == nil || r.clock == nil {
		return time.Now()
	}
	return r.clock.Now()
}

// shared no-op instruments handed out by nil registries. They are real
// instruments (their operations are harmless), just never snapshotted.
var (
	noopCounter Counter
	noopGauge   Gauge
	noopHist    = newHistogram(nil)
)

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &noopCounter
	}
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &noopGauge
	}
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use. Later calls with different bounds
// return the existing histogram unchanged (first registration wins).
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return noopHist
	}
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = newHistogram(bounds)
	r.hists[name] = h
	return h
}
