package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced Clock for snapshot tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

// TestConcurrentHammer drives every instrument type from many
// goroutines; run under -race this is the package's data-race proof.
func TestConcurrentHammer(t *testing.T) {
	r := New(nil)
	const workers = 16
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("hammer.count").Inc()
				r.Counter("hammer.add").Add(3)
				r.Gauge("hammer.gauge").Set(int64(i))
				r.Histogram("hammer.hist", SizeBuckets).Observe(int64(i % 5000))
				r.Counter("span.hammer.ok").Inc()
				r.Histogram("span.hammer.wall_us", DurationBucketsUS).Observe(int64(i))
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()

	snap := r.Snapshot()
	if got := snap.Counters["hammer.count"]; got != workers*iters {
		t.Errorf("hammer.count = %d, want %d", got, workers*iters)
	}
	if got := snap.Counters["hammer.add"]; got != 3*workers*iters {
		t.Errorf("hammer.add = %d, want %d", got, 3*workers*iters)
	}
	h := snap.Histograms["hammer.hist"]
	if h.Count != workers*iters {
		t.Errorf("hist count = %d, want %d", h.Count, workers*iters)
	}
	var bucketSum int64
	for _, c := range h.Counts {
		bucketSum += c
	}
	if bucketSum != h.Count {
		t.Errorf("bucket counts sum to %d, want %d", bucketSum, h.Count)
	}
	if got := snap.Counters["span.hammer.ok"]; got != workers*iters {
		t.Errorf("span.hammer.ok = %d, want %d", got, workers*iters)
	}
	if got := snap.Histograms["span.hammer.wall_us"].Count; got != workers*iters {
		t.Errorf("span.hammer.wall_us count = %d, want %d", got, workers*iters)
	}
}

// TestNilRegistrySafe verifies every instrument degrades to a no-op on
// a nil registry — instrumented code never checks for enablement.
func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(7)
	r.Histogram("x", DurationBucketsUS).Observe(12)
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Histograms) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", snap)
	}
}

// drive applies an identical deterministic workload to a registry.
func drive(r *Registry, clk *fakeClock) {
	for i := 0; i < 500; i++ {
		r.Counter("run.events").Inc()
		r.Counter("run.bytes").Add(int64(i * 17 % 301))
		r.Histogram("run.size", SizeBuckets).Observe(int64(i * 31 % 4096))
		virt, wall := r.Now(), time.Now()
		clk.advance(time.Duration(i%7+1) * time.Millisecond)
		status := "ok"
		if i%9 == 0 {
			status = "failed"
		}
		r.Counter("span.op." + status).Inc()
		r.Histogram("span.op.virtual_us", DurationBucketsUS).Observe(r.Now().Sub(virt).Microseconds())
		r.Histogram("span.op.wall_us", DurationBucketsUS).Observe(time.Since(wall).Microseconds())
	}
}

// TestSnapshotDeterminism: two registries fed the same seeded workload
// must agree on every deterministic counter and histogram, and their
// snapshots must serialize to identical JSON after stripping
// wall-clock metrics.
func TestSnapshotDeterminism(t *testing.T) {
	base := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	mk := func() *Snapshot {
		clk := &fakeClock{now: base}
		r := New(clk)
		drive(r, clk)
		return r.Snapshot()
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a.DeterministicCounters(), b.DeterministicCounters()) {
		t.Errorf("counters differ:\n%v\n%v", a.DeterministicCounters(), b.DeterministicCounters())
	}
	if !reflect.DeepEqual(a.DeterministicHistograms(), b.DeterministicHistograms()) {
		t.Errorf("histograms differ")
	}
	ja, _ := json.Marshal(a.DeterministicCounters())
	jb, _ := json.Marshal(b.DeterministicCounters())
	if !bytes.Equal(ja, jb) {
		t.Errorf("deterministic counter JSON differs:\n%s\n%s", ja, jb)
	}
	// Sanity: the wall-us histograms exist but were filtered.
	if _, ok := a.Histograms["span.op.wall_us"]; !ok {
		t.Error("span.op.wall_us histogram missing from raw snapshot")
	}
	if _, ok := a.DeterministicHistograms()["span.op.wall_us"]; ok {
		t.Error("wall histogram leaked into deterministic set")
	}
}

// TestHistogramBuckets verifies bucket assignment at the boundaries.
func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]int64{10, 100})
	for _, v := range []int64{0, 10, 11, 100, 101, 5000} {
		h.Observe(v)
	}
	want := []int64{2, 2, 2} // <=10, <=100, overflow
	got := h.snapshot().Counts
	if !reflect.DeepEqual(got, want) {
		t.Errorf("bucket counts = %v, want %v", got, want)
	}
	if h.Sum() != 0+10+11+100+101+5000 {
		t.Errorf("sum = %d", h.Sum())
	}
}

// TestCounterMonotonic: negative Add must be ignored.
func TestCounterMonotonic(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Errorf("value = %d, want 5", c.Value())
	}
}
