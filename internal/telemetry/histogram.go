package telemetry

import (
	"sort"
	"sync/atomic"
)

// Common bucket layouts. Bounds are inclusive upper bounds; one
// implicit overflow bucket catches everything above the last bound.
var (
	// DurationBucketsUS spans 50µs to 1s, the range of interest for
	// phase and dataset-operation wall times in this testbed.
	DurationBucketsUS = []int64{50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000, 1_000_000}

	// SizeBuckets spans 64B to 64KiB, the range of per-connection byte
	// volumes the gateway mirror sees.
	SizeBuckets = []int64{64, 128, 256, 512, 1_024, 2_048, 4_096, 8_192, 16_384, 65_536}
)

// Histogram is a fixed-bucket histogram of int64 observations
// (microseconds, bytes, counts). Observe is a few atomic adds; bounds
// are immutable after construction.
type Histogram struct {
	bounds []int64        // sorted inclusive upper bounds
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	count  atomic.Int64
	sum    atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	bs := append([]int64(nil), bounds...)
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	// Binary search for the first bound >= v.
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// HistogramSnapshot is the exported state of a Histogram. Counts has
// one entry per bound plus a final overflow bucket.
type HistogramSnapshot struct {
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
	Bounds []int64 `json:"bounds,omitempty"`
	Counts []int64 `json:"counts,omitempty"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
		Bounds: append([]int64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}
