package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile of xs (0 <= p <= 100), linearly
// interpolated between closest ranks; NaN for an empty slice. xs is not
// modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 90, 75, 50}

// tailPercentile picks the highest percentile of tailPercentiles that
// still has at least ten of n samples beyond it; ok is false when even
// the lowest has fewer.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100-99.9 is not exact
			return p, true
		}
	}
	return 0, false
}

// describeTail renders the median and the supported tail percentile of
// a timing sample with its count, e.g. "p50 12.1 ms, p90 15.0 ms (n=120)".
func describeTail(xs []float64, unit string) string {
	if len(xs) == 0 {
		return "no samples"
	}
	out := fmt.Sprintf("p50 %.4g %s", median(xs), unit)
	if p, ok := tailPercentile(len(xs)); ok {
		out += fmt.Sprintf(", p%g %.4g %s", p, percentile(xs, p), unit)
	} else {
		out += ", no tail percentile has 10 samples beyond it"
	}
	return out + fmt.Sprintf(" (n=%d)", len(xs))
}

// sum adds xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
