package telemetry

import (
	"encoding/json"
	"io"
	"strings"
	"time"
)

// Snapshot is a consistent-enough copy of every instrument in a
// registry, taken instrument-by-instrument (counters keep advancing
// while a snapshot is in progress; each read value is itself atomic).
// It marshals to deterministic JSON: encoding/json sorts map keys.
type Snapshot struct {
	// TakenAt is the virtual time of the snapshot.
	TakenAt    time.Time                    `json:"taken_at"`
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the current state of every instrument. A nil
// registry yields an empty snapshot.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	s.TakenAt = r.Now()
	r.mu.RLock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	r.mu.RUnlock()
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// nondeterministic reports whether a metric name measures wall-clock
// time, which varies run to run. The convention: any dot-separated
// name segment equal to or prefixed by "wall" (wall_us, wall_ms,
// wall_ns).
func nondeterministic(name string) bool {
	for _, seg := range strings.Split(name, ".") {
		if strings.HasPrefix(seg, "wall") {
			return true
		}
	}
	return false
}

// DeterministicCounters returns the counters that must be identical
// across two runs of the same seeded simulation.
func (s *Snapshot) DeterministicCounters() map[string]int64 {
	out := make(map[string]int64, len(s.Counters))
	for name, v := range s.Counters {
		if !nondeterministic(name) {
			out[name] = v
		}
	}
	return out
}

// DeterministicHistograms returns the histograms that must be identical
// across two runs of the same seeded simulation.
func (s *Snapshot) DeterministicHistograms() map[string]HistogramSnapshot {
	out := make(map[string]HistogramSnapshot, len(s.Histograms))
	for name, h := range s.Histograms {
		if !nondeterministic(name) {
			out[name] = h
		}
	}
	return out
}
