package core

import (
	"reflect"
	"testing"

	"repro/internal/clock"
)

// TestTelemetryDeterminism runs the same seeded passive window twice in
// fresh testbeds and demands identical deterministic counters and
// histograms: telemetry must observe the simulation, never perturb it.
func TestTelemetryDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func() (map[string]int64, map[string]int64) {
		s := NewStudy()
		s.PassiveFrom, s.PassiveTo = clock.Month{Year: 2018, Mon: 1}, clock.Month{Year: 2018, Mon: 3}
		if _, err := s.RunPassive(); err != nil {
			t.Fatalf("RunPassive: %v", err)
		}
		snap := s.MetricsSnapshot()
		counts := snap.DeterministicCounters()
		histSums := map[string]int64{}
		for name, h := range snap.DeterministicHistograms() {
			histSums[name] = h.Sum
			histSums[name+"#count"] = h.Count
		}
		return counts, histSums
	}
	c1, h1 := run()
	c2, h2 := run()
	if !reflect.DeepEqual(c1, c2) {
		for name, v := range c1 {
			if c2[name] != v {
				t.Errorf("counter %s: run1=%d run2=%d", name, v, c2[name])
			}
		}
		for name := range c2 {
			if _, ok := c1[name]; !ok {
				t.Errorf("counter %s only in run2", name)
			}
		}
		t.Fatal("deterministic counters differ between identical runs")
	}
	if !reflect.DeepEqual(h1, h2) {
		t.Fatalf("deterministic histograms differ between identical runs:\nrun1=%v\nrun2=%v", h1, h2)
	}
	if c1["tlssim.client.handshakes"] == 0 || c1["netem.mirror.frames"] == 0 {
		t.Fatalf("expected nonzero handshake and mirror counters, got %v", c1)
	}
}

// TestStudyPhaseSpans verifies the per-phase study progress counters.
func TestStudyPhaseSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := NewStudy()
	s.PassiveFrom, s.PassiveTo = clock.Month{Year: 2018, Mon: 1}, clock.Month{Year: 2018, Mon: 1}
	if _, err := s.RunPassive(); err != nil {
		t.Fatal(err)
	}
	snap := s.MetricsSnapshot()
	if snap.Counters["core.phase.passive"] != 1 {
		t.Fatalf("core.phase.passive = %d, want 1", snap.Counters["core.phase.passive"])
	}
	if snap.Counters["span.phase.passive.ok"] != 1 {
		t.Fatalf("span.phase.passive.ok = %d, want 1", snap.Counters["span.phase.passive.ok"])
	}
}
