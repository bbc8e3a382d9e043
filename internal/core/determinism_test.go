package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/device"
)

// runAt executes the complete study at the given parallelism and
// returns the rendered report plus the deterministic counter set.
func runAt(t *testing.T, parallelism int) (string, map[string]int64) {
	t.Helper()
	s := NewStudy()
	s.Parallelism = parallelism
	rep, err := s.RunAll()
	if err != nil {
		t.Fatalf("RunAll(parallelism=%d): %v", parallelism, err)
	}
	return rep.Render(s), s.MetricsSnapshot().DeterministicCounters()
}

// firstDiff locates the first differing line between two renderings.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d: %q != %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("line count %d vs %d", len(al), len(bl))
}

// TestParallelStudyDeterminism is the engine's central guarantee: the
// worker-pool study renders byte-identical artifacts (Tables 1-9,
// Figures 1-5, and every derived statistic) and identical deterministic
// telemetry counters at any parallelism. It runs the full study twice —
// sequential and at eight workers — so it is the most expensive test in
// the repository.
func TestParallelStudyDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("double full study skipped in -short mode")
	}
	seqRender, seqCounters := runAt(t, 1)
	parRender, parCounters := runAt(t, 8)

	if seqRender != parRender {
		t.Errorf("rendered reports differ between parallelism 1 and 8: %s",
			firstDiff(seqRender, parRender))
	}
	for name, v := range seqCounters {
		if pv, ok := parCounters[name]; !ok || pv != v {
			t.Errorf("counter %s = %d sequential, %d (present=%v) parallel", name, v, pv, ok)
		}
	}
	for name := range parCounters {
		if _, ok := seqCounters[name]; !ok {
			t.Errorf("counter %s appears only in the parallel run", name)
		}
	}
}

// TestParallelStudyRace is the targeted race-detector workload for the
// worker-pool engine (`make check` runs it under -race): a short
// passive window plus every parallel active suite at eight workers, so
// all concurrent paths — pooled handshakes, sharded capture, verify
// caching, stacked taps — execute without needing the full two-year
// study.
func TestParallelStudyRace(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel study workload skipped in -short mode")
	}
	s := NewStudy()
	s.Parallelism = 8
	s.PassiveTo = device.StudyStart.Next().Next()
	if _, err := s.RunPassive(); err != nil {
		t.Fatalf("passive window: %v", err)
	}
	if _, err := s.CaptureActiveSnapshot(); err != nil {
		t.Fatalf("active snapshot: %v", err)
	}
	if got := len(s.RunInterceptionSuite()); got == 0 {
		t.Fatal("interception suite returned no reports")
	}
	if got := len(s.RunDowngradeSuite()); got == 0 {
		t.Fatal("downgrade suite returned no reports")
	}
	if got := len(s.RunPassthroughSuite()); got == 0 {
		t.Fatal("passthrough suite returned no reports")
	}
	if _, candidates, err := s.RunProbe(); err != nil || candidates == 0 {
		t.Fatalf("probe: %d candidates, err %v", candidates, err)
	}
}
