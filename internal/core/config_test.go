package core

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/clock"
	"repro/internal/traffic"
)

func month(y int, m time.Month) clock.Month { return clock.Month{Year: y, Mon: m} }

// TestParseWindow pins the FROM..TO grammar, including the half-open
// forms the CLI documents.
func TestParseWindow(t *testing.T) {
	t.Parallel()
	cases := []struct {
		in       string
		from, to clock.Month
		wantErr  string
	}{
		{in: "", from: clock.Month{}, to: clock.Month{}},
		{in: "2018-01..2018-06", from: month(2018, time.January), to: month(2018, time.June)},
		{in: "..2018-06", from: clock.Month{}, to: month(2018, time.June)},
		{in: "2018-03..", from: month(2018, time.March), to: clock.Month{}},
		{in: "2018-01", wantErr: "want FROM..TO"},
		{in: "2018-06..2018-01", wantErr: "inverted"},
		{in: "garbage..2018-01", wantErr: "invalid month"},
	}
	for _, tc := range cases {
		from, to, err := ParseWindow(tc.in)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ParseWindow(%q): err = %v, want %q", tc.in, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseWindow(%q): %v", tc.in, err)
			continue
		}
		if from != tc.from || to != tc.to {
			t.Errorf("ParseWindow(%q) = %v..%v, want %v..%v", tc.in, from, to, tc.from, tc.to)
		}
	}
}

// TestConfigValidate pins the pre-build checks shared by the CLI flag
// parser and the serve job validator.
func TestConfigValidate(t *testing.T) {
	t.Parallel()
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config: %v", err)
	}
	bad := Config{FaultProfile: "catastrophic"}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "unknown fault profile") {
		t.Errorf("unknown profile: err = %v", err)
	}
	inverted := Config{WindowFrom: month(2018, time.June), WindowTo: month(2018, time.January)}
	if err := inverted.Validate(); err == nil || !strings.Contains(err.Error(), "inverted") {
		t.Errorf("inverted window: err = %v", err)
	}
}

// TestConfigFaultArming pins the CLI defaulting rules: a bare seed uses
// the mild profile, a bare profile uses seed 1, both zero means off.
// The plan is read back from the network, the copy that injects.
func TestConfigFaultArming(t *testing.T) {
	t.Parallel()
	if s, err := NewStudyFromConfig(Config{}); err != nil || s.Network.FaultPlan() != nil {
		t.Errorf("clean config: faults = %v, err = %v", s.Network.FaultPlan(), err)
	}
	if s, err := NewStudyFromConfig(Config{FaultSeed: 7}); err != nil || s.Network.FaultPlan() == nil ||
		s.Network.FaultPlan().Seed() != 7 || s.Network.FaultPlan().Profile().Name != "mild" {
		t.Errorf("bare seed: faults = %v, err = %v; want seed 7, mild", s.Network.FaultPlan(), err)
	}
	if s, err := NewStudyFromConfig(Config{FaultProfile: "aggressive"}); err != nil || s.Network.FaultPlan() == nil ||
		s.Network.FaultPlan().Seed() != 1 || s.Network.FaultPlan().Profile().Name != "aggressive" {
		t.Errorf("bare profile: faults = %v, err = %v; want seed 1, aggressive", s.Network.FaultPlan(), err)
	}
	if _, err := NewStudyFromConfig(Config{Devices: []string{"no-such-device"}}); err == nil {
		t.Error("unknown device subset built a study")
	}
}

// TestConfigFleetRunsTraceFree pins that a synthetic fleet never arms
// the in-memory tracer, even with NoTrace left false, while the catalog
// traces by default; and that the study remembers its fleet spec.
func TestConfigFleetRunsTraceFree(t *testing.T) {
	t.Parallel()
	s, err := NewStudyFromConfig(Config{FleetN: 20, FleetSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if s.Tracer() != nil {
		t.Error("fleet study armed a tracer")
	}
	if got := s.Fleet(); got.N != 20 || got.Seed != 7 {
		t.Errorf("Fleet() = n=%d seed=%d, want n=20 seed=7", got.N, got.Seed)
	}
	if s, err = NewStudyFromConfig(Config{}); err != nil || s.Tracer() == nil {
		t.Errorf("catalog study: tracer = %v, err = %v; want a tracer", s.Tracer(), err)
	}
	if got := s.Fleet(); got.N != 0 {
		t.Errorf("catalog Fleet().N = %d, want 0", got.N)
	}
}

// TestWorkersResolvedOnce pins that a study's worker count is fixed at
// first use: a GOMAXPROCS change mid-run (possible under a long-lived
// serve process) must not hand later phases a different count.
func TestWorkersResolvedOnce(t *testing.T) {
	s := NewStudy()
	first := s.Workers()
	old := runtime.GOMAXPROCS(first + 3)
	defer runtime.GOMAXPROCS(old)
	if got := s.Workers(); got != first {
		t.Errorf("Workers changed mid-study: %d then %d", first, got)
	}
}

// TestInterruptSkipsPhases pins the drain contract inside core: an
// interrupted study skips every phase it hasn't started, records each
// skip as a degradation, and still returns a renderable report.
func TestInterruptSkipsPhases(t *testing.T) {
	if testing.Short() {
		t.Skip("study e2e skipped in -short mode")
	}
	s, err := NewStudyFromConfig(Config{
		WindowFrom: month(2018, time.January),
		WindowTo:   month(2018, time.January),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.PhaseDone = func(name string) {
		if name == "passive_analysis" {
			s.Interrupt()
		}
	}
	rep, err := s.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded() {
		t.Fatal("interrupted run is not degraded")
	}
	skipped := make(map[string]bool)
	for _, d := range rep.Degradations {
		if strings.Contains(d.Reason, "interrupted") || strings.Contains(d.Reason, "skipped") {
			skipped[d.Phase] = true
		}
	}
	for _, phase := range []string{"active_capture", "downgrade", "old_version", "interception", "probe", "passthrough"} {
		if !skipped[phase] {
			t.Errorf("phase %s was not skipped", phase)
		}
	}
	if skipped["passive"] || skipped["passive_analysis"] {
		t.Error("phases that ran before the interrupt were marked skipped")
	}
	if rep.Render(s) == "" {
		t.Error("interrupted report renders empty")
	}
}

// TestPassiveTruncationDeterministic pins the month-boundary stop
// contract the drain path relies on: a generator stopped after N months
// produces exactly the observations of a clean N-month run.
func TestPassiveTruncationDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("study e2e skipped in -short mode")
	}
	runMonths := func(stopAfter int, from, to clock.Month) *Study {
		s := NewStudy()
		gen := traffic.New(s.Network, s.Registry, s.Collector, s.Clock)
		gen.Parallelism = s.Workers()
		if stopAfter > 0 {
			months := 0
			gen.Stop = func() bool {
				months++
				return months > stopAfter
			}
		}
		if _, err := gen.Run(from, to); err != nil {
			t.Fatal(err)
		}
		return s
	}
	dump := func(s *Study) string {
		var b bytes.Buffer
		if _, err := capture.WriteJSONL(&b, s.Store); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	jan, mar := month(2018, time.January), month(2018, time.March)
	truncated := runMonths(2, jan, mar) // stops before the third month
	clean := runMonths(0, jan, month(2018, time.February))
	want, got := dump(clean), dump(truncated)
	if want == "" {
		t.Fatal("clean run captured nothing")
	}
	if got != want {
		t.Errorf("truncated capture differs from clean 2-month capture (%d vs %d bytes)", len(got), len(want))
	}
}
