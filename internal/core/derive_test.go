package core

import (
	"testing"

	"repro/internal/mitm"
	"repro/internal/probe"
)

// TestDeriveExperimentsSkippedPhases pins when Figure 4 and the §4.2
// statistic stay unset: only when the degradation log records the phase
// as skipped and no report of it survives. A merge in which one subset
// skipped a phase that another ran keeps the artifact built from the
// reports there are, and a phase that failed still draws from what it
// produced.
func TestDeriveExperimentsSkippedPhases(t *testing.T) {
	t.Parallel()
	s := NewStudy()
	skip := []Degradation{
		{Phase: "passthrough", Reason: errSkipped.Error()},
		{Phase: "probe", Reason: errSkipped.Error()},
	}
	failed := []Degradation{
		{Phase: "passthrough", Reason: "core: phase passthrough panicked: boom"},
		{Phase: "probe", Reason: "core: phase probe panicked: boom"},
	}
	ran := func(log []Degradation) *Report {
		return &Report{
			Degradations: log,
			ProbeReports: []*probe.Report{{Device: "amazon-echo-dot"}},
			Passthroughs: []*mitm.PassthroughReport{{Device: "amazon-echo-dot"}},
		}
	}
	cases := []struct {
		name string
		rep  *Report
		want bool
	}{
		{name: "clean", rep: ran(nil), want: true},
		{name: "skipped", rep: &Report{Degradations: skip}, want: false},
		{name: "merge_partly_skipped", rep: ran(skip), want: true},
		{name: "failed_empty", rep: &Report{Degradations: failed}, want: true},
	}
	for _, tc := range cases {
		s.DeriveExperiments(tc.rep, true)
		if got := tc.rep.Figure4 != nil; got != tc.want {
			t.Errorf("%s: Figure 4 built = %v, want %v", tc.name, got, tc.want)
		}
		if got := tc.rep.Passthrough != nil; got != tc.want {
			t.Errorf("%s: §4.2 statistic built = %v, want %v", tc.name, got, tc.want)
		}
		if tc.rep.Table4Rows == nil {
			t.Errorf("%s: Table 4 not built", tc.name)
		}
	}
}
