// The derivation: every artifact a Report carries is built here, and
// only here, from the report's evidence — the passive store, the active
// store, the probe, suite and passthrough reports, and the degradation
// log. RunAll derives each part as soon as its evidence exists;
// dataset.Restore loads persisted evidence and calls Derive; the
// single-experiment CLI subcommands call the part they ran. A restored
// report is therefore the same function of the same evidence as the
// live one.

package core

import (
	"repro/internal/analysis"
	"repro/internal/device"
)

// Derive builds every artifact of rep from the evidence it holds and the
// study's passive store, after putting the degradation log in its
// canonical order. noNewFailures is the outcome of the §4.2 re-test of
// newly exposed hosts: computing it takes the testbed, so a restore
// carries it as evidence.
func (s *Study) Derive(rep *Report, noNewFailures bool) {
	sortDegradations(rep.Degradations)
	s.DerivePassive(rep)
	s.DeriveActive(rep)
	s.DeriveExperiments(rep, noNewFailures)
}

// DerivePassive builds Figures 1–3, Table 8 and the passive §4/§5
// statistics from the study's passive store.
func (s *Study) DerivePassive(rep *Report) {
	nameOf := s.NameOf
	rep.Figure1 = analysis.BuildFigure1(s.Store, nameOf)
	rep.Figure2 = analysis.BuildFigure2(s.Store, nameOf)
	rep.Figure3 = analysis.BuildFigure3(s.Store, nameOf)
	rep.Comparison = analysis.BuildPriorWorkComparison(s.Store)
	rep.Dataset = analysis.BuildDatasetSummary(s.Store)
	rep.Diversity = analysis.BuildVersionDiversity(s.Store, nameOf)
	rep.Table8 = analysis.BuildTable8(s.Store, s.Registry.IDs(), nameOf)
}

// DeriveActive builds Figure 5 from rep.ActiveStore; a run without an
// active snapshot leaves it unset, so it renders as PARTIAL.
func (s *Study) DeriveActive(rep *Report) {
	if rep.ActiveStore != nil {
		rep.Figure5 = analysis.BuildFigure5(rep.ActiveStore, device.ReferenceDB(), s.NameOf)
	}
}

// DeriveExperiments builds Table 4, Figure 4 and the §4.2 statistic
// from the probe and passthrough reports. A phase the degradation log
// records as skipped, and that left no report, leaves its artifact
// unset, so it renders as PARTIAL instead of as a result of an
// experiment that never ran; a failed phase, or a merge in which only
// some subsets skipped it, still draws from the reports there are.
func (s *Study) DeriveExperiments(rep *Report, noNewFailures bool) {
	rep.Table4Rows = analysis.BuildTable4()
	if len(rep.ProbeReports) > 0 || !skipped(rep.Degradations, "probe") {
		rep.Figure4 = analysis.BuildFigure4(rep.ProbeReports, s.NameOf)
	}
	if len(rep.Passthroughs) > 0 || !skipped(rep.Degradations, "passthrough") {
		rep.Passthrough = analysis.BuildPassthroughStat(rep.Passthroughs)
		rep.Passthrough.NoNewValidationFailures = noNewFailures
	}
}

// skipped reports whether log records phase as skipped by a drain.
func skipped(log []Degradation, phase string) bool {
	for _, d := range log {
		if d.Phase == phase && d.Reason == errSkipped.Error() {
			return true
		}
	}
	return false
}
