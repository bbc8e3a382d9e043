// Package dataset is the study's persistent capture store: a
// versioned, sharded binary on-disk format that decouples *capturing*
// (running the simulated testbed) from *analysing* (rendering the
// paper's tables and figures), the way the paper's own two-year corpus
// was collected once and analysed many times offline.
//
// A dataset directory holds a manifest (schema version, per-run
// provenance, shard catalog with CRC32 checksums and record counts)
// and a set of shard files with length-prefixed binary records:
// per-month passive shards (handshake observations and revocation
// events), one active shard (the 2021 snapshot captures behind
// Figure 5), and one aux shard (the active-suite reports, root-store
// probe results, and degradation log). Writer and Reader stream —
// neither buffers a whole dataset — and Merge unions multiple runs
// (distinct fault seeds, or disjoint device subsets from sharded
// fleets) deterministically: merging A,B and B,A produce
// byte-identical output, and provenance collisions are rejected.
//
// Each run's provenance names the testbed it was captured on (the
// catalog, or a synthetic fleet's size and seed), so Analyze restores
// any dataset without being told which devices it describes. For one
// fixed seed, a capture→write→read→restore round trip renders
// byte-identical artifacts to the in-memory study; the determinism
// tests pin that contract at every parallelism and under fault plans.
package dataset

import (
	"fmt"
	"sort"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/mitm"
	"repro/internal/probe"
	"repro/internal/rootstore"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/wire"
)

// Dataset is the in-memory form of a capture dataset: everything the
// analysis side needs to rebuild a core.Report without touching the
// simulator.
type Dataset struct {
	// Runs is the provenance of every capture merged into this dataset.
	Runs []Run
	// HasActive distinguishes a missing active snapshot (degraded run)
	// from a captured-but-empty one.
	HasActive bool

	Observations       []*capture.Observation
	Revocations        []capture.RevocationEvent
	ActiveObservations []*capture.Observation

	ProbeReports  []*ProbeRecord
	Downgrades    []*mitm.DowngradeReport
	OldVersions   []*mitm.OldVersionReport
	Interceptions []*mitm.InterceptionReport
	Passthroughs  []*mitm.PassthroughReport
	Degradations  []core.Degradation

	// TraceSpans is the run's causal span tree in canonical (DFS)
	// order. Analysis never consumes it; the trace CLI verbs do.
	TraceSpans []trace.SpanRecord
}

// Len reports the total record count across all sections.
func (ds *Dataset) Len() int {
	return len(ds.Observations) + len(ds.Revocations) + len(ds.ActiveObservations) +
		len(ds.ProbeReports) + len(ds.Downgrades) + len(ds.OldVersions) +
		len(ds.Interceptions) + len(ds.Passthroughs) + len(ds.Degradations) +
		len(ds.TraceSpans)
}

// FromStudy snapshots a completed study run into a Dataset. The report
// must come from s.RunAll (or an equivalent sequence that populated the
// store and suite reports).
func FromStudy(s *core.Study, rep *core.Report) *Dataset {
	ds := reportSections(s, rep)
	ds.Observations, ds.Revocations = s.Store.All(), s.Store.Revocations()
	return ds
}

// reportSections snapshots everything of a run but its passive records:
// the run provenance, the active snapshot, the probe results, the suite
// reports, the degradation log and the trace spans. FromStudy adds the
// passive records to it; the Spiller, which has already streamed them
// month by month, persists it as is.
func reportSections(s *core.Study, rep *core.Report) *Dataset {
	ds := &Dataset{
		Runs:          []Run{runProvenance(s, rep)},
		Downgrades:    rep.Downgrades,
		OldVersions:   rep.OldVersions,
		Interceptions: rep.Interceptions,
		Passthroughs:  rep.Passthroughs,
		Degradations:  rep.Degradations,
	}
	if rep.ActiveStore != nil {
		ds.HasActive = true
		ds.ActiveObservations = rep.ActiveStore.All()
	}
	for _, pr := range rep.ProbeReports {
		ds.ProbeReports = append(ds.ProbeReports, toProbeRecord(pr))
	}
	if t := s.Tracer(); t != nil {
		ds.TraceSpans = t.Spans()
	}
	return ds
}

// runProvenance builds one capture run's provenance record.
func runProvenance(s *core.Study, rep *core.Report) Run {
	from, to := s.Window()
	fl := s.Fleet()
	run := Run{
		WindowFrom: from.String(),
		WindowTo:   to.String(),
		FleetN:     fl.N,
		FleetSeed:  fl.Seed,
	}
	if plan := s.Network.FaultPlan(); plan != nil {
		run.FaultSeed = plan.Seed()
		run.FaultProfile = plan.Profile().Name
	}
	run.Devices = s.Registry.IDs()
	sort.Strings(run.Devices)
	if rep.PassiveStats != nil {
		run.Stats = *rep.PassiveStats
	}
	if rep.Passthrough != nil {
		run.NoNewValidationFailures = rep.Passthrough.NoNewValidationFailures
	}
	return run
}

func toProbeRecord(r *probe.Report) *ProbeRecord {
	rec := &ProbeRecord{
		Device:            r.Device,
		Amenable:          r.Amenable,
		BadSignatureAlert: r.BadSignatureAlert,
		UnknownCAAlert:    r.UnknownCAAlert,
	}
	conv := func(ts []probe.Trial) []TrialRecord {
		out := make([]TrialRecord, 0, len(ts))
		for _, t := range ts {
			out = append(out, TrialRecord{
				CA:      t.CA.Cert().Subject.CommonName,
				Verdict: t.Verdict,
				Alert:   cloneAlert(t.Alert),
			})
		}
		return out
	}
	rec.Common = conv(r.Common)
	rec.Deprecated = conv(r.Deprecated)
	return rec
}

func cloneAlert(a *wire.Alert) *wire.Alert {
	if a == nil {
		return nil
	}
	c := *a
	return &c
}

// caIndex maps CA Common Names to the universe's CA objects so probe
// trials can be re-anchored at restore time.
func caIndex(u *rootstore.Universe) map[string]*rootstore.CA {
	idx := make(map[string]*rootstore.CA, len(u.Common)+len(u.Deprecated))
	for _, ca := range u.Common {
		idx[ca.Cert().Subject.CommonName] = ca
	}
	for _, ca := range u.Deprecated {
		idx[ca.Cert().Subject.CommonName] = ca
	}
	return idx
}

func (rec *ProbeRecord) toReport(idx map[string]*rootstore.CA) (*probe.Report, error) {
	r := &probe.Report{
		Device:            rec.Device,
		Amenable:          rec.Amenable,
		BadSignatureAlert: rec.BadSignatureAlert,
		UnknownCAAlert:    rec.UnknownCAAlert,
	}
	conv := func(ts []TrialRecord) ([]probe.Trial, error) {
		out := make([]probe.Trial, 0, len(ts))
		for _, t := range ts {
			ca, ok := idx[t.CA]
			if !ok {
				return nil, fmt.Errorf("dataset: probe trial references unknown CA %q (universe mismatch)", t.CA)
			}
			out = append(out, probe.Trial{CA: ca, Verdict: t.Verdict, Alert: cloneAlert(t.Alert)})
		}
		return out, nil
	}
	var err error
	if r.Common, err = conv(rec.Common); err != nil {
		return nil, err
	}
	if r.Deprecated, err = conv(rec.Deprecated); err != nil {
		return nil, err
	}
	return r, nil
}

// deviceRank orders per-device suite records the way a live study
// emits them: registry (catalog) order, with devices unknown to the
// registry after all known ones, by ID. The stable sort preserves
// on-disk order for exact ties, which is itself canonical, so restored
// renders are independent of merge input order.
func deviceRank(s *core.Study) func(id string) (int, string) {
	idx := make(map[string]int, len(s.Registry.Devices))
	for i, d := range s.Registry.Devices {
		idx[d.ID] = i
	}
	return func(id string) (int, string) {
		if i, ok := idx[id]; ok {
			return i, ""
		}
		return len(idx), id
	}
}

func sortByDevice[T any](items []T, id func(T) string, rank func(string) (int, string)) {
	sort.SliceStable(items, func(i, j int) bool {
		ri, ti := rank(id(items[i]))
		rj, tj := rank(id(items[j]))
		if ri != rj {
			return ri < rj
		}
		return ti < tj
	})
}

// Analyze restores ds onto the testbed its runs were captured on — the
// 40-device catalog, or the synthetic fleet their provenance names —
// and returns that scaffold study and the restored report. It is the
// one restore every analyze entry point shares, so artifact rendering
// is a pure function of the dataset: no caller chooses the devices.
// Runs captured on different testbeds, or naming devices their testbed
// does not contain, are an error.
func Analyze(ds *Dataset) (*core.Study, *core.Report, error) {
	cfg := core.Config{NoTrace: true}
	for _, r := range ds.Runs {
		first := sourcedRun{run: ds.Runs[0], src: "the dataset"}
		if err := checkTestbed(first, sourcedRun{run: r, src: "the dataset"}); err != nil {
			return nil, nil, err
		}
		cfg.FleetN, cfg.FleetSeed = r.FleetN, r.FleetSeed
	}
	s, err := core.NewStudyFromConfig(cfg)
	if err != nil {
		return nil, nil, corruptf("run provenance: %v", err)
	}
	for _, r := range ds.Runs {
		for _, id := range r.Devices {
			if _, ok := s.Registry.Get(id); !ok {
				return nil, nil, corruptf("testbed mismatch: run %s lists device %q, which %s does not contain (a fleet dataset that predates fleet_n/fleet_seed does not name its fleet)",
					r.Fingerprint(), id, r.testbed())
			}
		}
	}
	rep, err := Restore(s, ds)
	if err != nil {
		return nil, nil, err
	}
	return s, rep, nil
}

// Restore rebuilds the full analysis state inside a fresh study
// scaffold: it installs the captured observations as the study's
// store, loads the rest of the evidence into a core.Report, and derives
// the artifacts from it exactly as the run that produced the dataset
// did, so they render byte-identical. The study must not have been run
// (its registry and CA universe are deterministic testbed state the
// restore resolves against); the simulator is never invoked.
func Restore(s *core.Study, ds *Dataset) (*core.Report, error) {
	store := capture.NewStore()
	store.SetTelemetry(s.Telemetry)
	store.AddAll(ds.Observations)
	for _, ev := range ds.Revocations {
		store.AddRevocation(ev)
	}
	s.Store = store

	stats := traffic.Stats{}
	noNewFailures := len(ds.Runs) > 0
	for _, run := range ds.Runs {
		if run.Stats.Months > stats.Months {
			stats.Months = run.Stats.Months
		}
		stats.Handshakes += run.Stats.Handshakes
		stats.WeightedConns += run.Stats.WeightedConns
		stats.FailedConnects += run.Stats.FailedConnects
		if !run.NoNewValidationFailures {
			noNewFailures = false
		}
	}
	rep := &core.Report{
		PassiveStats: &stats,
		Degradations: append([]core.Degradation(nil), ds.Degradations...),
	}

	if ds.HasActive {
		active := capture.NewStore()
		active.SetTelemetry(s.Telemetry)
		active.AddAll(ds.ActiveObservations)
		rep.ActiveStore = active
	}

	rank := deviceRank(s)
	rep.Downgrades = append([]*mitm.DowngradeReport(nil), ds.Downgrades...)
	sortByDevice(rep.Downgrades, func(r *mitm.DowngradeReport) string { return r.Device }, rank)
	rep.OldVersions = append([]*mitm.OldVersionReport(nil), ds.OldVersions...)
	sortByDevice(rep.OldVersions, func(r *mitm.OldVersionReport) string { return r.Device }, rank)
	rep.Interceptions = append([]*mitm.InterceptionReport(nil), ds.Interceptions...)
	sortByDevice(rep.Interceptions, func(r *mitm.InterceptionReport) string { return r.Device }, rank)
	rep.Passthroughs = append([]*mitm.PassthroughReport(nil), ds.Passthroughs...)
	sortByDevice(rep.Passthroughs, func(r *mitm.PassthroughReport) string { return r.Device }, rank)

	idx := caIndex(s.Registry.Universe)
	probeRecords := append([]*ProbeRecord(nil), ds.ProbeReports...)
	sortByDevice(probeRecords, func(r *ProbeRecord) string { return r.Device }, rank)
	for _, rec := range probeRecords {
		pr, err := rec.toReport(idx)
		if err != nil {
			return nil, err
		}
		rep.ProbeReports = append(rep.ProbeReports, pr)
	}

	s.Derive(rep, noNewFailures)
	return rep, nil
}
