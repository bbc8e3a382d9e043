// Package core orchestrates the full IoTLS study: it assembles the
// testbed (virtual clock, in-memory network, 40 device models, cloud
// endpoints, gateway capture), runs the passive longitudinal collection
// and every active experiment, and renders the complete set of paper
// artifacts (Tables 1-9, Figures 1-5, and the §4/§5 statistics).
//
// This is the package downstream users drive; see examples/ for usage.
package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/capture"
	"repro/internal/clock"
	"repro/internal/cloud"
	"repro/internal/device"
	"repro/internal/driver"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/mitm"
	"repro/internal/netem"
	"repro/internal/pool"
	"repro/internal/probe"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// Study is the assembled testbed.
type Study struct {
	Clock     *clock.Simulated
	Network   *netem.Network
	Registry  *device.Registry
	Cloud     *cloud.Cloud
	Store     *capture.Store
	Collector *capture.Collector
	Proxy     *mitm.Proxy
	Prober    *probe.Prober

	// Telemetry is the testbed-wide metrics registry. Every layer
	// (netem, tlssim, capture, mitm, probe, traffic) reports into it;
	// snapshot it at any point via MetricsSnapshot.
	Telemetry *telemetry.Registry

	// Parallelism is the worker count for every parallelisable phase:
	// the passive handshake batches, the active-snapshot reboots, the
	// per-device interception/downgrade/passthrough suites, and the
	// root-store probe. Zero or negative means GOMAXPROCS. Any value
	// renders byte-identical artifacts; the old-version suite always
	// runs sequentially because it retunes shared cloud endpoints.
	Parallelism int

	// PassiveFrom/PassiveTo bound the passive window RunPassive (and so
	// RunAll) simulates; the zero Month means the full study bound
	// (StudyStart/StudyEnd). NewStudyFromConfig fills them from the
	// config's window. Window resolves them for both the simulation and
	// the run provenance, so the window simulated is the window recorded.
	PassiveFrom, PassiveTo clock.Month

	// PhaseDone, when non-nil, is invoked after each study phase
	// finishes (contained), with the phase name. Each Run* method is
	// one phase; RunAll adds passive_analysis. The serve layer's drain
	// tests use it to coordinate a deterministic interruption point; it
	// must not block on study work.
	PhaseDone func(name string)

	// PhaseStart, when non-nil, is invoked as each study phase begins
	// — the serve layer's live event stream. Same contract as
	// PhaseDone: it must not block on study work.
	PhaseStart func(name string)

	// OnDegraded, when non-nil, observes each degradation as it is
	// recorded. Called from pool workers too, so it must be
	// thread-safe and must not block.
	OnDegraded func(d Degradation)

	// SpillMonth, when non-nil, arms the streaming (memory-bounded)
	// engine: at every passive month barrier the completed month is
	// drained from the capture store and handed to the hook in canonical
	// order, so peak memory is bounded by one month's traffic instead of
	// the whole run's — the fleet-scale capture mode. The dataset
	// layer's Spiller installs it and appends each month to the on-disk
	// shards; because both the observation and revocation canonical
	// orders sort on time first, per-month spills reproduce the bulk
	// writer's bytes exactly. While spilling, RunAll skips the in-memory
	// passive analyses (the store is empty by design; artifacts are
	// rendered from the persisted dataset via analyze/Restore instead).
	SpillMonth func(m clock.Month, obs []*capture.Observation, revs []capture.RevocationEvent) error

	workersOnce sync.Once
	workers     int

	// tracer, when armed, records the study's causal span tree. The
	// root is created lazily at the first phase; tracePhase holds the
	// running phase's span (phases are strictly sequential).
	tracer     *trace.Tracer
	traceOnce  sync.Once
	traceRoot  *trace.Span
	tracePhase *trace.Span

	// fleet is the synthetic-fleet spec the registry was generated
	// from; the zero Spec means the 40-device catalog.
	fleet fleet.Spec

	interrupted atomic.Bool

	degradeMu    sync.Mutex
	degradations []Degradation
}

// Workers resolves the study's effective worker count exactly once per
// study. Every phase of one job must share the resolved value:
// Parallelism <= 0 means GOMAXPROCS, and under a long-lived serve
// process GOMAXPROCS can change mid-run — per-phase resolution could
// then hand different phases different worker counts within one job.
func (s *Study) Workers() int {
	s.workersOnce.Do(func() { s.workers = pool.Parallelism(s.Parallelism) })
	return s.workers
}

// Interrupt requests a graceful early stop: the passive generator ends
// at the next month boundary and every phase not yet started is skipped
// (each recorded as a degradation), leaving the study in a state
// FromStudy can persist — the serve layer's SIGTERM drain path.
func (s *Study) Interrupt() { s.interrupted.Store(true) }

// Interrupted reports whether Interrupt has been called.
func (s *Study) Interrupted() bool { return s.interrupted.Load() }

// SetTracer arms causal tracing: every phase, device batch and
// connection attempt from here on records spans into t. Arm before
// running phases; a nil tracer (the default) disables tracing.
func (s *Study) SetTracer(t *trace.Tracer) { s.tracer = t }

// Tracer returns the armed tracer, or nil.
func (s *Study) Tracer() *trace.Tracer { return s.tracer }

// traceStudyRoot returns the study's root span, creating it on first
// use. Nil when tracing is off.
func (s *Study) traceStudyRoot() *trace.Span {
	if s.tracer == nil {
		return nil
	}
	s.traceOnce.Do(func() { s.traceRoot = s.tracer.Root("study", "") })
	return s.traceRoot
}

// SetFaultPlan arms deterministic fault injection across the testbed:
// the network consults the plan on every dial, and the driver's
// device-resilience policies activate. The network holds the one copy
// of the plan; read it back through Network.FaultPlan.
func (s *Study) SetFaultPlan(p *fault.Plan) {
	s.Network.SetFaultPlan(p)
}

// Fleet returns the synthetic-fleet spec the testbed was built from
// (the dataset subsystem records it as run provenance, so a restore
// rebuilds the same devices); N is zero for the 40-device catalog.
func (s *Study) Fleet() fleet.Spec { return s.fleet }

// Window resolves the passive-collection bounds of this study: the
// window RunPassive simulates and the dataset subsystem records as run
// provenance.
func (s *Study) Window() (from, to clock.Month) {
	from, to = s.PassiveFrom, s.PassiveTo
	if (from == clock.Month{}) {
		from = device.StudyStart
	}
	if (to == clock.Month{}) {
		to = device.StudyEnd
	}
	return from, to
}

// RestrictDevices narrows the testbed to the named devices before any
// phase runs — the sharded-fleet capture mode, where several processes
// each capture a disjoint device subset and the datasets are merged
// offline. Unknown IDs are an error.
func (s *Study) RestrictDevices(ids []string) error {
	return s.Registry.Subset(ids)
}

// NewStudy builds a fresh testbed with the gateway mirror armed.
func NewStudy() *Study {
	return newStudyWithRegistry(device.NewRegistry)
}

// newStudyWithRegistry builds a fresh testbed around a registry
// constructor — the synthetic-fleet path (see NewStudyFromConfig),
// where the device set is generated instead of the 40-device catalog.
// The constructor receives the testbed's virtual clock; everything
// downstream (cloud endpoints, capture, proxy, prober) is assembled
// around its devices exactly as for the catalog.
func newStudyWithRegistry(mkReg func(clk clock.Clock) *device.Registry) *Study {
	clk := clock.NewSimulated(device.StudyStart.Start())
	nw := netem.New(clk)
	reg := mkReg(clk)
	cl := cloud.New(nw, reg)
	store := capture.NewStore()
	store.SetTelemetry(nw.Telemetry())
	col := capture.NewCollector(store)
	nw.SetMirror(col.Mirror)
	proxy := mitm.NewProxy(nw, reg.Universe)
	return &Study{
		Clock:     clk,
		Network:   nw,
		Registry:  reg,
		Cloud:     cl,
		Store:     store,
		Collector: col,
		Proxy:     proxy,
		Prober:    probe.New(proxy, reg),
		Telemetry: nw.Telemetry(),
	}
}

// MetricsSnapshot captures the current value of every instrument in the
// testbed.
func (s *Study) MetricsSnapshot() *telemetry.Snapshot { return s.Telemetry.Snapshot() }

// NameOf maps a device ID to its display name.
func (s *Study) NameOf(id string) string {
	if d, ok := s.Registry.Get(id); ok {
		return d.Name
	}
	return id
}

// RunPassive simulates the passive collection over the study's window
// (PassiveFrom..PassiveTo; by default the full two-year study).
func (s *Study) RunPassive() (stats *traffic.Stats, err error) {
	from, to := s.Window()
	err = s.phase("passive", func() error {
		gen := traffic.New(s.Network, s.Registry, s.Collector, s.Clock)
		gen.Parallelism = s.Workers()
		gen.Stop = s.Interrupted
		gen.Trace = s.tracePhase
		if s.SpillMonth != nil {
			gen.MonthDone = s.spillMonth
		}
		var err error
		if stats, err = gen.Run(from, to); err == nil && s.Interrupted() {
			// The generator stops cleanly at a month boundary, so the cut
			// is only visible here: record it, or a drained dataset would
			// pass for a full capture of the window.
			err = fmt.Errorf("passive window interrupted after %d month(s) (drain)", stats.Months)
		}
		return err
	})
	return stats, err
}

// spillMonth drains the completed month from the store and hands it to
// the armed SpillMonth hook; it is the generator's MonthDone callback.
func (s *Study) spillMonth(m clock.Month) error {
	obs, revs := s.Store.TakeMonth(m)
	return s.SpillMonth(m, obs, revs)
}

// advanceToActiveWindow moves the virtual clock to the 2021 snapshot.
// Lingering server handlers are joined first so no handshake runs
// across the jump.
func (s *Study) advanceToActiveWindow() {
	at := device.ActiveSnapshot.Start()
	if s.Clock.Now().Before(at) {
		s.Network.WaitHandlers()
		s.Clock.AdvanceTo(at)
	}
}

// CaptureActiveSnapshot reboots every active device at the 2021
// snapshot, recording its traffic into a dedicated store — the data
// behind the fingerprinting analysis (§5.3).
func (s *Study) CaptureActiveSnapshot() (store *capture.Store, err error) {
	err = s.phase("active_capture", func() error {
		s.advanceToActiveWindow()
		store = capture.NewStore()
		store.SetTelemetry(s.Telemetry)
		col := capture.NewCollector(store)
		s.Network.SetMirror(col.Mirror)
		defer s.Network.SetMirror(s.Collector.Mirror)

		// Each device's boot sequence base is fixed by its registry
		// index, so its hello randoms are identical at any parallelism.
		devs := s.Registry.ActiveDevices()
		pool.RunSpans(s.Workers(), len(devs), s.tracePhase, "device",
			func(i int) string { return devs[i].ID },
			func(_, i int, dsp *trace.Span) {
				driver.Boot(s.Network, devs[i], device.ActiveSnapshot, uint64(i)*100000, dsp)
			})
		if err := col.WaitIdlePatient(10*time.Second, 2); err != nil {
			return fmt.Errorf("core: active capture lagging (%d observations stored): %w", store.Len(), err)
		}
		return nil
	})
	return store, err
}

// RunInterceptionSuite attacks every active device (Table 7).
func (s *Study) RunInterceptionSuite() (out []*mitm.InterceptionReport) {
	s.phase("interception", func() error {
		s.advanceToActiveWindow()
		devs := s.Registry.ActiveDevices()
		out = make([]*mitm.InterceptionReport, len(devs))
		pool.RunSpans(s.Workers(), len(devs), s.tracePhase, "device",
			func(i int) string { return devs[i].ID },
			func(_, i int, dsp *trace.Span) {
				defer s.recoverDevice("interception", devs[i].ID, dsp, func() {
					out[i] = &mitm.InterceptionReport{Device: devs[i].ID}
				})
				out[i] = s.Proxy.RunInterception(devs[i], dsp)
			})
		return nil
	})
	return out
}

// RunDowngradeSuite probes every active device for downgrade behaviour
// (Table 5).
func (s *Study) RunDowngradeSuite() (out []*mitm.DowngradeReport) {
	s.phase("downgrade", func() error {
		s.advanceToActiveWindow()
		devs := s.Registry.ActiveDevices()
		out = make([]*mitm.DowngradeReport, len(devs))
		pool.RunSpans(s.Workers(), len(devs), s.tracePhase, "device",
			func(i int) string { return devs[i].ID },
			func(_, i int, dsp *trace.Span) {
				defer s.recoverDevice("downgrade", devs[i].ID, dsp, func() {
					out[i] = &mitm.DowngradeReport{Device: devs[i].ID}
				})
				out[i] = s.Proxy.RunDowngrade(devs[i], dsp)
			})
		return nil
	})
	return out
}

// RunOldVersionSuite checks old-version establishment for every active
// device (Table 6). It always runs sequentially: forcing a protocol
// version retunes the shared cloud endpoint the device talks to, so
// concurrent devices would observe each other's forced versions.
func (s *Study) RunOldVersionSuite() (out []*mitm.OldVersionReport) {
	s.phase("old_version", func() error {
		s.advanceToActiveWindow()
		for _, dev := range s.Registry.ActiveDevices() {
			func() {
				dsp := s.tracePhase.Child("device", dev.ID)
				defer dsp.End("ok")
				defer s.recoverDevice("old_version", dev.ID, dsp, func() {
					out = append(out, &mitm.OldVersionReport{Device: dev.ID})
				})
				out = append(out, mitm.RunOldVersionCheck(s.Network, s.Cloud, dev, dsp))
			}()
		}
		return nil
	})
	return out
}

// RunPassthroughSuite runs the TrafficPassthrough control for every
// active device (§4.2).
func (s *Study) RunPassthroughSuite() []*mitm.PassthroughReport {
	return s.runPassthrough(nil)
}

// runPassthrough is RunPassthroughSuite with an optional check of the
// reports run inside the phase, so connections the check abandons
// count against the phase.
func (s *Study) runPassthrough(check func([]*mitm.PassthroughReport)) (out []*mitm.PassthroughReport) {
	s.phase("passthrough", func() error {
		s.advanceToActiveWindow()
		devs := s.Registry.ActiveDevices()
		out = make([]*mitm.PassthroughReport, len(devs))
		pool.RunSpans(s.Workers(), len(devs), s.tracePhase, "device",
			func(i int) string { return devs[i].ID },
			func(_, i int, dsp *trace.Span) {
				defer s.recoverDevice("passthrough", devs[i].ID, dsp, func() {
					out[i] = &mitm.PassthroughReport{Device: devs[i].ID}
				})
				out[i] = s.Proxy.RunPassthrough(devs[i], dsp)
			})
		if check != nil {
			check(out)
		}
		return nil
	})
	return out
}

// RunProbe explores every probe candidate's root store (Table 9,
// Figure 4).
func (s *Study) RunProbe() (amenable []*probe.Report, candidates int, err error) {
	err = s.phase("probe", func() error {
		s.advanceToActiveWindow()
		s.Prober.Parallelism = s.Workers()
		s.Prober.Trace = s.tracePhase
		var err error
		amenable, candidates, err = s.Prober.ExploreAll()
		return err
	})
	return amenable, candidates, err
}

// Report is the full set of computed artifacts.
type Report struct {
	PassiveStats *traffic.Stats

	Figure1 *analysis.Figure1
	Figure2 *analysis.CipherFigure
	Figure3 *analysis.CipherFigure
	Figure4 *analysis.Figure4
	Figure5 *analysis.Figure5

	Table4Rows    []analysis.Table4Row
	Downgrades    []*mitm.DowngradeReport
	OldVersions   []*mitm.OldVersionReport
	Interceptions []*mitm.InterceptionReport
	Table8        *analysis.Table8
	ProbeReports  []*probe.Report

	Comparison  *analysis.PriorWorkComparison
	Passthrough *analysis.PassthroughStat
	Dataset     *analysis.DatasetSummary
	Diversity   *analysis.VersionDiversity

	// ActiveStore holds the 2021 active-snapshot captures behind
	// Figure 5; Passthroughs holds the raw per-device passthrough
	// reports behind the §4.2 statistic. Both are retained so the
	// dataset subsystem can persist the full evidence, not just the
	// rendered artifacts.
	ActiveStore  *capture.Store
	Passthroughs []*mitm.PassthroughReport

	// Degradations lists every contained incident of the run, in
	// deterministic order; empty on a clean study.
	Degradations []Degradation
}

// RunAll executes the complete study: passive collection, every active
// experiment, the probe, and all analyses. Every phase runs contained:
// a failure (error or panic) degrades the report instead of aborting
// it, so a fault-ridden study still renders — with the damage listed in
// Report.Degradations and annotated in the rendered output. The error
// return is always nil today; it is kept for interface stability.
func (s *Study) RunAll() (*Report, error) {
	end := s.phaseMetrics("all")
	rep := &Report{}
	nameOf := s.NameOf

	// Each phase records its own failure as a degradation, so RunAll
	// keeps only the results.
	rep.PassiveStats, _ = s.RunPassive()

	s.phase("passive_analysis", func() error {
		if s.SpillMonth != nil {
			// Streaming mode: the passive months were drained to disk as
			// they completed, so there is nothing in the store to analyse.
			// Artifacts come from the persisted dataset (analyze/Restore).
			return nil
		}
		rep.Figure1 = analysis.BuildFigure1(s.Store, nameOf)
		rep.Figure2 = analysis.BuildFigure2(s.Store, nameOf)
		rep.Figure3 = analysis.BuildFigure3(s.Store, nameOf)
		rep.Comparison = analysis.BuildPriorWorkComparison(s.Store)
		rep.Dataset = analysis.BuildDatasetSummary(s.Store)
		rep.Diversity = analysis.BuildVersionDiversity(s.Store, nameOf)
		rep.Table8 = analysis.BuildTable8(s.Store, s.deviceIDs(), nameOf)
		return nil
	})

	if store, _ := s.CaptureActiveSnapshot(); store != nil {
		rep.ActiveStore = store
		rep.Figure5 = analysis.BuildFigure5(store, device.ReferenceDB(), nameOf)
	}

	rep.Table4Rows = analysis.BuildTable4()
	rep.Downgrades = s.RunDowngradeSuite()
	rep.OldVersions = s.RunOldVersionSuite()
	rep.Interceptions = s.RunInterceptionSuite()

	// A skipped probe leaves Figure 4 unset, so it renders as PARTIAL;
	// a failed one still draws from whatever it explored.
	if reports, _, err := s.RunProbe(); !errors.Is(err, errSkipped) {
		rep.ProbeReports = reports
		rep.Figure4 = analysis.BuildFigure4(reports, nameOf)
	}

	// The §4.2 re-test of newly exposed hosts dials, so it runs inside
	// the passthrough phase.
	rep.Passthroughs = s.runPassthrough(func(reports []*mitm.PassthroughReport) {
		rep.Passthrough = analysis.BuildPassthroughStat(reports)
		rep.Passthrough.NoNewValidationFailures = s.verifyNoNewFailures(reports, rep.Interceptions)
	})

	rep.Degradations = s.Degradations()
	status := "ok"
	if rep.Degraded() {
		status = "degraded"
	}
	s.traceStudyRoot().End(status)
	end(status)
	return rep, nil
}

// verifyNoNewFailures re-runs the Table 2 attacks against every host the
// passthrough control newly exposed and checks none of them reveals a
// certificate-validation failure beyond what the main interception
// suite already found (§4.2: "TrafficPassthrough experiments did not
// lead to finding any new certificate validation failures").
func (s *Study) verifyNoNewFailures(passthrough []*mitm.PassthroughReport, interceptions []*mitm.InterceptionReport) bool {
	known := map[string]map[string]bool{} // device -> vulnerable host set
	for _, r := range interceptions {
		set := map[string]bool{}
		for _, h := range r.VulnerableHosts() {
			set[h] = true
		}
		known[r.Device] = set
	}
	for _, pr := range passthrough {
		dev, ok := s.Registry.Get(pr.Device)
		if !ok {
			continue
		}
		for _, host := range pr.NewHosts {
			var dst *device.Destination
			for i := range dev.Destinations {
				if dev.Destinations[i].Host == host {
					dst = &dev.Destinations[i]
				}
			}
			if dst == nil {
				continue
			}
			for _, attack := range []mitm.Attack{mitm.AttackNoValidation, mitm.AttackInvalidBasicConstraints, mitm.AttackWrongHostname} {
				res := s.Proxy.AttackOne(dev, *dst, attack)
				if res.Vulnerable && !known[pr.Device][host] {
					return false
				}
			}
		}
	}
	return true
}

func (s *Study) deviceIDs() []string {
	var out []string
	for _, d := range s.Registry.Devices {
		out = append(out, d.ID)
	}
	return out
}

// section appends one artifact to the report, tolerating a renderer
// that panics on degraded inputs (e.g. a nil figure): the artifact is
// replaced with an explicit placeholder so the report always renders.
func section(b *strings.Builder, render func() string) {
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(b, "[PARTIAL: artifact unavailable — %v]\n\n", p)
		}
	}()
	b.WriteString(render())
	b.WriteByte('\n')
}

// Render produces the full textual report. A degraded study renders
// with a leading banner, placeholder sections for artifacts whose data
// was lost, and a trailing degradation log; a clean study renders
// exactly as before.
func (r *Report) Render(s *Study) string {
	var b strings.Builder
	nameOf := s.NameOf
	if r.Degraded() {
		fmt.Fprintf(&b, "!! DEGRADED STUDY: %d incident(s) contained; see the degradation log at the end.\n\n", len(r.Degradations))
	}
	section(&b, func() string { return analysis.RenderTable1(s.Registry) })
	section(&b, func() string { return analysis.RenderTable2() })
	section(&b, func() string { return analysis.RenderTable3() })
	section(&b, func() string { return analysis.RenderTable4(r.Table4Rows) })
	section(&b, r.Figure1.Render)
	section(&b, r.Figure2.Render)
	section(&b, r.Figure3.Render)
	section(&b, func() string { return analysis.RenderTable5(r.Downgrades, nameOf) })
	section(&b, func() string { return analysis.RenderTable6(r.OldVersions, nameOf) })
	section(&b, func() string { return analysis.RenderTable7(r.Interceptions, nameOf) })
	section(&b, r.Table8.Render)
	section(&b, func() string { return analysis.RenderTable9(r.ProbeReports, nameOf) })
	section(&b, r.Figure4.Render)
	section(&b, r.Figure5.Render)
	section(&b, r.Comparison.Render)
	section(&b, r.Passthrough.Render)
	section(&b, r.Dataset.Render)
	out := b.String()
	// The last artifact carries no trailing blank line, preserving the
	// clean-study render byte for byte.
	var tail strings.Builder
	section(&tail, r.Diversity.Render)
	out += strings.TrimSuffix(tail.String(), "\n")
	if r.Degraded() {
		out += "\n\n" + degradationLog(r.Degradations)
	}
	return out
}
