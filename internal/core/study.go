// Package core orchestrates the full IoTLS study: it assembles the
// testbed (virtual clock, in-memory network, 40 device models, cloud
// endpoints, gateway capture), runs the passive longitudinal collection
// and every active experiment, and renders the complete set of paper
// artifacts (Tables 1-9, Figures 1-5, and the §4/§5 statistics).
//
// This is the package downstream users drive; see examples/ for usage.
package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

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

	// failed is the watchdog's *HangError once a phase hung; set by
	// phase (phases are strictly sequential).
	failed error

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

// Watch runs fn as the named study phase, so the study watchdog bounds
// the connections of callers that drive devices outside the study's own
// phases: a hang fails with the watchdog's *HangError.
func (s *Study) Watch(name string, fn func()) error {
	return s.phase(name, func() error { fn(); return nil })
}

// Err returns the study's failure: the watchdog's *HangError once a
// phase hung, else nil. A failed study has no verdicts to report.
func (s *Study) Err() error { return s.failed }

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

// NewStudy builds a fresh testbed. The gateway mirrors nothing until a
// capture phase arms it: the passive run mirrors into Collector, the
// active snapshot into a store of its own.
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
		defer s.Network.SetMirror(nil)

		// Each device's boot sequence base is fixed by its registry
		// index, so its hello randoms are identical at any parallelism.
		devs := s.Registry.ActiveDevices()
		pool.RunSpans(s.Workers(), len(devs), s.tracePhase, "device",
			func(i int) string { return devs[i].ID },
			func(_, i int, dsp *trace.Span) {
				driver.Boot(s.Network, devs[i], device.ActiveSnapshot, uint64(i)*100000, dsp)
			})
		if err := s.Network.Settle(); err != nil {
			return fmt.Errorf("core: active capture: %w", err)
		}
		return nil
	})
	return store, err
}

// RunInterceptionSuite attacks every active device (Table 7).
func (s *Study) RunInterceptionSuite() []*mitm.InterceptionReport {
	return runDeviceSuite(s, "interception", s.Proxy.RunInterception,
		func(id string) *mitm.InterceptionReport { return &mitm.InterceptionReport{Device: id} }, nil)
}

// RunDowngradeSuite probes every active device for downgrade behaviour
// (Table 5).
func (s *Study) RunDowngradeSuite() []*mitm.DowngradeReport {
	return runDeviceSuite(s, "downgrade", s.Proxy.RunDowngrade,
		func(id string) *mitm.DowngradeReport { return &mitm.DowngradeReport{Device: id} }, nil)
}

// runDeviceSuite runs one per-device experiment as the named phase,
// over every active device in parallel, and returns the reports in
// registry order. Each device runs contained: one that panics gets the
// empty report and a degradation. check, when non-nil, runs inside the
// phase over the reports, so connections it abandons count against the
// phase.
func runDeviceSuite[R any](s *Study, phase string, run func(*device.Device, *trace.Span) R, empty func(id string) R, check func([]R)) (out []R) {
	s.phase(phase, func() error {
		s.advanceToActiveWindow()
		devs := s.Registry.ActiveDevices()
		out = make([]R, len(devs))
		pool.RunSpans(s.Workers(), len(devs), s.tracePhase, "device",
			func(i int) string { return devs[i].ID },
			func(_, i int, dsp *trace.Span) {
				defer s.recoverDevice(phase, devs[i].ID, dsp, func() { out[i] = empty(devs[i].ID) })
				out[i] = run(devs[i], dsp)
			})
		if check != nil {
			check(out)
		}
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
	return runPassthrough(s, nil)
}

// runPassthrough is RunPassthroughSuite with an optional check of the
// reports run inside the phase.
func runPassthrough(s *Study, check func([]*mitm.PassthroughReport)) []*mitm.PassthroughReport {
	return runDeviceSuite(s, "passthrough", s.Proxy.RunPassthrough,
		func(id string) *mitm.PassthroughReport { return &mitm.PassthroughReport{Device: id} }, check)
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
// Report.Degradations and annotated in the rendered output. A phase the
// watchdog finds hung is the exception: RunAll then returns no report
// and the *HangError (Err).
func (s *Study) RunAll() (*Report, error) {
	end := s.phaseMetrics("all")
	rep := &Report{}

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
		s.DerivePassive(rep)
		return nil
	})

	if store, _ := s.CaptureActiveSnapshot(); store != nil {
		rep.ActiveStore = store
		s.DeriveActive(rep)
	}

	rep.Downgrades = s.RunDowngradeSuite()
	rep.OldVersions = s.RunOldVersionSuite()
	rep.Interceptions = s.RunInterceptionSuite()
	rep.ProbeReports, _, _ = s.RunProbe()

	// The §4.2 re-test of newly exposed hosts dials, so it runs inside
	// the passthrough phase.
	var noNewFailures bool
	rep.Passthroughs = runPassthrough(s, func(reports []*mitm.PassthroughReport) {
		noNewFailures = s.verifyNoNewFailures(reports, rep.Interceptions)
	})
	if err := s.Err(); err != nil {
		s.traceStudyRoot().End("failed")
		end("failed")
		return nil, err
	}

	rep.Degradations = s.Degradations()
	s.DeriveExperiments(rep, noNewFailures)
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
				res := s.Proxy.AttackHost(dev, *dst, attack, nil)
				if res.Vulnerable && !known[pr.Device][host] {
					return false
				}
			}
		}
	}
	return true
}

// RenderSafe renders one artifact contained: a renderer that panics on
// degraded inputs (e.g. a nil figure) yields an explicit placeholder
// instead, so a report always renders.
func RenderSafe(render func() string) (out string) {
	defer func() {
		if p := recover(); p != nil {
			out = fmt.Sprintf("[PARTIAL: artifact unavailable — %v]\n", p)
		}
	}()
	return render()
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
	for _, render := range []func() string{
		func() string { return analysis.RenderTable1(s.Registry) },
		analysis.RenderTable2,
		analysis.RenderTable3,
		func() string { return analysis.RenderTable4(r.Table4Rows) },
		r.Figure1.Render,
		r.Figure2.Render,
		r.Figure3.Render,
		func() string { return analysis.RenderTable5(r.Downgrades, nameOf) },
		func() string { return analysis.RenderTable6(r.OldVersions, nameOf) },
		func() string { return analysis.RenderTable7(r.Interceptions, nameOf) },
		r.Table8.Render,
		func() string { return analysis.RenderTable9(r.ProbeReports, nameOf) },
		r.Figure4.Render,
		r.Figure5.Render,
		r.Comparison.Render,
		r.Passthrough.Render,
		r.Dataset.Render,
	} {
		b.WriteString(RenderSafe(render))
		b.WriteByte('\n')
	}
	// The last artifact carries no trailing blank line, preserving the
	// clean-study render byte for byte.
	b.WriteString(RenderSafe(r.Diversity.Render))
	out := b.String()
	if r.Degraded() {
		out += "\n\n" + degradationLog(r.Degradations)
	}
	return out
}
