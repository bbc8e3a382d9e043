// Graceful degradation: the machinery that lets a fault-ridden study
// finish anyway. Every study phase runs contained — a panic or typed
// error becomes a Degradation entry instead of an abort — and per-device
// suite work recovers individually, substituting an empty report for the
// device that failed. The report then renders with explicit PARTIAL
// annotations rather than silently presenting damaged tables as whole.
package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Degradation records one contained incident of a study run.
type Degradation struct {
	// Phase is the study phase the incident occurred in.
	Phase string
	// Reason is a human-readable description.
	Reason string
}

// PhaseError is the typed error a contained phase failure produces.
type PhaseError struct {
	Phase string
	Err   error
	// Panicked distinguishes a recovered panic from a returned error.
	Panicked bool
}

// Error implements error.
func (e *PhaseError) Error() string {
	if e.Panicked {
		return fmt.Sprintf("core: phase %s panicked: %v", e.Phase, e.Err)
	}
	return fmt.Sprintf("core: phase %s: %v", e.Phase, e.Err)
}

// Unwrap exposes the underlying cause.
func (e *PhaseError) Unwrap() error { return e.Err }

// runContained invokes fn, converting a returned error or a panic into
// a *PhaseError. Note it cannot catch panics on goroutines fn spawns;
// per-device pool work uses recoverDevice for that.
func (s *Study) runContained(phase string, fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PhaseError{Phase: phase, Err: fmt.Errorf("%v", p), Panicked: true}
		}
	}()
	if e := fn(); e != nil {
		return &PhaseError{Phase: phase, Err: e}
	}
	return nil
}

// noteDegraded records one incident and counts it in telemetry.
func (s *Study) noteDegraded(phase, reason string) {
	s.Telemetry.Counter("core.degraded." + phase).Inc()
	d := Degradation{Phase: phase, Reason: reason}
	s.degradeMu.Lock()
	s.degradations = append(s.degradations, d)
	s.degradeMu.Unlock()
	if s.OnDegraded != nil {
		s.OnDegraded(d)
	}
}

// Degradations returns the incidents recorded so far, in a
// deterministic order (per-device entries are appended from pool
// workers, so insertion order depends on scheduling).
func (s *Study) Degradations() []Degradation {
	s.degradeMu.Lock()
	out := append([]Degradation(nil), s.degradations...)
	s.degradeMu.Unlock()
	sortDegradations(out)
	return out
}

// sortDegradations puts a degradation log in its canonical order: by
// phase, then reason.
func sortDegradations(ds []Degradation) {
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].Phase != ds[j].Phase {
			return ds[i].Phase < ds[j].Phase
		}
		return ds[i].Reason < ds[j].Reason
	})
}

// errSkipped is the contained error of a phase a drained study skipped.
var errSkipped = errors.New("phase skipped: study interrupted (drain)")

// phase runs one study phase contained and watched (watch), recording a
// degradation on failure and — under an armed fault plan — when devices
// abandoned connections (retry budgets exhausted) during the phase. A
// phase the watchdog finds hung records no degradation: it fails the
// study (Err), and every later phase is skipped. phase is the phase's
// single record: it fires PhaseStart/PhaseDone, opens the trace tree's
// phase span, and keeps the phase metrics (recorded with tracing off
// too) in agreement with that span's status. It returns the contained
// error: a *PhaseError, a *HangError, or nil.
func (s *Study) phase(name string, fn func() error) (err error) {
	if s.PhaseStart != nil {
		s.PhaseStart(name)
	}
	end := s.phaseMetrics(name)
	psp := s.traceStudyRoot().Child("phase", name)
	s.tracePhase = psp
	status := "ok"
	defer func() {
		s.tracePhase = nil
		psp.End(status)
		end(status)
		if s.PhaseDone != nil {
			s.PhaseDone(name)
		}
	}()
	if s.failed != nil {
		status = "skipped"
		return s.failed
	}
	if s.Interrupted() {
		// A drained study skips everything it hasn't started: skipping
		// degrades the run (the report is partial), which the exit-code
		// contract and the serve drain path both rely on.
		status = "skipped"
		s.noteDegraded(name, errSkipped.Error())
		return &PhaseError{Phase: name, Err: errSkipped}
	}
	pre := s.Telemetry.Counter("driver.giveups").Value()
	if err = s.watch(name, fn); err != nil {
		if _, ok := err.(*HangError); ok {
			status, s.failed = "failed", err
			return err
		}
		status = "error"
		s.noteDegraded(name, err.Error())
	}
	if d := s.Telemetry.Counter("driver.giveups").Value() - pre; d > 0 {
		if status == "ok" {
			status = "degraded"
		}
		s.noteDegraded(name, fmt.Sprintf("%d connection(s) abandoned after retry exhaustion", d))
	}
	return err
}

// watchdogBound is how long a simulated connection may stay open before
// the study watchdog declares it hung. A healthy connection lives for
// milliseconds of wall time whatever the fleet size, so the bound sits
// far above any scheduling delay of a loaded host.
var watchdogBound = 30 * time.Second

// HangError is the study watchdog's finding, and no verdict: in Phase,
// Conns (each "src → host:port", sorted) stayed open past the bound.
// The study fails with it instead of degrading.
type HangError struct {
	Phase string
	Conns []string
}

// Error implements error.
func (e *HangError) Error() string {
	return fmt.Sprintf("core: phase %s hung: %d connection(s) open longer than %s: %s",
		e.Phase, len(e.Conns), watchdogBound, strings.Join(e.Conns, ", "))
}

// watch runs fn contained (runContained) under the study watchdog, the
// one wall-clock bound on the simulated data path. While fn runs, the
// watchdog checks the network eight times per bound; once a connection
// is overdue it aborts the network, which fails every open connection
// and every later dial so the phase unwinds at once, and watch returns
// a *HangError naming the overdue connections, whatever fn returned.
func (s *Study) watch(name string, fn func() error) error {
	done := make(chan error, 1)
	go func() { done <- s.runContained(name, fn) }()
	tick := time.NewTicker(watchdogBound / 8)
	defer tick.Stop()
	for {
		select {
		case err := <-done:
			return err
		case <-tick.C:
			if hung := s.Network.Overdue(watchdogBound); hung != nil {
				s.Network.Abort()
				<-done
				return &HangError{Phase: name, Conns: hung}
			}
		}
	}
}

// phaseMetrics counts core.phase.<name> as a phase starts and returns
// the func that ends it: span.phase.<name>.<status> plus the phase's
// virtual and wall durations.
func (s *Study) phaseMetrics(name string) func(status string) {
	tel := s.Telemetry
	tel.Counter("core.phase." + name).Inc()
	virt, wall := tel.Now(), time.Now()
	return func(status string) {
		tel.Counter("span.phase." + name + "." + status).Inc()
		tel.Histogram("span.phase."+name+".virtual_us", telemetry.DurationBucketsUS).Observe(tel.Now().Sub(virt).Microseconds())
		tel.Histogram("span.phase."+name+".wall_us", telemetry.DurationBucketsUS).Observe(time.Since(wall).Microseconds())
	}
}

// recoverDevice is deferred inside per-device pool workers: it turns a
// panic while processing one device into a degradation entry plus an
// empty substitute report (installed by fallback), so one broken device
// cannot sink a whole suite. The device's trace span (nil when
// untraced) is ended "panic" — End is first-wins, so the pool's later
// "ok" is a no-op.
func (s *Study) recoverDevice(phase, id string, dsp *trace.Span, fallback func()) {
	if p := recover(); p != nil {
		s.noteDegraded(phase, fmt.Sprintf("device %s: %v", id, p))
		dsp.End("panic")
		fallback()
	}
}

// Degraded reports whether the study recorded any incident.
func (r *Report) Degraded() bool { return len(r.Degradations) > 0 }

// degradationLog renders the report appendix listing every incident.
func degradationLog(ds []Degradation) string {
	var b strings.Builder
	b.WriteString("== Degradation log ==\n")
	for _, d := range ds {
		fmt.Fprintf(&b, "  [%s] %s\n", d.Phase, d.Reason)
	}
	return b.String()
}
