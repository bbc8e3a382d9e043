// Job-scoped study construction. The CLI and the serve layer both build
// their testbeds through Config/NewStudyFromConfig, so a job submitted
// over the API and the same flags given to `iotls` produce the same
// study — which is what makes serve-rendered artifacts byte-identical
// to CLI-rendered ones.
package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/trace"
)

// Config describes one study job: everything that influences the
// simulated reality (seed, faults, window, device subset) plus the
// runtime knob that must not (parallelism).
type Config struct {
	// Parallelism is the worker count for every parallelisable phase;
	// zero or negative means GOMAXPROCS (resolved once per study).
	Parallelism int

	// FaultSeed / FaultProfile arm deterministic fault injection.
	// Both zero-valued means faults are off. A bare seed uses the
	// "mild" profile; a bare profile uses seed 1 (matching the CLI's
	// -fault-seed / -fault-profile semantics).
	FaultSeed    uint64
	FaultProfile string

	// WindowFrom/WindowTo narrow the passive collection window; the
	// zero Month means the full study bound. They become the study's
	// PassiveFrom/PassiveTo, the only window any passive run uses.
	WindowFrom, WindowTo clock.Month

	// Devices restricts the testbed to the named device IDs (sharded
	// fleet capture); nil means the full fleet.
	Devices []string

	// FleetN, when positive, replaces the 40-device catalog with a
	// synthetic fleet of FleetN seeded devices (see internal/fleet): the
	// generator samples the catalog's dimensions — library × version ×
	// root store × validation policy × resilience × destination mix —
	// into deterministic device instances. FleetSeed selects the sample;
	// the same (FleetN, FleetSeed) always builds the same fleet, so
	// Devices subsetting and distributed coordination compose with it.
	// Fleet studies never trace: spans are per handshake, which would
	// reintroduce the O(run) memory the month-spill path exists to
	// avoid, so NoTrace is implied.
	FleetN    int
	FleetSeed uint64

	// NoTrace disables the causal trace tree. Tracing is on by default
	// for the catalog (its spans are seeded off FaultSeed, so traces are
	// deterministic either way); benchmarks use this to measure a
	// traced-off baseline.
	NoTrace bool
}

// faultPlan resolves the config's fault flags into an armed plan, or
// nil when faults are off.
func (c Config) faultPlan() (*fault.Plan, error) {
	if c.FaultSeed == 0 && c.FaultProfile == "" {
		return nil, nil
	}
	profile := c.FaultProfile
	if profile == "" {
		profile = "mild"
	}
	prof, ok := fault.Profiles[profile]
	if !ok {
		return nil, fmt.Errorf("core: unknown fault profile %q (want off, mild, or aggressive)", profile)
	}
	seed := c.FaultSeed
	if seed == 0 {
		seed = 1
	}
	return fault.NewPlan(seed, prof), nil
}

// Validate checks the config without building a testbed. Device IDs
// are validated at construction time (the registry owns the fleet).
func (c Config) Validate() error {
	if _, err := c.faultPlan(); err != nil {
		return err
	}
	if (c.WindowFrom != clock.Month{}) && (c.WindowTo != clock.Month{}) && c.WindowTo.Before(c.WindowFrom) {
		return fmt.Errorf("core: passive window %s..%s is inverted", c.WindowFrom, c.WindowTo)
	}
	if c.FleetN < 0 || c.FleetN > fleet.MaxN {
		return fmt.Errorf("core: fleet size %d outside 0..%d", c.FleetN, fleet.MaxN)
	}
	return nil
}

// NewStudyFromConfig builds a fresh testbed configured per c.
func NewStudyFromConfig(c Config) (*Study, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	plan, err := c.faultPlan()
	if err != nil {
		return nil, err
	}
	s := NewStudy()
	if c.FleetN > 0 {
		spec := fleet.Spec{N: c.FleetN, Seed: c.FleetSeed}
		s = newStudyWithRegistry(func(clk clock.Clock) *device.Registry {
			return fleet.NewRegistry(clk, spec)
		})
		s.fleet = spec
	}
	s.Parallelism = c.Parallelism
	s.PassiveFrom, s.PassiveTo = c.WindowFrom, c.WindowTo
	if plan != nil {
		s.SetFaultPlan(plan)
	}
	if !c.NoTrace && c.FleetN == 0 {
		// The tracer shares the fault seed (zero on clean runs): span
		// IDs are then a pure function of the config, like every other
		// artifact.
		s.SetTracer(trace.New(s.Clock, c.FaultSeed))
	}
	if len(c.Devices) > 0 {
		if err := s.RestrictDevices(c.Devices); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// ParseWindow parses a "2018-01..2018-06" passive-window expression;
// either side may be empty ("..2018-06", "2018-03..") to keep the
// study bound on that side. The empty string means the full window.
func ParseWindow(s string) (from, to clock.Month, err error) {
	if s == "" {
		return from, to, nil
	}
	parts := strings.SplitN(s, "..", 2)
	if len(parts) != 2 {
		return from, to, fmt.Errorf("core: window %q: want FROM..TO (e.g. 2018-01..2018-06)", s)
	}
	if parts[0] != "" {
		if from, err = ParseMonth(parts[0]); err != nil {
			return from, to, err
		}
	}
	if parts[1] != "" {
		if to, err = ParseMonth(parts[1]); err != nil {
			return from, to, err
		}
	}
	if (from != clock.Month{}) && (to != clock.Month{}) && to.Before(from) {
		return from, to, fmt.Errorf("core: window %q is inverted", s)
	}
	return from, to, nil
}

// ParseMonth parses clock.Month's "2018-01" rendering.
func ParseMonth(s string) (clock.Month, error) {
	t, err := time.Parse("2006-01", s)
	if err != nil {
		return clock.Month{}, fmt.Errorf("core: invalid month %q (want YYYY-MM)", s)
	}
	return clock.Month{Year: t.Year(), Mon: t.Month()}, nil
}
