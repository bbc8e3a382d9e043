// Package probe implements the paper's novel root-store exploration
// technique (§4.2): black-box inference of a device's trusted CA set
// through the TLS Alert side channel.
//
// For each candidate CA, the prober intercepts a reboot-triggered TLS
// connection with a chain anchored at a *spoofed* copy of the CA (same
// Subject Name, Issuer Name, Serial Number; different key). A client
// that trusts the CA fails with a signature-validation alert
// (decrypt_error / bad_certificate); a client that does not trust it
// fails with unknown_ca. Libraries that emit the same alert for both
// cases — or none — are not amenable (Table 4), which the prober
// discovers through a calibration step before exploring.
package probe

import (
	"fmt"

	"repro/internal/certs"
	"repro/internal/device"
	"repro/internal/mitm"
	"repro/internal/pool"
	"repro/internal/rootstore"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Verdict is the outcome of one CA trial.
type Verdict int

const (
	// VerdictInconclusive: the device produced no usable signal (no
	// traffic on reboot, or an unexpected alert).
	VerdictInconclusive Verdict = iota
	// VerdictIncluded: the CA is in the device's root store.
	VerdictIncluded
	// VerdictExcluded: the CA is not in the root store.
	VerdictExcluded
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictIncluded:
		return "included"
	case VerdictExcluded:
		return "excluded"
	default:
		return "inconclusive"
	}
}

// Trial is one CA probe result.
type Trial struct {
	CA      *rootstore.CA
	Verdict Verdict
	// Alert is the client alert observed, nil when none.
	Alert *wire.Alert
}

// Report is the exploration result for one device (a Table 9 row plus
// the Figure 4 raw material).
type Report struct {
	Device string
	// Amenable reports whether the calibration step found a usable
	// side channel.
	Amenable bool
	// BadSignatureAlert / UnknownCAAlert are the calibrated signals.
	BadSignatureAlert wire.AlertDescription
	UnknownCAAlert    wire.AlertDescription
	// Common and Deprecated hold per-CA trials for the two §4.2 sets.
	Common     []Trial
	Deprecated []Trial
}

// stats counts included/conclusive over a trial list.
func stats(trials []Trial) (included, conclusive int) {
	for _, t := range trials {
		switch t.Verdict {
		case VerdictIncluded:
			included++
			conclusive++
		case VerdictExcluded:
			conclusive++
		}
	}
	return included, conclusive
}

// CommonStats returns the Table 9 "Common certs" cell values.
func (r *Report) CommonStats() (included, conclusive int) { return stats(r.Common) }

// DeprecatedStats returns the Table 9 "Deprecated certs" cell values.
func (r *Report) DeprecatedStats() (included, conclusive int) { return stats(r.Deprecated) }

// TrustedDistrusted returns the explicitly distrusted CAs found in the
// device's store (§5.2: at least one in every probed device).
func (r *Report) TrustedDistrusted() []*rootstore.CA {
	var out []*rootstore.CA
	for _, t := range r.Deprecated {
		if t.Verdict == VerdictIncluded && t.CA.Distrusted {
			out = append(out, t.CA)
		}
	}
	return out
}

// StaleIncluded returns the deprecated CAs found in the store together
// with their latest removal years (Figure 4's input).
func (r *Report) StaleIncluded() map[int]int {
	hist := make(map[int]int)
	for _, t := range r.Deprecated {
		if t.Verdict == VerdictIncluded {
			hist[t.CA.LatestRemovalYear()]++
		}
	}
	return hist
}

// Prober drives root-store exploration through the interception proxy.
type Prober struct {
	Proxy    *mitm.Proxy
	Registry *device.Registry
	// Repeats is the number of trials per CA; verdicts are decided by
	// majority among non-inconclusive attempts. One trial (the default)
	// matches the paper's procedure; higher values buy robustness on
	// flaky networks at a linear cost in reboots.
	Repeats int
	// Parallelism is the worker count for ExploreAll's per-device
	// explorations (zero or negative means GOMAXPROCS). Explorations are
	// independent — each taps only its own device's traffic — and
	// reports come back in candidate order regardless of the value.
	Parallelism int
	// Trace, when set, is the probe phase's span: ExploreAll hangs one
	// device span per candidate off it and every probe connection is
	// traced beneath.
	Trace *trace.Span
}

// New builds a Prober with a single trial per CA.
func New(proxy *mitm.Proxy, reg *device.Registry) *Prober {
	return &Prober{Proxy: proxy, Registry: reg, Repeats: 1}
}

func (p *Prober) repeats() int {
	if p.Repeats < 1 {
		return 1
	}
	return p.Repeats
}

// Calibrate performs the §4.2 amenability test: one interception with a
// spoofed copy of a CA known to be trusted (an operational CA — every
// device trusts the cloud PKI anchors), one with an arbitrary unknown
// CA. The device is amenable when both trials produce alerts and the
// alerts differ.
func (p *Prober) Calibrate(dev *device.Device) (amenable bool, badSig, unknown wire.AlertDescription, err error) {
	return p.calibrate(dev, nil)
}

func (p *Prober) calibrate(dev *device.Device, dsp *trace.Span) (amenable bool, badSig, unknown wire.AlertDescription, err error) {
	tel := p.Proxy.Telemetry()
	tel.Counter("probe.calibrations").Inc()
	dst, ok := dev.ProbeDestination()
	if !ok {
		return false, 0, 0, fmt.Errorf("probe: %s has no boot destination", dev.ID)
	}
	trusted := device.OperationalCAs(p.Registry.Universe)[0].Pair.Cert
	recKnown := p.Proxy.ProbeOnce(dev, dst, trusted, dsp)
	recUnknown := p.Proxy.ProbeOnce(dev, dst, nil, dsp)
	if recKnown.Intercepted || recUnknown.Intercepted {
		// The device accepted a forged chain: it is not validating, so
		// there is no side channel to read.
		return false, 0, 0, nil
	}
	if recKnown.ClientAlert == nil || recUnknown.ClientAlert == nil {
		return false, 0, 0, nil
	}
	if recKnown.ClientAlert.Description == recUnknown.ClientAlert.Description {
		return false, 0, 0, nil
	}
	return true, recKnown.ClientAlert.Description, recUnknown.ClientAlert.Description, nil
}

// Explore runs the full exploration for one device: calibration, then
// one spoofed-CA trial per certificate in the common and deprecated
// sets. Every probe connection is traced under the device's span dsp,
// which may be nil.
func (p *Prober) Explore(dev *device.Device, dsp *trace.Span) (*Report, error) {
	tel := p.Proxy.Telemetry()
	report := &Report{Device: dev.ID}
	amenable, badSig, unknown, err := p.calibrate(dev, dsp)
	if err != nil {
		return nil, err
	}
	report.Amenable = amenable
	if !amenable {
		return report, nil
	}
	tel.Counter("probe.amenable").Inc()
	report.BadSignatureAlert = badSig
	report.UnknownCAAlert = unknown

	dst, _ := dev.ProbeDestination()
	u := p.Registry.Universe
	at := device.ActiveSnapshot.Start()

	runSet := func(cs []*certs.Certificate) []Trial {
		trials := make([]Trial, 0, len(cs))
		for _, c := range cs {
			ca, _ := u.Lookup(c)
			trial := Trial{CA: ca}
			if !dev.ProbeConclusive(c) {
				// The device did not generate traffic on this reboot —
				// the §5.2 "inconclusive" case.
				tel.Counter("probe.trials").Inc()
				tel.Counter("probe.verdicts." + VerdictInconclusive.String()).Inc()
				trials = append(trials, trial)
				continue
			}
			votes := map[Verdict]int{}
			for attempt := 0; attempt < p.repeats(); attempt++ {
				rec := p.Proxy.ProbeOnce(dev, dst, c, dsp)
				var v Verdict
				switch {
				case rec.ClientAlert == nil:
					v = VerdictInconclusive
				case rec.ClientAlert.Description == badSig:
					v = VerdictIncluded
					trial.Alert = rec.ClientAlert
				case rec.ClientAlert.Description == unknown:
					v = VerdictExcluded
					trial.Alert = rec.ClientAlert
				default:
					v = VerdictInconclusive
				}
				votes[v]++
			}
			// Majority among decisive attempts; ties and all-silent runs
			// stay inconclusive.
			switch {
			case votes[VerdictIncluded] > votes[VerdictExcluded]:
				trial.Verdict = VerdictIncluded
			case votes[VerdictExcluded] > votes[VerdictIncluded]:
				trial.Verdict = VerdictExcluded
			default:
				trial.Verdict = VerdictInconclusive
			}
			tel.Counter("probe.trials").Inc()
			tel.Counter("probe.verdicts." + trial.Verdict.String()).Inc()
			trials = append(trials, trial)
		}
		return trials
	}

	report.Common = runSet(u.CommonCertificates(at))
	report.Deprecated = runSet(u.DeprecatedCertificates(at))
	return report, nil
}

// ExploreAll explores every probe candidate and returns the reports of
// the amenable devices (the Table 9 population), plus the count of
// candidates tested.
func (p *Prober) ExploreAll() (amenable []*Report, candidates int, err error) {
	devs := p.Registry.ProbeCandidates()
	reports := make([]*Report, len(devs))
	errs := make([]error, len(devs))
	run := func(_, i int, dsp *trace.Span) {
		reports[i], errs[i] = p.Explore(devs[i], dsp)
	}
	pool.RunSpans(p.Parallelism, len(devs), p.Trace, "device",
		func(i int) string { return devs[i].ID }, run)
	for i := range devs {
		// Mirror the sequential engine: the first failing candidate (in
		// candidate order) aborts, counting only the devices up to it.
		if errs[i] != nil {
			return nil, i + 1, errs[i]
		}
	}
	for _, rep := range reports {
		if rep.Amenable {
			amenable = append(amenable, rep)
		}
	}
	return amenable, len(devs), nil
}
