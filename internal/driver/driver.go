// Package driver runs the client side of the testbed: it makes devices
// dial their destinations through the simulated network, applying each
// device's instance configuration for the current month and its
// downgrade-on-failure behaviour (Table 5). The mitm, probe and traffic
// packages all trigger device activity through this runtime, mirroring
// the paper's use of smart plugs to reboot devices into generating TLS
// traffic (§4.1).
package driver

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/ciphers"
	"repro/internal/clock"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/netem"
	"repro/internal/tlssim"
	"repro/internal/trace"
)

// Outcome describes one connection attempt (including any fallback
// retry) from the device's perspective.
type Outcome struct {
	Device string
	Host   string
	Port   int
	Month  clock.Month

	// Established reports overall success (primary or fallback).
	Established bool
	// Version and Suite are the negotiated parameters on success.
	Version ciphers.Version
	Suite   ciphers.Suite
	// Err is the final failure, nil on success.
	Err error
	// UsedFallback reports that the downgraded configuration was tried.
	UsedFallback bool
	// FallbackEstablished reports the downgraded attempt succeeded.
	FallbackEstablished bool
	// ValidationBypassed mirrors the session flag.
	ValidationBypassed bool
	// Reply is the application-layer response received, if any.
	Reply string

	// Retries counts resilience-policy retry attempts (fault campaigns
	// only; zero on a clean network).
	Retries int
	// BackoffVirtual is the total virtual-time backoff the device spent
	// between retries (accounting only, never a wall-clock sleep).
	BackoffVirtual time.Duration
	// GaveUp reports the device exhausted its retry budget on a
	// transient failure.
	GaveUp bool
}

// Connect dials one destination as dev would in month m, honouring
// fallback behaviour. seq seeds the hello randoms.
func Connect(nw *netem.Network, dev *device.Device, dst device.Destination, m clock.Month, seq uint64) Outcome {
	return ConnectTraced(nw, dev, dst, m, seq, nil)
}

// ConnectTraced is Connect recording the attempt as a "connect" child
// span of parent (nil parent disables tracing): retries, fallbacks,
// injected faults, chain verification and the capture write all become
// children of the attempt span, and the span's status is the final
// outcome.
func ConnectTraced(nw *netem.Network, dev *device.Device, dst device.Destination, m clock.Month, seq uint64, parent *trace.Span) Outcome {
	out := Outcome{Device: dev.ID, Host: dst.Host, Port: 443, Month: m}
	tel := nw.Telemetry()
	tel.Counter("driver.connects").Inc()
	sp := parent.Child("connect", dst.Host)

	cfg := dev.ConfigAt(dst.Slot, m)
	cfg.AuxDialer = nw.Dial
	cfg.SrcHost = dev.ID
	cfg.Telemetry = tel
	cfg.Trace = sp

	sess, err := dialAndHandshake(nw, dev, dst, cfg, seq, sp)

	// Under an armed fault plan, transient failures engage the device's
	// retry policy. The gate on FaultPlan keeps clean-network runs on
	// the exact pre-fault code path, so baseline artifacts are
	// unchanged. Retry attempts perturb the hello-random seed by a
	// fixed prime so a retried handshake is a *new* handshake, while
	// staying clear of the seq+1 the fallback attempt uses.
	if err != nil && nw.FaultPlan() != nil {
		pol := dev.ResiliencePolicy()
		for attempt := 1; attempt <= pol.MaxRetries && retryable(err); attempt++ {
			if d := pol.Delay(attempt, device.RetryJitter(dev.ID, dst.Host, attempt)); d > 0 {
				out.BackoffVirtual += d
				tel.Counter("driver.retry_backoff_virtual_ms").Add(d.Milliseconds())
			}
			out.Retries++
			tel.Counter("driver.retries").Inc()
			rsp := sp.Child("retry", fmt.Sprintf("attempt %d", attempt))
			cfg.Trace = rsp
			sess, err = dialAndHandshake(nw, dev, dst, cfg, seq+uint64(attempt)*7919, rsp)
			rsp.End(failStatus(err))
			if err == nil {
				tel.Counter("driver.retries.established").Inc()
			}
		}
		cfg.Trace = sp
		if err != nil && retryable(err) {
			out.GaveUp = true
			tel.Counter("driver.giveups").Inc()
		}
	}

	if err == nil {
		finish(nw, &out, sess, dev, dst)
		sp.End("ok")
		return out
	}
	out.Err = err

	// Downgrade-on-failure: retry once with the fallback instance when
	// the failure class matches the trigger.
	fb := dev.Slots[dst.Slot].Fallback
	fbCfg := dev.FallbackConfigAt(dst.Slot)
	if fb == nil || fbCfg == nil || !shouldFallback(fb, err) {
		sp.End(connectStatus(&out, err))
		return out
	}
	out.UsedFallback = true
	tel.Counter("driver.fallbacks").Inc()
	fbCfg.AuxDialer = nw.Dial
	fbCfg.SrcHost = dev.ID
	fbCfg.Telemetry = tel
	fsp := sp.Child("fallback", "downgraded config")
	fbCfg.Trace = fsp
	sess, err = dialAndHandshake(nw, dev, dst, fbCfg, seq+1, fsp)
	fsp.End(failStatus(err))
	if err != nil {
		out.Err = err
		sp.End(connectStatus(&out, err))
		return out
	}
	out.FallbackEstablished = true
	out.Err = nil
	tel.Counter("driver.fallbacks.established").Inc()
	finish(nw, &out, sess, dev, dst)
	sp.End("ok")
	return out
}

// failStatus classifies a handshake result as a trace-span status.
func failStatus(err error) string {
	if err == nil {
		return "ok"
	}
	if errors.Is(err, fault.ErrInjected) {
		return "fault_injected"
	}
	var he *tlssim.HandshakeError
	if errors.As(err, &he) {
		if he.Alert != nil {
			return "alert:" + he.Alert.Description.String()
		}
		return he.Class.String()
	}
	return "error"
}

// connectStatus classifies the overall attempt: a retry-budget
// exhaustion reads "gave_up" whatever the final error looked like, so
// traces attribute degradations directly.
func connectStatus(out *Outcome, err error) string {
	if out.GaveUp {
		return "gave_up"
	}
	return failStatus(err)
}

// Boot power-cycles the device: resets per-instance state and dials
// every boot destination once, as the paper's smart-plug reboots do.
// When the first boot connection succeeds, the device proceeds to its
// post-login destinations — the behaviour behind the paper's
// TrafficPassthrough finding (§4.2: ≈20.4% additional hostnames once
// previously-intercepted connections are allowed through). Every boot
// connection is traced as a child of parent (usually the device's span
// for the active phase), which may be nil.
func Boot(nw *netem.Network, dev *device.Device, m clock.Month, seq uint64, parent *trace.Span) []Outcome {
	nw.Telemetry().Counter("driver.boots").Inc()
	dev.Reset(m)
	var outs []Outcome
	for i, dst := range dev.BootDestinations() {
		outs = append(outs, ConnectTraced(nw, dev, dst, m, seq+uint64(i)*101, parent))
	}
	if len(outs) > 0 && outs[0].Established {
		for i, dst := range dev.AfterLoginDestinations() {
			outs = append(outs, ConnectTraced(nw, dev, dst, m, seq+9000+uint64(i)*101, parent))
		}
	}
	return outs
}

// dialAndHandshake opens the transport and runs the TLS client. sp is
// the attempt's trace span (nil untraced); the gateway hangs fault
// spans off it and the sniffer its capture-write span.
func dialAndHandshake(nw *netem.Network, dev *device.Device, dst device.Destination, cfg *tlssim.ClientConfig, seq uint64, sp *trace.Span) (*tlssim.Session, error) {
	conn, err := nw.DialTraced(dev.ID, dst.Host, 443, sp)
	if err != nil {
		return nil, err
	}
	return tlssim.Client(conn, cfg, dst.Host, seq)
}

// finish exchanges application data over the established session. A
// server that will never answer declares the stall instead of leaving
// the reply read to hang.
func finish(nw *netem.Network, out *Outcome, sess *tlssim.Session, dev *device.Device, dst device.Destination) {
	out.Established = true
	out.Version = sess.Version
	out.Suite = sess.Suite
	out.ValidationBypassed = sess.ValidationBypassed
	defer sess.Close()
	if _, err := io.WriteString(sess.Conn, dev.Payload(dst.Host)); err != nil {
		return
	}
	buf := make([]byte, 256)
	n, err := sess.Conn.Read(buf)
	if err == nil {
		out.Reply = string(buf[:n])
	}
}

// retryable reports whether a failure looks transient from the
// device's perspective: an injected network fault, or a handshake that
// died of connection trouble (timeout, abrupt close, I/O error) rather
// than a protocol-level rejection. Alerts and certificate failures are
// deterministic — retrying the same configuration cannot help, and the
// fallback logic owns those.
func retryable(err error) bool {
	if errors.Is(err, fault.ErrInjected) {
		return true
	}
	var he *tlssim.HandshakeError
	if !errors.As(err, &he) {
		return false
	}
	switch he.Class {
	case tlssim.FailIncomplete, tlssim.FailPeerClosed, tlssim.FailIO:
		return true
	default:
		return false
	}
}

// shouldFallback matches a failure against the fallback triggers.
func shouldFallback(fb *device.Fallback, err error) bool {
	var he *tlssim.HandshakeError
	if !errors.As(err, &he) {
		return false
	}
	switch he.Class {
	case tlssim.FailIncomplete:
		return fb.OnIncomplete
	case tlssim.FailAlertReceived, tlssim.FailCertificate, tlssim.FailPeerClosed:
		return fb.OnFailed
	default:
		return false
	}
}
