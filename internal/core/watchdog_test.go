package core

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/driver"
	"repro/internal/netem"
	"repro/internal/wire"
)

// hang serves host:443 from a listener that reads the ClientHello and
// then waits for more, never answering and never stalling, so the
// device and the listener wait on each other.
func hang(s *Study, host string) {
	s.Network.Listen(host, 443, func(conn net.Conn, _ netem.ConnMeta) {
		defer conn.Close()
		if _, err := wire.ReadRecord(conn); err != nil {
			return
		}
		io.Copy(io.Discard, conn)
	})
}

// watched runs phase and returns its error, failing the test if the
// phase outlives a guard far above the shortened watchdog bound.
func watched(t *testing.T, phase func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- phase() }()
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		t.Fatal("the phase outlived the watchdog")
		return nil
	}
}

// TestWatchdogFailsHungStudy hangs one boot destination during the
// active capture. The watchdog must find the connection, name the
// phase, the device and the host, and fail the study rather than
// degrade it.
func TestWatchdogFailsHungStudy(t *testing.T) {
	defer func(old time.Duration) { watchdogBound = old }(watchdogBound)
	watchdogBound = 200 * time.Millisecond

	s := NewStudy()
	dev := s.Registry.ActiveDevices()[0]
	boot := dev.BootDestinations()
	if len(boot) == 0 {
		t.Fatalf("%s has no boot destination", dev.ID)
	}
	host := boot[0].Host
	hang(s, host)

	err := watched(t, func() error { _, err := s.CaptureActiveSnapshot(); return err })
	var hung *HangError
	if !errors.As(err, &hung) {
		t.Fatalf("CaptureActiveSnapshot err = %v, want a *HangError", err)
	}
	msg := err.Error()
	for _, want := range []string{"phase active_capture", dev.ID + " → " + host + ":443"} {
		if !strings.Contains(msg, want) {
			t.Errorf("phase error %q does not name %q", msg, want)
		}
	}

	rep, err := s.RunAll()
	if rep != nil || err != hung || s.Err() != hung {
		t.Fatalf("RunAll = (%v, %v), Err = %v; want no report and the watchdog's error", rep, err, s.Err())
	}
	if ds := s.Degradations(); len(ds) != 0 {
		t.Fatalf("a hung study recorded degradations %v, want a failure only", ds)
	}
}

// TestWatchdogEndsHungInterceptionPhase hangs every boot destination's
// real server during the passthrough suite, whose second boot sends the
// hosts that refused interception to the real servers. Once the
// watchdog aborts the network, the devices still booting keep dialing
// hosts the interception session hijacks; none of those dials may leave
// the session waiting for a handler that never runs.
func TestWatchdogEndsHungInterceptionPhase(t *testing.T) {
	defer func(old time.Duration) { watchdogBound = old }(watchdogBound)
	watchdogBound = 200 * time.Millisecond

	s := NewStudy()
	s.Parallelism = 2
	for _, dev := range s.Registry.ActiveDevices() {
		for _, dst := range dev.BootDestinations() {
			hang(s, dst.Host)
		}
	}

	err := watched(t, func() error { s.RunPassthroughSuite(); return s.Err() })
	var hung *HangError
	if !errors.As(err, &hung) {
		t.Fatalf("RunPassthroughSuite err = %v, want a *HangError", err)
	}
	if hung.Phase != "passthrough" || len(hung.Conns) == 0 {
		t.Fatalf("HangError = %+v, want the passthrough phase and its stuck connections", hung)
	}
}

// TestWatchBoundsDialsOutsidePhases hangs a boot destination under
// Watch, which the audit and guard commands and the examples use to
// drive devices outside the study's phases.
func TestWatchBoundsDialsOutsidePhases(t *testing.T) {
	defer func(old time.Duration) { watchdogBound = old }(watchdogBound)
	watchdogBound = 200 * time.Millisecond

	s := NewStudy()
	dev := s.Registry.ActiveDevices()[0]
	host := dev.BootDestinations()[0].Host
	hang(s, host)

	err := watched(t, func() error {
		return s.Watch("guard", func() { driver.Boot(s.Network, dev, device.ActiveSnapshot, 1, nil) })
	})
	var hung *HangError
	if !errors.As(err, &hung) || hung.Phase != "guard" {
		t.Fatalf("Watch err = %v, want the guard phase's *HangError", err)
	}
	if want := dev.ID + " → " + host + ":443"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name %q", err, want)
	}
}
