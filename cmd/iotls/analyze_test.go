package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	fleetpkg "repro/internal/fleet"
)

// stdoutOf runs fn with stdout sent to a temp file and returns what it
// printed.
func stdoutOf(t *testing.T, fn func() error) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout-*")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = old
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestAnalyzeNamesItsFleet pins the CLI side of a dataset naming its
// own testbed: `analyze` with no fleet flags prints exactly the
// `-fleet N -fleet-seed S report` of the captured fleet, and analyzing
// two device-subset captures together (merged into a temporary
// dataset) prints the same. Analyze also feeds the debug inspector.
func TestAnalyzeNamesItsFleet(t *testing.T) {
	root := t.TempDir()
	full, a, b := filepath.Join(root, "full"), filepath.Join(root, "a"), filepath.Join(root, "b")
	fleet := smallWindow(t, "2018-01..2018-01")
	fleet.FleetN, fleet.FleetSeed = 20, 7
	var ids []string
	for i := 0; i < fleet.FleetN; i++ {
		ids = append(ids, fleetpkg.ID(i))
	}
	var want string
	withStudyConfig(t, fleet, func() error {
		want = stdoutOf(t, func() error { return runReport(nil) })
		for _, c := range [][]string{
			{"-out", full},
			{"-out", a, "-devices", strings.Join(ids[:3], ",")},
			{"-out", b, "-devices", strings.Join(ids[3:], ",")},
		} {
			stdoutOf(t, func() error { return runCapture(c) })
		}
		return nil
	})
	if !strings.Contains(want, "Fleet Device 0") {
		t.Fatal("fleet report does not name the fleet's devices")
	}
	debugTelemetry.Store(nil)
	if got := stdoutOf(t, func() error { return runAnalyze([]string{"-in", full}) }); got != want {
		t.Errorf("flag-less analyze of a fleet capture differs from its live report (%d vs %d bytes)", len(got), len(want))
	}
	if debugTelemetry.Load() == nil {
		t.Error("analyze registered no telemetry with the debug inspector")
	}
	if got := stdoutOf(t, func() error { return runAnalyze([]string{"-in", a + "," + b}) }); got != want {
		t.Errorf("analyze of two fleet subsets differs from the whole fleet's report (%d vs %d bytes)", len(got), len(want))
	}
}
