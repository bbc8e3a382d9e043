package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/telemetry"
)

// The CLI entry points are thin wrappers over internal/core; these
// smoke tests exercise the cheap ones end to end (stdout goes to the
// test log).
func TestRunTables(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	old := os.Stdout
	devnull, _ := os.Open(os.DevNull)
	defer devnull.Close()
	os.Stdout, _ = os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	defer func() { os.Stdout = old }()
	if err := runTables(); err != nil {
		t.Fatalf("runTables: %v", err)
	}
}

func TestRunExportSmallWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tmp, err := os.CreateTemp(t.TempDir(), "obs-*.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	tmp.Close()
	muteStdout(t)
	err = withStudyConfig(t, smallWindow(t, "2018-01..2018-01"), func() error {
		return runExport([]string{"-o", tmp.Name()})
	})
	if err != nil {
		t.Fatalf("runExport: %v", err)
	}
	info, err := os.Stat(tmp.Name())
	if err != nil || info.Size() == 0 {
		t.Fatalf("export produced no data: %v", err)
	}
}

// TestWindowNarrowsPassivePaths pins that the global -window reaches
// every passive entry point: passive, export and metrics passive each
// simulate exactly the configured month, not the full study.
func TestWindowNarrowsPassivePaths(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := smallWindow(t, "2018-02..2018-02")
	month := cfg.WindowFrom

	out := stdoutOf(t, func() error { return withStudyConfig(t, cfg, runPassive) })
	if first, _, _ := strings.Cut(out, "\n"); !strings.HasPrefix(first, "passive simulation: 1 months,") {
		t.Errorf("passive: %q, want a one-month simulation", first)
	}

	path := filepath.Join(t.TempDir(), "obs.jsonl")
	stdoutOf(t, func() error {
		return withStudyConfig(t, cfg, func() error { return runExport([]string{"-o", path}) })
	})
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	records := 0
	for sc := bufio.NewScanner(f); sc.Scan(); records++ {
		var rec struct {
			Month string `json:"month"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("export record %d: %v", records, err)
		}
		if rec.Month != month.String() {
			t.Fatalf("export record %d is from %s, outside the %s window", records, rec.Month, month)
		}
	}

	var rep *telemetry.Report
	withStudyConfig(t, cfg, func() error {
		rep = runMetricsCapture(t, "passive")
		return nil
	})
	if got := clock.MonthOf(rep.VirtualTime); got != month {
		t.Errorf("metrics passive ended at %s, want within %s", rep.VirtualTime, month)
	}
	if want := rep.Counters["capture.observations"]; records == 0 || int64(records) != want {
		t.Errorf("export wrote %d records, metrics passive observed %d in the same window", records, want)
	}
}
