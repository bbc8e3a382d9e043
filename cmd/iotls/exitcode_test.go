package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// withStudyConfig swaps the global study config for one subcommand
// invocation and restores it afterwards.
func withStudyConfig(t *testing.T, cfg core.Config, fn func() error) error {
	t.Helper()
	old := studyConfig
	studyConfig = cfg
	defer func() { studyConfig = old }()
	return fn()
}

// muteStdout sends subcommand output to /dev/null for the test's
// duration.
func muteStdout(t *testing.T) {
	t.Helper()
	old := os.Stdout
	os.Stdout, _ = os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	t.Cleanup(func() { os.Stdout = old })
}

// smallWindow parses the cheap one-month test window.
func smallWindow(t *testing.T, window string) core.Config {
	t.Helper()
	from, to, err := core.ParseWindow(window)
	if err != nil {
		t.Fatal(err)
	}
	return core.Config{WindowFrom: from, WindowTo: to}
}

// corruptShard flips one byte in the middle of a dataset shard.
func corruptShard(t *testing.T, dir string) {
	t.Helper()
	shards, err := filepath.Glob(filepath.Join(dir, "*.bin"))
	if err != nil || len(shards) == 0 {
		t.Fatalf("no shards to corrupt in %s: %v", dir, err)
	}
	raw, err := os.ReadFile(shards[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(shards[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCLIExitCodes pins the scripted-campaign contract end to end: a
// clean run exits 0, a degraded-but-rendered run exits 3 (whether the
// degradation happens live in capture or is restored by analyze), and
// a hard failure — a study the watchdog found hung, or a corrupt
// dataset under inspect — exits 1.
// (Usage errors exit 2 before any subcommand runs, so they have no
// error value to table here.)
func TestCLIExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI e2e skipped in -short mode")
	}
	muteStdout(t)
	root := t.TempDir()
	cleanDir := filepath.Join(root, "clean")
	faultyDir := filepath.Join(root, "faulty")

	faulty := smallWindow(t, "2018-01..2018-06")
	faulty.FaultSeed = 7
	faulty.FaultProfile = "aggressive"
	if err := faulty.Validate(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		run  func() error
		want int
	}{
		{
			name: "clean capture exits 0",
			run: func() error {
				return withStudyConfig(t, smallWindow(t, "2018-01..2018-01"),
					func() error { return runCapture([]string{"-out", cleanDir}) })
			},
			want: 0,
		},
		{
			name: "degraded capture exits 3",
			run: func() error {
				return withStudyConfig(t, faulty,
					func() error { return runCapture([]string{"-out", faultyDir}) })
			},
			want: 3,
		},
		{
			name: "analyzing a degraded dataset exits 3",
			run: func() error {
				return withStudyConfig(t, core.Config{},
					func() error { return runAnalyze([]string{"-in", faultyDir}) })
			},
			want: 3,
		},
		{
			name: "a study the watchdog finds hung exits 1",
			run: func() error {
				return &core.HangError{Phase: "passive", Conns: []string{"cam → cloud.example.com:443"}}
			},
			want: 1,
		},
		{
			name: "inspecting a corrupt dataset exits 1",
			run: func() error {
				corruptShard(t, cleanDir)
				return runDatasetInspect([]string{cleanDir})
			},
			want: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := exitCodeFor(tc.run()); got != tc.want {
				t.Errorf("exit code %d, want %d", got, tc.want)
			}
		})
	}
}
