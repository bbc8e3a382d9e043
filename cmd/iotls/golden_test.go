package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// goldenDir holds one file per pinned subcommand: the hex SHA-256 of
// its stdout.
const goldenDir = "testdata/golden"

// TestCLIGolden pins the stdout of the printing subcommands byte for
// byte: each row runs one subcommand in-process and compares the
// SHA-256 of what it printed against testdata/golden/<name>.sha256. A
// mismatch prints the command that regenerates the file, so a change to
// report bytes shows up in review as a changed hash. The capture_f7
// row pins the fault-seed-7 capture directory file by file, and the
// trace rows the trace verbs' reports on it (the regeneration commands
// of the trace rows read the capture the capture_f7 command writes).
// -short skips the full-study rows.
func TestCLIGolden(t *testing.T) {
	report := func() error { return runReport(nil) }
	// The capture_f7 and trace rows share one capture, made by the first
	// row that needs it. A directory row prints its sorted (SHA-256,
	// name) list in sha256sum's format, so its pin covers every file.
	f7 := core.Config{FaultSeed: 7, FaultProfile: "aggressive"}
	capDir := filepath.Join(t.TempDir(), "f7")
	var capOnce sync.Once
	var capErr error
	f7Capture := func() error {
		capOnce.Do(func() {
			stdout := os.Stdout
			defer func() { os.Stdout = stdout }()
			os.Stdout, capErr = os.OpenFile(os.DevNull, os.O_WRONLY, 0)
			if capErr != nil {
				return
			}
			defer os.Stdout.Close()
			capErr = withStudyConfig(t, f7, func() error { return runCapture([]string{"-out", capDir}) })
			if errors.Is(capErr, errDegraded) {
				capErr = nil
			}
		})
		return capErr
	}
	captureSums := func() error {
		if err := f7Capture(); err != nil {
			return err
		}
		entries, err := os.ReadDir(capDir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			raw, err := os.ReadFile(filepath.Join(capDir, e.Name()))
			if err != nil {
				return err
			}
			fmt.Printf("%x  %s\n", sha256.Sum256(raw), e.Name())
		}
		return nil
	}
	traceVerb := func(verb string) func() error {
		return func() error {
			if err := f7Capture(); err != nil {
				return err
			}
			return runTrace([]string{verb, "-in", capDir})
		}
	}
	rows := []struct {
		name     string
		flags    string // global flags reproducing cfg on the command line
		cfg      core.Config
		cmd      string
		regen    string // shell command printing what the row pins; default: go run ./cmd/iotls flags cmd
		run      func() error
		full     bool
		degraded bool
	}{
		{name: "report_p1", flags: "-parallel 1", cfg: core.Config{Parallelism: 1}, cmd: "report", run: report, full: true},
		{name: "report_p8", flags: "-parallel 8", cfg: core.Config{Parallelism: 8}, cmd: "report", run: report, full: true},
		{name: "report_f7_p1", flags: "-parallel 1 -fault-seed 7 -fault-profile aggressive", cfg: core.Config{Parallelism: 1, FaultSeed: 7, FaultProfile: "aggressive"}, cmd: "report", run: report, full: true, degraded: true},
		{name: "report_f7_p8", flags: "-parallel 8 -fault-seed 7 -fault-profile aggressive", cfg: core.Config{Parallelism: 8, FaultSeed: 7, FaultProfile: "aggressive"}, cmd: "report", run: report, full: true, degraded: true},
		{name: "passive", cmd: "passive", run: runPassive},
		{name: "active", cmd: "active", run: runActive},
		{name: "probe", cmd: "probe", run: runProbe},
		{name: "fingerprint", cmd: "fingerprint", run: runFingerprint},
		{name: "tables", cmd: "tables", run: runTables},
		{name: "guard", cmd: "guard", run: runGuard},
		{name: "guard_f7", flags: "-fault-seed 7 -fault-profile aggressive", cfg: f7, cmd: "guard", run: runGuard},
		{name: "audit", cmd: "audit", run: runAudit},
		{name: "capture_f7", cmd: "capture", run: captureSums, full: true,
			regen: "rm -rf /tmp/f7; go run ./cmd/iotls -fault-seed 7 -fault-profile aggressive capture -out /tmp/f7 >/dev/null; (cd /tmp/f7 && LC_ALL=C sha256sum *)"},
		{name: "trace_slow_f7", cmd: "trace slow -in /tmp/f7", run: traceVerb("slow"), full: true},
		{name: "trace_errors_f7", cmd: "trace errors -in /tmp/f7", run: traceVerb("errors"), full: true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if row.full && testing.Short() {
				t.Skip("full study skipped in -short mode")
			}
			raw, err := os.ReadFile(filepath.Join(goldenDir, row.name+".sha256"))
			if err != nil {
				t.Fatal(err)
			}
			want := strings.TrimSpace(string(raw))
			out := stdoutOf(t, func() error {
				err := withStudyConfig(t, row.cfg, row.run)
				if row.degraded && errors.Is(err, errDegraded) {
					return nil
				}
				return err
			})
			sum := sha256.Sum256([]byte(out))
			if got := hex.EncodeToString(sum[:]); got != want {
				cmd := row.regen
				if cmd == "" {
					cmd = strings.Join(strings.Fields("go run ./cmd/iotls "+row.flags+" "+row.cmd), " ")
				}
				t.Errorf("%s stdout hashes to %s, want %s (%d bytes)\n"+
					"if the change is intended, regenerate it with\n"+
					"  %s | sha256sum | cut -d' ' -f1 > cmd/iotls/%s/%s.sha256",
					row.cmd, got, want, len(out), cmd, goldenDir, row.name)
			}
		})
	}
}
