package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
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
// report bytes shows up in review as a changed hash. -short skips the
// full-study rows.
func TestCLIGolden(t *testing.T) {
	report := func() error { return runReport(nil) }
	rows := []struct {
		name     string
		flags    string // global flags reproducing cfg on the command line
		cfg      core.Config
		cmd      string
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
				cmd := strings.Join(strings.Fields("go run ./cmd/iotls "+row.flags+" "+row.cmd), " ")
				t.Errorf("%s stdout hashes to %s, want %s (%d bytes)\n"+
					"if the change is intended, regenerate it with\n"+
					"  %s | sha256sum | cut -d' ' -f1 > cmd/iotls/%s/%s.sha256",
					row.cmd, got, want, len(out), cmd, goldenDir, row.name)
			}
		})
	}
}
