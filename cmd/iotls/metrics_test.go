package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/telemetry"
)

// runMetricsCapture runs the metrics subcommand with stdout silenced
// and returns the report written via -o.
func runMetricsCapture(t *testing.T, args ...string) *telemetry.Report {
	t.Helper()
	out := filepath.Join(t.TempDir(), "metrics.json")
	old := os.Stdout
	os.Stdout, _ = os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	defer func() { os.Stdout = old }()
	if err := runMetrics(append([]string{"-o", out}, args...)); err != nil {
		t.Fatalf("runMetrics: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep telemetry.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	return &rep
}

func TestRunMetricsPassive(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var rep *telemetry.Report
	withStudyConfig(t, smallWindow(t, "2018-01..2018-02"), func() error {
		rep = runMetricsCapture(t, "passive")
		return nil
	})
	if rep.Schema != telemetry.ReportSchema {
		t.Fatalf("schema = %q, want %q", rep.Schema, telemetry.ReportSchema)
	}
	if rep.Handshakes["client.handshakes"] == 0 {
		t.Fatal("no client handshakes recorded")
	}
	if rep.Mirror["netem.mirror.frames"] == 0 {
		t.Fatal("no mirrored frames recorded")
	}
	if len(rep.Phases) == 0 || rep.Phases[0].Name != "passive" {
		t.Fatalf("phases = %+v, want a passive entry", rep.Phases)
	}
	for name := range rep.Counters {
		if rep.Counters[name] < 0 {
			t.Fatalf("negative counter %s", name)
		}
	}
}

func TestRunMetricsUnknownPhase(t *testing.T) {
	if err := runMetrics([]string{"nonsense"}); err == nil {
		t.Fatal("expected error for unknown phase")
	}
}

// TestDebugServer checks the -debug-addr inspector serves expvar and
// pprof and that the published telemetry snapshot tracks the live
// study.
func TestDebugServer(t *testing.T) {
	addr, err := startDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("startDebugServer: %v", err)
	}
	s := newStudy()
	s.Telemetry.Counter("test.debug_probe").Inc()

	for _, path := range []string{"/debug/vars", "/debug/pprof/"} {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if len(body) == 0 {
			t.Fatalf("GET %s: empty body", path)
		}
		if path == "/debug/vars" {
			var vars map[string]json.RawMessage
			if err := json.Unmarshal(body, &vars); err != nil {
				t.Fatalf("/debug/vars is not JSON: %v", err)
			}
			raw, ok := vars["iotls.telemetry"]
			if !ok {
				t.Fatal("/debug/vars missing iotls.telemetry")
			}
			var snap telemetry.Snapshot
			if err := json.Unmarshal(raw, &snap); err != nil {
				t.Fatalf("iotls.telemetry is not a snapshot: %v", err)
			}
			if snap.Counters["test.debug_probe"] != 1 {
				t.Fatalf("snapshot does not track live registry: %+v", snap.Counters)
			}
		}
	}
}
