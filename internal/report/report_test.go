package report

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/core"
)

func TestHeatmapCSV(t *testing.T) {
	months := clock.MonthRange(clock.Month{Year: 2018, Mon: 1}, clock.Month{Year: 2018, Mon: 3})
	h := analysis.NewHeatmap("t", months)
	h.Set("dev a", clock.Month{Year: 2018, Mon: 1}, 0.5)
	h.Set("dev a", clock.Month{Year: 2018, Mon: 3}, 1)
	out := heatmapCSV(h)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // header + 2 rows (the gap month omitted)
		t.Fatalf("csv lines = %v", lines)
	}
	if lines[1] != `"dev a",2018-01,0.5000` {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestWriteFullStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("full study skipped in -short mode")
	}
	s := core.NewStudy()
	rep, err := s.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	files, err := Write(dir, s, rep)
	if err != nil {
		t.Fatal(err)
	}
	if files[0] != "index.md" {
		t.Fatalf("first file = %s", files[0])
	}
	want := []string{"table1.txt", "table5.txt", "table9.txt", "figure1.txt",
		"figure4.txt", "figure2.csv", "stats.txt", "observations.csv", "index.md"}
	for _, name := range want {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("missing artifact %s: %v", name, err)
			continue
		}
		if len(data) == 0 {
			t.Errorf("artifact %s is empty", name)
		}
	}
	// Spot-check contents.
	t9, _ := os.ReadFile(filepath.Join(dir, "table9.txt"))
	if !strings.Contains(string(t9), "Google Home Mini") {
		t.Error("table9 missing probed device")
	}
	obs, _ := os.ReadFile(filepath.Join(dir, "observations.csv"))
	if lines := strings.Count(string(obs), "\n"); lines < 3000 {
		t.Errorf("observations.csv rows = %d, want thousands", lines)
	}
	idx, _ := os.ReadFile(filepath.Join(dir, "index.md"))
	if !strings.Contains(string(idx), "table7.txt") {
		t.Error("index missing table7 entry")
	}
}
