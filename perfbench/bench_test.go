package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
)

// TestMain lets the test binary serve as the benchmark's child
// process, as the benchmark binary does.
func TestMain(m *testing.M) {
	if child := os.Getenv(childEnv); child != "" {
		if err := runChild(child); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestMedianAndPercentile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 90, 10},
		{[]float64{1, 2}, 0, 1},
		{[]float64{1, 2}, 100, 2},
		{[]float64{7}, 90, 7},
	} {
		if got := percentile(tc.xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", tc.xs, tc.p, got, tc.want)
		}
	}
	if got := median([]float64{5, 9, 1}); got != 5 {
		t.Errorf("median = %g, want 5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
	xs := []float64{3, 1, 2}
	percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 {
		t.Error("percentile reordered its input")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},
		{40, 75, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		p, ok := tailPercentile(tc.n)
		if p != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", tc.n, p, ok, tc.want, tc.ok)
		}
	}
}

func TestDigestCheckRejectsTamperedOutput(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	if err := refs.checkReport(refs.ReportSHA256); err != nil {
		t.Fatalf("reference digest rejected: %v", err)
	}
	if err := refs.checkReport(sha256Hex("Table 1\n(tampered)")); err == nil {
		t.Fatal("tampered report digest accepted")
	}
	months := refs.FleetMonthCRC32["1"]
	if len(months) == 0 {
		t.Fatal("no fleet references for seed 1")
	}
	for month, want := range months {
		var crc uint32
		if _, err := fmt.Sscanf(want, "%08x", &crc); err != nil {
			t.Fatal(err)
		}
		if err := refs.checkFleetMonth(1, month, crc); err != nil {
			t.Errorf("reference CRC rejected: %v", err)
		}
		if err := refs.checkFleetMonth(1, month, crc^1); err == nil {
			t.Errorf("%s: tampered shard CRC accepted", month)
		}
	}
}

// TestBenchmarkJSONMatchesLayerTable keeps BENCHMARK.json in step
// with the code: the per-layer metrics a traced run prints, and
// workloads the benchmark knows.
func TestBenchmarkJSONMatchesLayerTable(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(layerTable) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, layerTable %d", len(spec.PerLayer), len(layerTable))
	}
	for i, l := range layerTable {
		got := spec.PerLayer[i]
		if got.Name != l.name || got.Unit != l.unit || got.Better != l.better {
			t.Errorf("per_layer[%d] = %+v, layerTable has %s %s %s", i, got, l.name, l.unit, l.better)
		}
	}
	for _, w := range spec.Workloads {
		if newWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json names workload %q, the benchmark runs %v", w.Name, workloadNames)
		}
	}
}

// newTestBench is a bench whose temporary files live in a test dir.
func newTestBench(t *testing.T) *bench {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	return &bench{seed: 1, nproc: 2, workDir: t.TempDir(), refs: refs, spans: &spanLog{}}
}

// TestSmokeEveryWorkload runs one untraced round of each workload and
// checks its ops pass the correctness gate and yield every end-to-end
// metric.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			b := newTestBench(t)
			res, err := measure(b, measured(name), 0, 1, false, false)
			if err != nil {
				t.Fatal(err)
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			if len(res.Setups) == 0 || len(res.Ops) == 0 {
				t.Fatalf("%d setups, %d ops", len(res.Setups), len(res.Ops))
			}
			for _, op := range res.Ops {
				if op.WallS <= 0 || op.NetS <= 0 || op.CPUS <= 0 || op.RSSKiB <= 0 || op.Handshakes <= 0 {
					t.Errorf("op without a measurement: %+v", op)
				}
			}
		})
	}
}

// TestTracedRunReportsEveryLayer runs a short traced run and checks it
// prints every per-layer metric with its unit.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := newTestBench(t)
	out, err := tracedRun(b, "analyze", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Failed != 0 {
		t.Fatalf("traced run: correct=%v failed=%d", out.Correct, out.Failed)
	}
	for _, l := range layerTable {
		if l.name == "env.steal_s" {
			continue // added by run, which reads /proc/stat around the run
		}
		m, ok := out.Metrics[l.name]
		if !ok || m.Unit != l.unit {
			t.Errorf("%s: got %+v, want unit %s", l.name, m, l.unit)
		}
	}
	if len(b.spans.spans) == 0 {
		t.Error("traced run recorded no spans")
	}
}
