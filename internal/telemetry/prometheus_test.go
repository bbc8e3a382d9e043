package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

// TestWritePrometheus pins the text exposition byte-for-byte: sanitised
// sorted names and cumulative histogram buckets with an explicit +Inf.
func TestWritePrometheus(t *testing.T) {
	r := New(nil)
	r.Counter("serve.requests").Add(3)
	r.Gauge("jobs.running").Set(2)
	h := r.Histogram("hs.bytes", []int64{10, 20})
	h.Observe(5)
	h.Observe(15)
	h.Observe(99)

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# TYPE hs_bytes histogram",
		`hs_bytes_bucket{le="10"} 1`,
		`hs_bytes_bucket{le="20"} 2`,
		`hs_bytes_bucket{le="+Inf"} 3`,
		"hs_bytes_sum 119",
		"hs_bytes_count 3",
		"# TYPE jobs_running gauge",
		"jobs_running 2",
		"# TYPE serve_requests counter",
		"serve_requests 3",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("WritePrometheus output mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestPromName covers the name sanitiser's grammar corners.
func TestPromName(t *testing.T) {
	cases := map[string]string{
		"plain":          "plain",
		"dots.and.more":  "dots_and_more",
		"dash-and+plus":  "dash_and_plus",
		"1digit.first":   "_digit_first",
		"mid9digit":      "mid9digit",
		"colons:allowed": "colons:allowed",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestBuildReportPhaseOrdering pins the report's phase rows to name
// order regardless of counter-map iteration order, so two identical
// snapshots always render the same report.
func TestBuildReportPhaseOrdering(t *testing.T) {
	r := New(nil)
	for _, name := range []string{"probe", "active_capture", "passive", "downgrade", "interception"} {
		r.Counter("core.phase." + name).Inc()
		r.Counter("span.phase." + name + ".ok").Inc()
	}
	snap := r.Snapshot()

	want := []string{"active_capture", "downgrade", "interception", "passive", "probe"}
	for i := 0; i < 10; i++ {
		rep := BuildReport(snap, "report")
		if len(rep.Phases) != len(want) {
			t.Fatalf("BuildReport produced %d phase rows, want %d", len(rep.Phases), len(want))
		}
		for j, ps := range rep.Phases {
			if ps.Name != want[j] {
				t.Fatalf("iteration %d: phase row %d is %q, want %q (rows must be name-sorted)", i, j, ps.Name, want[j])
			}
		}
	}
}
