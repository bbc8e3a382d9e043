package core_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/trace"
)

// traceRun executes a short-window aggressive-fault study and returns
// the study and its report. Tracing is on (the config default).
func traceRun(t *testing.T, parallelism int) (*core.Study, *core.Report) {
	t.Helper()
	s, err := core.NewStudyFromConfig(core.Config{
		Parallelism:  parallelism,
		FaultSeed:    7,
		FaultProfile: "aggressive",
		WindowFrom:   clock.Month{Year: 2018, Mon: 1},
		WindowTo:     clock.Month{Year: 2018, Mon: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunAll()
	if err != nil {
		t.Fatalf("RunAll(parallelism=%d): %v", parallelism, err)
	}
	return s, rep
}

// traceArtifacts persists the run's dataset and returns the raw
// trace.bin shard plus the Chrome export bytes.
func traceArtifacts(t *testing.T, s *core.Study, rep *core.Report) (shard, export []byte) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ds")
	ds := dataset.FromStudy(s, rep)
	if err := dataset.Write(dir, ds, dataset.Options{}); err != nil {
		t.Fatal(err)
	}
	shard, err := os.ReadFile(filepath.Join(dir, "trace.bin"))
	if err != nil {
		t.Fatalf("capture produced no trace shard: %v", err)
	}
	var buf bytes.Buffer
	if err := trace.ExportChrome(&buf, ds.TraceSpans); err != nil {
		t.Fatal(err)
	}
	return shard, buf.Bytes()
}

// TestTraceDeterminism pins the tentpole contract: two same-seed
// studies at parallelism 1 and 8 emit identical canonical span trees,
// byte-identical trace.bin shards, and byte-identical Chrome exports.
func TestTraceDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("trace determinism run skipped in -short mode")
	}
	s1, rep1 := traceRun(t, 1)
	s8, rep8 := traceRun(t, 8)

	spans1, spans8 := s1.Tracer().Spans(), s8.Tracer().Spans()
	if len(spans1) == 0 {
		t.Fatal("traced study recorded no spans")
	}
	if !reflect.DeepEqual(spans1, spans8) {
		n := len(spans1)
		if len(spans8) < n {
			n = len(spans8)
		}
		for i := 0; i < n; i++ {
			if !reflect.DeepEqual(spans1[i], spans8[i]) {
				t.Fatalf("span %d differs between parallelism 1 and 8:\n seq: %+v\n par: %+v", i, spans1[i], spans8[i])
			}
		}
		t.Fatalf("span counts differ: %d sequential, %d parallel", len(spans1), len(spans8))
	}

	shard1, export1 := traceArtifacts(t, s1, rep1)
	shard8, export8 := traceArtifacts(t, s8, rep8)
	if !bytes.Equal(shard1, shard8) {
		t.Error("trace.bin differs between parallelism 1 and 8")
	}
	if !bytes.Equal(export1, export8) {
		t.Error("Chrome trace export differs between parallelism 1 and 8")
	}
}

var abandonedRe = regexp.MustCompile(`^(\d+) connection\(s\) abandoned after retry exhaustion$`)

// TestTraceErrorsAttributesDegradations checks causal attribution on an
// aggressive-fault run. In the passive phase the only source of
// transient failure is netem fault injection, so there every abandoned
// connection must appear as a gave_up connect span whose subtree holds
// at least one fault-injection span, and the span count must match the
// degradation log exactly. The active suites can also abandon
// connections on interceptor-caused failures (incomplete handshakes
// from the MITM profiles), and some verification connects run untraced,
// so across the whole study the degradation log is only required to be
// an upper bound on the traced gave_up spans.
func TestTraceErrorsAttributesDegradations(t *testing.T) {
	if testing.Short() {
		t.Skip("trace attribution run skipped in -short mode")
	}
	s, rep := traceRun(t, 4)
	spans := s.Tracer().Spans()

	byID := make(map[uint64]trace.SpanRecord, len(spans))
	kids := make(map[uint64][]trace.SpanRecord)
	for _, r := range spans {
		byID[r.ID] = r
		kids[r.Parent] = append(kids[r.Parent], r)
	}
	var hasFault func(id uint64) bool
	hasFault = func(id uint64) bool {
		for _, c := range kids[id] {
			if c.Name == "fault" || hasFault(c.ID) {
				return true
			}
		}
		return false
	}
	// phaseOf walks a span's ancestry up to its enclosing phase span.
	phaseOf := func(r trace.SpanRecord) string {
		for {
			if r.Name == "phase" {
				return r.Detail
			}
			p, ok := byID[r.Parent]
			if !ok {
				return ""
			}
			r = p
		}
	}

	gaveUp, passiveGaveUp := 0, 0
	for _, r := range spans {
		if r.Name != "connect" || r.Status != "gave_up" {
			continue
		}
		gaveUp++
		if phaseOf(r) != "passive" {
			continue
		}
		passiveGaveUp++
		if !hasFault(r.ID) {
			t.Errorf("passive-phase gave_up connect span connect(%s) has no fault-injection span in its subtree", r.Detail)
		}
	}
	if passiveGaveUp == 0 {
		t.Fatal("aggressive run abandoned no passive-phase connections; the attribution check tested nothing")
	}

	abandoned, passiveAbandoned := 0, 0
	for _, d := range rep.Degradations {
		if m := abandonedRe.FindStringSubmatch(d.Reason); m != nil {
			n, _ := strconv.Atoi(m[1])
			abandoned += n
			if d.Phase == "passive" {
				passiveAbandoned += n
			}
		}
	}
	if passiveAbandoned != passiveGaveUp {
		t.Errorf("passive phase: degradation log counts %d abandoned connections, trace has %d gave_up connect spans", passiveAbandoned, passiveGaveUp)
	}
	if abandoned < gaveUp {
		t.Errorf("degradation log counts %d abandoned connections overall, fewer than the %d traced gave_up connect spans", abandoned, gaveUp)
	}

	// The rendered error groups must carry fault attributions.
	groups := trace.ErrorGroups(spans)
	faulted := false
	for _, g := range groups {
		if len(g.Key) > 6 && g.Key[:6] == "fault:" {
			faulted = true
		}
	}
	if !faulted {
		t.Error("ErrorGroups produced no fault:* attribution on an aggressive-fault run")
	}
}

// TestStudyLeaksNoSpans is the leak gate: after a full study, every
// trace span must have ended.
func TestStudyLeaksNoSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("leak gate run skipped in -short mode")
	}
	s, _ := traceRun(t, 4)
	if live := s.Tracer().Live(); live != 0 {
		t.Errorf("study leaked %d trace spans", live)
	}
}

// TestPhaseMetricsMatchTree pins the phase metrics to the trace tree:
// on an aggressive-fault study, every phase's span.phase.<name>.<status>
// counter names exactly the status of its phase span, so `iotls
// metrics` and serve job status agree with trace.bin about which phases
// degraded.
func TestPhaseMetricsMatchTree(t *testing.T) {
	if testing.Short() {
		t.Skip("aggressive-fault study skipped in -short mode")
	}
	s, _ := traceRun(t, 2)
	counters := s.MetricsSnapshot().Counters
	phases, degraded := 0, 0
	for _, r := range s.Tracer().Spans() {
		if r.Name != "phase" {
			continue
		}
		phases++
		if r.Status != "ok" {
			degraded++
		}
		prefix := "span.phase." + r.Detail + "."
		var got []string
		for name, v := range counters {
			if status, ok := strings.CutPrefix(name, prefix); ok && v > 0 {
				got = append(got, fmt.Sprintf("%s=%d", status, v))
			}
		}
		if want := []string{r.Status + "=1"}; !reflect.DeepEqual(got, want) {
			t.Errorf("phase %s: metrics record %v, trace tree says %q", r.Detail, got, r.Status)
		}
	}
	if phases == 0 || degraded == 0 {
		t.Fatalf("traced %d phases, %d not ok; the aggressive run should degrade some", phases, degraded)
	}
}

var traceBenchOut = flag.String("trace.benchout", "", "write the tracing overhead comparison to this JSON file")

// benchConfigStudy runs the full study from a config (tracing on or
// off) and renders the report, mirroring benchStudy.
func benchConfigStudy(b *testing.B, noTrace bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := core.NewStudyFromConfig(core.Config{Parallelism: 8, NoTrace: noTrace})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := s.RunAll()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Render(s) == "" {
			b.Fatal("empty report")
		}
	}
}

// TestEmitTraceBench measures what always-on tracing costs: a full
// traced study against the -no-trace baseline, at parallelism 8. The
// budget is 5% wall-time overhead. It only runs when -trace.benchout
// is set (`make bench`).
func TestEmitTraceBench(t *testing.T) {
	if *traceBenchOut == "" {
		t.Skip("set -trace.benchout to emit BENCH_trace.json")
	}
	// A full study takes seconds, so testing.Benchmark settles on a
	// single iteration — and run-to-run drift on a busy machine is
	// larger than the 5% effect being measured. Two defences: the sides
	// alternate first position across pairs (ABBA), cancelling
	// process-level drift, and each side keeps its best run, which
	// converges on that configuration's true floor since noise only ever
	// slows a run down.
	var baseline, traced testing.BenchmarkResult
	run := func(noTrace bool) {
		r := testing.Benchmark(func(b *testing.B) { benchConfigStudy(b, noTrace) })
		tgt := &traced
		if noTrace {
			tgt = &baseline
		}
		if tgt.N == 0 || r.NsPerOp() < tgt.NsPerOp() {
			*tgt = r
		}
	}
	for i := 0; i < 3; i++ {
		if i%2 == 0 {
			run(true)
			run(false)
		} else {
			run(false)
			run(true)
		}
	}

	type benchEntry struct {
		NsPerOp     int64 `json:"ns_per_op"`
		AllocsPerOp int64 `json:"allocs_per_op"`
		BytesPerOp  int64 `json:"bytes_per_op"`
	}
	entry := func(r testing.BenchmarkResult) benchEntry {
		return benchEntry{NsPerOp: r.NsPerOp(), AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp()}
	}
	ratio := float64(traced.NsPerOp()) / float64(baseline.NsPerOp())
	doc := struct {
		Schema      string     `json:"schema"`
		Cores       int        `json:"cores"`
		Parallelism int        `json:"parallelism"`
		Baseline    benchEntry `json:"baseline_no_trace"`
		Traced      benchEntry `json:"traced"`
		// OverheadRatio is traced ns/op over untraced ns/op; the tracing
		// budget is 1.05.
		OverheadRatio float64 `json:"overhead_ratio"`
	}{
		Schema:        "iotls/bench-trace/v1",
		Cores:         runtime.NumCPU(),
		Parallelism:   8,
		Baseline:      entry(baseline),
		Traced:        entry(traced),
		OverheadRatio: ratio,
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*traceBenchOut, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("tracing overhead %.3fx (budget 1.05, %d cores)", ratio, doc.Cores)
	if ratio > 1.05 {
		t.Logf("WARNING: tracing overhead %.3fx exceeds the 1.05 budget on this machine", ratio)
	}
}
