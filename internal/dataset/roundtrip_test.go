package dataset_test

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/report"
)

// runFull drives the complete study at the given parallelism,
// optionally with a fault plan armed. drain interrupts the study once
// passive_analysis is done, as a SIGTERM drain would: every later phase
// is skipped.
func runFull(t *testing.T, parallelism int, plan *fault.Plan, drain bool) (*core.Study, *core.Report) {
	t.Helper()
	s := core.NewStudy()
	s.Parallelism = parallelism
	if plan != nil {
		s.SetFaultPlan(plan)
	}
	if drain {
		s.PhaseDone = func(name string) {
			if name == "passive_analysis" {
				s.Interrupt()
			}
		}
	}
	rep, err := s.RunAll()
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	return s, rep
}

// roundTrip persists the run, reads it back, and restores it into a
// fresh study scaffold.
func roundTrip(t *testing.T, s *core.Study, rep *core.Report, gz bool) (*core.Study, *core.Report) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ds")
	ds := dataset.FromStudy(s, rep)
	if err := dataset.Write(dir, ds, dataset.Options{Gzip: gz}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := dataset.Read(dir, nil)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	s2 := core.NewStudy()
	rep2, err := dataset.Restore(s2, got)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	return s2, rep2
}

// artifactFiles renders the per-artifact report files and returns
// their contents keyed by file name.
func artifactFiles(t *testing.T, s *core.Study, rep *core.Report) map[string]string {
	t.Helper()
	dir := t.TempDir()
	files, err := report.Write(dir, s, rep)
	if err != nil {
		t.Fatalf("report.Write: %v", err)
	}
	out := make(map[string]string, len(files))
	for _, f := range files {
		raw, err := os.ReadFile(filepath.Join(dir, filepath.Base(f)))
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(f)] = string(raw)
	}
	return out
}

// TestRoundTripByteIdentical is the subsystem's core contract: for the
// same seed, capture → persist → read → restore renders every artifact
// byte-identical to the in-memory run — at parallelism 1 and 8, with
// and without gzip, under an armed fault plan, and drained before the
// active phases, whose skipped artifacts must stay PARTIAL rather than
// render as results of experiments that never ran.
func TestRoundTripByteIdentical(t *testing.T) {
	cases := []struct {
		name        string
		parallelism int
		gzip        bool
		plan        func() *fault.Plan
		drain       bool
	}{
		{name: "sequential", parallelism: 1},
		{name: "parallel8", parallelism: 8},
		{name: "parallel8_gzip", parallelism: 8, gzip: true},
		{name: "faults_aggressive", parallelism: 8, plan: func() *fault.Plan {
			return fault.NewPlan(7, fault.Profiles["aggressive"])
		}},
		{name: "drained", parallelism: 8, drain: true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var plan *fault.Plan
			if tc.plan != nil {
				plan = tc.plan()
			}
			s, rep := runFull(t, tc.parallelism, plan, tc.drain)
			want := rep.Render(s)
			wantFiles := artifactFiles(t, s, rep)

			s2, rep2 := roundTrip(t, s, rep, tc.gzip)
			if got := rep2.Render(s2); got != want {
				t.Errorf("restored render differs from in-memory render (%d vs %d bytes)", len(got), len(want))
			}
			gotFiles := artifactFiles(t, s2, rep2)
			if len(gotFiles) != len(wantFiles) {
				t.Fatalf("restored run wrote %d artifact files, want %d", len(gotFiles), len(wantFiles))
			}
			for name, want := range wantFiles {
				if gotFiles[name] != want {
					t.Errorf("artifact %s differs after round trip", name)
				}
			}
			if rep2.Degraded() != rep.Degraded() {
				t.Errorf("Degraded() = %v after round trip, want %v", rep2.Degraded(), rep.Degraded())
			}
		})
	}
}

// streamCapture runs the study with the month-spill streaming path
// armed, persisting into dir as each passive month completes.
func streamCapture(t *testing.T, s *core.Study, dir string, opts dataset.Options) {
	t.Helper()
	sp, err := dataset.NewSpiller(dir, s, opts)
	if err != nil {
		t.Fatalf("NewSpiller: %v", err)
	}
	rep, err := s.RunAll()
	if err != nil {
		sp.Abort()
		t.Fatalf("RunAll: %v", err)
	}
	if err := sp.Finish(rep); err != nil {
		sp.Abort()
		t.Fatalf("Finish: %v", err)
	}
	if sp.Spilled() == 0 {
		t.Fatal("streaming run spilled no passive records")
	}
}

// TestStreamingSpillByteIdentical pins the memory-bounded engine's
// contract: streaming each completed month to disk at the month
// barrier produces a dataset directory byte-identical to the bulk
// FromStudy+Write path — every shard and the manifest — at
// parallelism 1 and 8, under an armed fault plan, over a narrowed
// passive window, and with gzip; and the streamed dataset restores to
// the same rendered artifacts as the in-memory run.
func TestStreamingSpillByteIdentical(t *testing.T) {
	jan := clock.Month{Year: 2018, Mon: time.January}
	feb := clock.Month{Year: 2018, Mon: time.February}
	cases := []struct {
		name        string
		parallelism int
		gzip        bool
		plan        func() *fault.Plan
		from, to    clock.Month // zero: the full study window
	}{
		{name: "sequential", parallelism: 1},
		{name: "parallel8", parallelism: 8},
		{name: "faults_aggressive", parallelism: 8, plan: func() *fault.Plan {
			return fault.NewPlan(7, fault.Profiles["aggressive"])
		}},
		{name: "window", parallelism: 8, from: jan, to: feb},
		{name: "parallel8_gzip", parallelism: 8, gzip: true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			// Each persistence path runs its own identically configured study.
			newStudy := func() *core.Study {
				s := core.NewStudy()
				s.Parallelism = tc.parallelism
				if tc.plan != nil {
					s.SetFaultPlan(tc.plan())
				}
				s.PassiveFrom, s.PassiveTo = tc.from, tc.to
				return s
			}
			base := t.TempDir()
			opts := dataset.Options{Gzip: tc.gzip}

			s := newStudy()
			rep, err := s.RunAll()
			if err != nil {
				t.Fatalf("RunAll: %v", err)
			}
			bulkDir := filepath.Join(base, "bulk")
			if err := dataset.Write(bulkDir, dataset.FromStudy(s, rep), opts); err != nil {
				t.Fatalf("Write: %v", err)
			}

			streamDir := filepath.Join(base, "stream")
			streamCapture(t, newStudy(), streamDir, opts)

			want := readDirFiles(t, bulkDir)
			got := readDirFiles(t, streamDir)
			if len(got) != len(want) {
				t.Fatalf("streamed dataset has %d files, bulk has %d", len(got), len(want))
			}
			for name, w := range want {
				g, ok := got[name]
				if !ok {
					t.Errorf("streamed dataset missing file %s", name)
					continue
				}
				if string(g) != string(w) {
					t.Errorf("file %s differs between streamed and bulk datasets (%d vs %d bytes)", name, len(g), len(w))
				}
			}

			// The streamed dataset restores to the same report and the
			// same artifact files as the in-memory run.
			ds, err := dataset.Read(streamDir, nil)
			if err != nil {
				t.Fatalf("Read(streamed): %v", err)
			}
			s2 := core.NewStudy()
			rep2, err := dataset.Restore(s2, ds)
			if err != nil {
				t.Fatalf("Restore(streamed): %v", err)
			}
			if gotR, wantR := rep2.Render(s2), rep.Render(s); gotR != wantR {
				t.Errorf("restored streamed render differs from in-memory render (%d vs %d bytes)", len(gotR), len(wantR))
			}
			gotFiles := artifactFiles(t, s2, rep2)
			wantFiles := artifactFiles(t, s, rep)
			if len(gotFiles) != len(wantFiles) {
				t.Fatalf("streamed restore wrote %d artifact files, want %d", len(gotFiles), len(wantFiles))
			}
			for name, w := range wantFiles {
				if gotFiles[name] != w {
					t.Errorf("artifact %s differs after streamed round trip", name)
				}
			}
		})
	}
}

// TestWriterRefusesOverwrite pins that a capture cannot clobber an
// existing dataset directory.
func TestWriterRefusesOverwrite(t *testing.T) {
	t.Parallel()
	dir := filepath.Join(t.TempDir(), "ds")
	w, err := dataset.NewWriter(dir, dataset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := dataset.NewWriter(dir, dataset.Options{}); err == nil {
		t.Fatal("NewWriter over an existing dataset succeeded, want refusal")
	}
}

// openFDs counts the process's open file descriptors, skipping the
// test where /proc does not expose them.
func openFDs(t *testing.T) int {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count open files: %v", err)
	}
	return len(entries)
}

// assertSealFailedCleanly fails the test if dir holds a manifest or
// if the process has more files open than fdsBefore.
func assertSealFailedCleanly(t *testing.T, dir string, fdsBefore int) {
	t.Helper()
	if _, err := os.Stat(filepath.Join(dir, dataset.ManifestName)); !os.IsNotExist(err) {
		t.Errorf("failed seal left a manifest (stat err %v)", err)
	}
	if after := openFDs(t); after > fdsBefore {
		t.Errorf("open files grew from %d to %d across a failed seal: shard files leaked", fdsBefore, after)
	}
}

// TestFailedCloseLeaksNoFiles pins that Close seals every shard even
// when one fails: active.bin links to /dev/full, so its buffered bytes
// fail to flush in Close, and every other shard must still be closed.
// Write itself must then leave no manifest and no open files.
func TestFailedCloseLeaksNoFiles(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skipf("no /dev/full: %v", err)
	}
	s := core.NewStudy()
	jan := clock.Month{Year: 2018, Mon: time.January}
	s.PassiveFrom, s.PassiveTo = jan, jan
	rep, err := s.RunAll()
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	ds := dataset.FromStudy(s, rep)
	dir := filepath.Join(t.TempDir(), "ds")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("/dev/full", filepath.Join(dir, "active.bin")); err != nil {
		t.Fatal(err)
	}
	before := openFDs(t)
	if err := dataset.Write(dir, ds, dataset.Options{}); err == nil {
		t.Fatal("Write succeeded with active.bin linked to /dev/full")
	}
	assertSealFailedCleanly(t, dir, before)
}

// readDirFiles loads every regular file in dir keyed by name.
func readDirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = raw
	}
	return out
}

// TestStreamingSpillFleetAnalyzesWithoutFlags pins that a dataset names
// its own testbed: a small synthetic fleet streamed to disk — with
// tracing left at its default, which a fleet ignores, so no trace.bin
// is written — restores through Analyze, told nothing about the fleet,
// to exactly the fleet's live report.
func TestStreamingSpillFleetAnalyzesWithoutFlags(t *testing.T) {
	jan := clock.Month{Year: 2018, Mon: time.January}
	cfg := core.Config{Parallelism: 4, FleetN: 30, FleetSeed: 7, WindowFrom: jan, WindowTo: jan}
	live, err := core.NewStudyFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := live.RunAll()
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}

	s, err := core.NewStudyFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "fleet")
	streamCapture(t, s, dir, dataset.Options{})
	if _, err := os.Stat(filepath.Join(dir, "trace.bin")); !os.IsNotExist(err) {
		t.Errorf("fleet capture wrote trace.bin (stat err %v); fleets run trace-free", err)
	}
	ds, err := dataset.Read(dir, nil)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if r := ds.Runs[0]; r.FleetN != 30 || r.FleetSeed != 7 {
		t.Fatalf("run provenance records fleet n=%d seed=%d, want n=30 seed=7", r.FleetN, r.FleetSeed)
	}
	s2, rep2, err := dataset.Analyze(ds)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if got, want := rep2.Render(s2), rep.Render(live); got != want {
		t.Errorf("restored fleet report differs from the live report (%d vs %d bytes)", len(got), len(want))
	}
}
