package dataset_test

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// captureSubset runs the study restricted to the given device IDs and
// persists it to a new dataset directory.
func captureSubset(t *testing.T, dir string, ids []string) {
	t.Helper()
	s := core.NewStudy()
	s.Parallelism = 8
	if err := s.RestrictDevices(ids); err != nil {
		t.Fatalf("RestrictDevices: %v", err)
	}
	rep, err := s.RunAll()
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if err := dataset.Write(dir, dataset.FromStudy(s, rep), dataset.Options{}); err != nil {
		t.Fatalf("Write: %v", err)
	}
}

// deviceHalves splits the full registry's device IDs into two disjoint
// halves, the way a sharded fleet capture would.
func deviceHalves(t *testing.T) (a, b []string) {
	t.Helper()
	s := core.NewStudy()
	var ids []string
	for _, d := range s.Registry.Devices {
		ids = append(ids, d.ID)
	}
	if len(ids) < 4 {
		t.Fatalf("registry too small: %d devices", len(ids))
	}
	return ids[:len(ids)/2], ids[len(ids)/2:]
}

// dirBytes reads every file in a dataset directory keyed by name.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(raw)
	}
	return out
}

// TestMergeOrderIndependent pins the sharded-fleet contract: merging
// two disjoint-device captures is order-independent down to the bytes
// on disk, and the merged dataset itself passes inspection and
// restores with both halves' evidence present.
func TestMergeOrderIndependent(t *testing.T) {
	idsA, idsB := deviceHalves(t)
	base := t.TempDir()
	dirA, dirB := filepath.Join(base, "a"), filepath.Join(base, "b")
	captureSubset(t, dirA, idsA)
	captureSubset(t, dirB, idsB)

	ab, ba := filepath.Join(base, "ab"), filepath.Join(base, "ba")
	if err := dataset.Merge(ab, []string{dirA, dirB}, dataset.Options{}); err != nil {
		t.Fatalf("Merge(A,B): %v", err)
	}
	if err := dataset.Merge(ba, []string{dirB, dirA}, dataset.Options{}); err != nil {
		t.Fatalf("Merge(B,A): %v", err)
	}
	abFiles, baFiles := dirBytes(t, ab), dirBytes(t, ba)
	if len(abFiles) != len(baFiles) {
		t.Fatalf("merge outputs differ in file count: %d vs %d", len(abFiles), len(baFiles))
	}
	for name, want := range abFiles {
		if baFiles[name] != want {
			t.Errorf("merged file %s differs between (A,B) and (B,A)", name)
		}
	}

	insp := dataset.Inspect(ab, nil)
	if !insp.OK() {
		t.Fatalf("merged dataset fails inspection:\n%s", insp.Render())
	}

	ds, err := dataset.Read(ab, nil)
	if err != nil {
		t.Fatalf("Read merged: %v", err)
	}
	if len(ds.Runs) != 2 {
		t.Fatalf("merged dataset has %d runs, want 2", len(ds.Runs))
	}
	seen := make(map[string]bool)
	for _, o := range ds.Observations {
		seen[o.Device] = true
	}
	for _, id := range append(append([]string(nil), idsA...), idsB...) {
		if !seen[id] {
			t.Errorf("merged dataset has no observations for device %s", id)
		}
	}

	// Analysing the union of the two directories must be input-order
	// independent too, and must match analysing the merged directory.
	render := func(dirs ...string) string {
		s := core.NewStudy()
		var sets []*dataset.Dataset
		for _, d := range dirs {
			ds, err := dataset.Read(d, nil)
			if err != nil {
				t.Fatalf("Read %s: %v", d, err)
			}
			sets = append(sets, ds)
		}
		u, err := dataset.Union(sets...)
		if err != nil {
			t.Fatalf("Union: %v", err)
		}
		rep, err := dataset.Restore(s, u)
		if err != nil {
			t.Fatalf("Restore: %v", err)
		}
		return rep.Render(s)
	}
	fromMerged := render(ab)
	if got := render(dirA, dirB); got != fromMerged {
		t.Error("analyze(A,B) differs from analyze(merged)")
	}
	if got := render(dirB, dirA); got != fromMerged {
		t.Error("analyze(B,A) differs from analyze(merged)")
	}
}

// TestMergeRejectsCollision pins that merging two captures of the same
// configuration (same seed, profile, window, overlapping devices) is
// rejected with a clear error instead of double-counting. The device
// sets overlap without being identical: identical sets share a run
// fingerprint and are rejected earlier as duplicates (see
// TestMergeRejectsCopiedDataset).
func TestMergeRejectsCollision(t *testing.T) {
	idsA, _ := deviceHalves(t)
	base := t.TempDir()
	dirA, dirA2 := filepath.Join(base, "a"), filepath.Join(base, "a2")
	captureSubset(t, dirA, idsA[:2])
	captureSubset(t, dirA2, idsA[1:3])

	err := dataset.Merge(filepath.Join(base, "out"), []string{dirA, dirA2}, dataset.Options{})
	if err == nil {
		t.Fatal("Merge of colliding runs succeeded, want error")
	}
	if !strings.Contains(err.Error(), "provenance collision") {
		t.Errorf("collision error %q does not name the provenance collision", err)
	}

	// The same rule applies to the in-memory union used by analyze.
	dsA, err := dataset.Read(dirA, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dataset.Union(dsA, dsA); err == nil {
		t.Fatal("Union of colliding runs succeeded, want error")
	}

	// Disjoint subsets of the same configuration remain mergeable.
	dirB := filepath.Join(base, "b")
	captureSubset(t, dirB, idsA[2:4])
	if err := dataset.Merge(filepath.Join(base, "ok"), []string{dirA, dirB}, dataset.Options{}); err != nil {
		t.Fatalf("Merge of disjoint runs: %v", err)
	}
}

// tinyDataset writes a minimal valid dataset carrying one provenance
// run — enough for the duplicate-input checks, without a capture.
func tinyDataset(t *testing.T, dir string) {
	t.Helper()
	w, err := dataset.NewWriter(dir, dataset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w.AddRun(dataset.Run{WindowFrom: "2018-01", WindowTo: "2018-02", Devices: []string{"a", "b"}})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMergeRejectsSameDirTwice pins the first line of duplicate
// defence: the same input directory listed twice — directly or through
// a symlink — is rejected before any manifest is read.
func TestMergeRejectsSameDirTwice(t *testing.T) {
	t.Parallel()
	base := t.TempDir()
	dir := filepath.Join(base, "ds")
	tinyDataset(t, dir)

	err := dataset.Merge(filepath.Join(base, "out"), []string{dir, dir}, dataset.Options{})
	if err == nil || !strings.Contains(err.Error(), "listed only once") {
		t.Fatalf("Merge(dir, dir): err = %v, want listed-only-once error", err)
	}

	link := filepath.Join(base, "link")
	if symErr := os.Symlink(dir, link); symErr == nil {
		err = dataset.Merge(filepath.Join(base, "out2"), []string{dir, link}, dataset.Options{})
		if err == nil || !strings.Contains(err.Error(), "listed only once") {
			t.Fatalf("Merge(dir, symlink-to-dir): err = %v, want listed-only-once error", err)
		}
	}
}

// TestMergeRejectsCopiedDataset pins the second line: the same dataset
// reached via two genuinely different directories (a file copy, which
// path normalisation cannot unify) is caught by the manifest's run
// fingerprint.
func TestMergeRejectsCopiedDataset(t *testing.T) {
	t.Parallel()
	base := t.TempDir()
	orig, copied := filepath.Join(base, "orig"), filepath.Join(base, "copy")
	tinyDataset(t, orig)
	if err := os.MkdirAll(copied, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(orig)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(orig, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(copied, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	err = dataset.Merge(filepath.Join(base, "out"), []string{orig, copied}, dataset.Options{})
	if err == nil || !strings.Contains(err.Error(), "copies of one dataset") {
		t.Fatalf("Merge(orig, copy): err = %v, want copies-of-one-dataset error", err)
	}

	// The in-memory union applies the same fingerprint rule.
	ds, err := dataset.Read(orig, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dataset.Union(ds, ds); err == nil || !strings.Contains(err.Error(), "appears twice") {
		t.Fatalf("Union(ds, ds): err = %v, want appears-twice error", err)
	}
}

// TestFailedMergeLeaksNoFiles pins that a merge failing on a corrupt
// input leaves no manifest and closes the output shards it had already
// opened: trace.bin is the last bucket merged, so truncating it fails
// the merge after every other output shard is open.
func TestFailedMergeLeaksNoFiles(t *testing.T) {
	in, _ := writeSample(t, false)
	raw, err := os.ReadFile(filepath.Join(in, "trace.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(in, "trace.bin"), raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "out")
	before := openFDs(t)
	if err := dataset.Merge(out, []string{in}, dataset.Options{}); !errors.Is(err, dataset.ErrCorrupt) {
		t.Fatalf("Merge over a truncated trace shard: err = %v, want ErrCorrupt", err)
	}
	assertSealFailedCleanly(t, out, before)
}

// TestMergeSchemaMismatch pins that a dataset from a different schema
// version is rejected up front.
func TestMergeSchemaMismatch(t *testing.T) {
	t.Parallel()
	base := t.TempDir()
	dir := filepath.Join(base, "ds")
	w, err := dataset.NewWriter(dir, dataset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, dataset.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	mangled := strings.Replace(string(raw), dataset.Schema, "iotls.dataset/v0", 1)
	if mangled == string(raw) {
		t.Fatal("schema string not found in manifest")
	}
	if err := os.WriteFile(filepath.Join(dir, dataset.ManifestName), []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}
	err = dataset.Merge(filepath.Join(base, "out"), []string{dir}, dataset.Options{})
	if err == nil || !strings.Contains(err.Error(), "unsupported schema") {
		t.Fatalf("Merge with mismatched schema: err = %v, want unsupported-schema error", err)
	}
	if errors.Is(err, dataset.ErrCorrupt) {
		t.Error("schema mismatch reported as corruption; want a distinct version error")
	}
}

// TestRunFingerprint pins the provenance identity: device order must
// not matter, any identity field must.
func TestRunFingerprint(t *testing.T) {
	t.Parallel()
	r := dataset.Run{FaultSeed: 7, FaultProfile: "aggressive", WindowFrom: "2018-01", WindowTo: "2020-03", Devices: []string{"b", "a"}}
	shuffled := r
	shuffled.Devices = []string{"a", "b"}
	if r.Fingerprint() != shuffled.Fingerprint() {
		t.Error("fingerprint depends on device order")
	}
	for name, mut := range map[string]func(*dataset.Run){
		"seed":    func(r *dataset.Run) { r.FaultSeed = 8 },
		"profile": func(r *dataset.Run) { r.FaultProfile = "mild" },
		"window":  func(r *dataset.Run) { r.WindowTo = "2020-04" },
		"devices": func(r *dataset.Run) { r.Devices = []string{"a"} },
	} {
		mod := r
		mod.Devices = append([]string(nil), r.Devices...)
		sort.Strings(mod.Devices)
		mut(&mod)
		if mod.Fingerprint() == r.Fingerprint() {
			t.Errorf("fingerprint ignores %s", name)
		}
	}
}
