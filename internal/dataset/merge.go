package dataset

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sort"

	"repro/internal/clock"
)

// normalizeInputs resolves each input directory to a canonical absolute
// path and rejects the same directory listed twice. This is the cheap
// first line of defence against double-merging a dataset with itself;
// the run-fingerprint check below catches the same dataset reached via
// paths normalisation can't unify (copies, symlinks, bind mounts).
func normalizeInputs(inDirs []string) error {
	seen := make(map[string]string, len(inDirs))
	for _, dir := range inDirs {
		abs, err := filepath.Abs(dir)
		if err != nil {
			abs = filepath.Clean(dir)
		}
		if resolved, err := filepath.EvalSymlinks(abs); err == nil {
			abs = resolved
		}
		if prev, ok := seen[abs]; ok {
			return fmt.Errorf("dataset: merge input %q is the same directory as %q: each dataset may be listed only once", dir, prev)
		}
		seen[abs] = dir
	}
	return nil
}

// checkDuplicateRun rejects the exact same run appearing twice across
// merge inputs. Equal fingerprints mean identical provenance (testbed,
// seed, profile, window, and full device set), i.e. the same dataset
// was supplied twice — distinct from a provenance *collision*, where
// two different captures overlap; the error says so plainly.
func checkDuplicateRun(prev, r sourcedRun) error {
	if prev.run.Fingerprint() != r.run.Fingerprint() {
		return nil
	}
	if prev.src != r.src {
		return fmt.Errorf("dataset: inputs %s and %s contain the same run %s (identical testbed, seed, fault profile, window, and devices): they are copies of one dataset, which may be merged only once",
			prev.src, r.src, r.run.Fingerprint())
	}
	return fmt.Errorf("dataset: run %s appears twice in %s: the same dataset may be merged only once", r.run.Fingerprint(), r.src)
}

// runsCollide reports whether two provenance entries describe the same
// simulated reality: identical fault configuration and passive window
// with overlapping device sets. Merging such runs would double-count
// observations, so Merge rejects them. Distinct seeds (or disjoint
// device subsets of one configuration, as produced by sharded fleet
// captures) are legitimate merge inputs.
func runsCollide(a, b Run) bool {
	if a.FaultSeed != b.FaultSeed || a.FaultProfile != b.FaultProfile ||
		a.WindowFrom != b.WindowFrom || a.WindowTo != b.WindowTo {
		return false
	}
	set := make(map[string]bool, len(a.Devices))
	for _, d := range a.Devices {
		set[d] = true
	}
	for _, d := range b.Devices {
		if set[d] {
			return true
		}
	}
	return false
}

// checkTestbed rejects a run captured on a different device set than
// prev: one dataset restores onto one registry, so a catalog run and a
// fleet run — or two fleets that differ in size or seed — cannot share
// a dataset.
func checkTestbed(prev, r sourcedRun) error {
	if sameTestbed(prev.run, r.run) {
		return nil
	}
	return fmt.Errorf("dataset: testbed mismatch: run %s from %s was captured on %s, run %s from %s on %s: runs from different testbeds cannot share a dataset",
		prev.run.Fingerprint(), prev.src, prev.run.testbed(), r.run.Fingerprint(), r.src, r.run.testbed())
}

// sourcedRun is one admitted merge input run and the input directory
// it came from.
type sourcedRun struct {
	run Run
	src string
}

// admitRun appends r to runs unless it was captured on another testbed
// or duplicates or collides with a run already admitted.
func admitRun(runs *[]sourcedRun, r sourcedRun) error {
	for _, prev := range *runs {
		if err := checkTestbed(prev, r); err != nil {
			return err
		}
		if err := checkDuplicateRun(prev, r); err != nil {
			return err
		}
		if runsCollide(prev.run, r.run) {
			return fmt.Errorf("dataset: provenance collision: run %s from %s and run %s from %s capture the same configuration (seed=%d profile=%q window=%s..%s) with overlapping devices",
				prev.run.Fingerprint(), prev.src, r.run.Fingerprint(), r.src, r.run.FaultSeed, r.run.FaultProfile, r.run.WindowFrom, r.run.WindowTo)
		}
	}
	*runs = append(*runs, r)
	return nil
}

// bucket identifies one merged output shard.
type bucket struct {
	kind  string
	month string
	// sources lists the input shards feeding this bucket.
	sources []bucketSource
}

type bucketSource struct {
	dir  string
	gzip bool
	info ShardInfo
}

// Merge unions the datasets in inDirs into a new dataset at outDir.
// The merge is deterministic and order-independent: records within
// each output shard are sorted by their encoded bytes, so merging
// (A, B) and (B, A) produce byte-identical directories. Inputs must
// share the schema version and the testbed (the catalog, or one
// synthetic fleet spec), and provenance collisions (the same seed,
// fault profile, and window with overlapping devices) are rejected.
func Merge(outDir string, inDirs []string, opts Options) (err error) {
	end := timeOp(opts.Telemetry, "merge")
	defer func() { end(err) }()
	if len(inDirs) == 0 {
		return fmt.Errorf("dataset: merge needs at least one input")
	}
	if err := normalizeInputs(inDirs); err != nil {
		return err
	}

	var runs []sourcedRun
	hasActive := false
	buckets := make(map[string]*bucket)
	var order []string
	for _, dir := range inDirs {
		m, err := readManifest(dir)
		if err != nil {
			return err
		}
		for _, r := range m.Runs {
			if err := admitRun(&runs, sourcedRun{run: r, src: dir}); err != nil {
				return err
			}
		}
		if m.HasActive {
			hasActive = true
		}
		for _, sh := range m.Shards {
			key := sh.Kind + "\x00" + sh.Month
			b, ok := buckets[key]
			if !ok {
				b = &bucket{kind: sh.Kind, month: sh.Month}
				buckets[key] = b
				order = append(order, key)
			}
			b.sources = append(b.sources, bucketSource{dir: dir, gzip: m.Gzip, info: sh})
		}
	}
	sort.Strings(order)

	w, err := NewWriter(outDir, opts)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			w.abort()
		}
	}()
	for _, r := range runs {
		w.AddRun(r.run)
	}
	if hasActive {
		w.SetHasActive()
	}
	// One bucket (≈ one study month) is in memory at a time; records
	// are unioned and sorted by encoded bytes for order independence.
	for _, key := range order {
		b := buckets[key]
		var month clock.Month
		if b.kind == KindPassive {
			if month, err = parseMonth(b.month); err != nil {
				return corruptf("merge: %v", err)
			}
		}
		var payloads [][]byte
		for _, src := range b.sources {
			err := scanShard(src.dir, src.gzip, src.info, func(p []byte) error {
				payloads = append(payloads, append([]byte(nil), p...))
				return nil
			})
			if err != nil {
				return err
			}
		}
		sort.Slice(payloads, func(i, j int) bool {
			return bytes.Compare(payloads[i], payloads[j]) < 0
		})
		for _, p := range payloads {
			if err := w.write(b.kind, month, p); err != nil {
				return err
			}
		}
	}
	return w.Close()
}
