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
// merge inputs. Equal fingerprints mean identical provenance (seed,
// profile, window, and full device set), i.e. the same dataset was
// supplied twice — distinct from a provenance *collision*, where two
// different captures overlap; the error says so plainly.
func checkDuplicateRun(prev, r Run, prevSrc, src string) error {
	if prev.Fingerprint() != r.Fingerprint() {
		return nil
	}
	if prevSrc != "" && src != "" && prevSrc != src {
		return fmt.Errorf("dataset: inputs %s and %s contain the same run %s (identical seed, fault profile, window, and devices): they are copies of one dataset, which may be merged only once",
			prevSrc, src, r.Fingerprint())
	}
	return fmt.Errorf("dataset: run %s appears twice in the merge inputs: the same dataset may be merged only once", r.Fingerprint())
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

// sourcedRun is one admitted merge input run and the label of the
// input it came from ("" for in-memory unions).
type sourcedRun struct {
	run Run
	src string
}

// admitRun appends r, read from src, to runs unless it duplicates or
// collides with a run already admitted. Union and Merge both admit
// their inputs' runs through here; src only shapes the error messages.
func admitRun(runs *[]sourcedRun, r Run, src string) error {
	for _, prev := range *runs {
		if err := checkDuplicateRun(prev.run, r, prev.src, src); err != nil {
			return err
		}
		if runsCollide(prev.run, r) {
			return fmt.Errorf("dataset: provenance collision: run %s%s and run %s%s capture the same configuration (seed=%d profile=%q window=%s..%s) with overlapping devices",
				prev.run.Fingerprint(), fromSource(prev.src), r.Fingerprint(), fromSource(src), r.FaultSeed, r.FaultProfile, r.WindowFrom, r.WindowTo)
		}
	}
	*runs = append(*runs, sourcedRun{run: r, src: src})
	return nil
}

// fromSource renders a run's source label for an error message.
func fromSource(src string) string {
	if src == "" {
		return ""
	}
	return " from " + src
}

// Union concatenates already-loaded datasets in memory, applying the
// same provenance collision rules as Merge. Restore re-canonicalises
// every section (the store sorts observations, suite reports sort by
// registry device order), so analysing a union is input-order
// independent for disjoint-device inputs.
func Union(sets ...*Dataset) (*Dataset, error) {
	out := &Dataset{}
	var runs []sourcedRun
	for _, ds := range sets {
		for _, r := range ds.Runs {
			if err := admitRun(&runs, r, ""); err != nil {
				return nil, err
			}
			out.Runs = append(out.Runs, r)
		}
		if ds.HasActive {
			out.HasActive = true
		}
		out.Observations = append(out.Observations, ds.Observations...)
		out.Revocations = append(out.Revocations, ds.Revocations...)
		out.ActiveObservations = append(out.ActiveObservations, ds.ActiveObservations...)
		out.ProbeReports = append(out.ProbeReports, ds.ProbeReports...)
		out.Downgrades = append(out.Downgrades, ds.Downgrades...)
		out.OldVersions = append(out.OldVersions, ds.OldVersions...)
		out.Interceptions = append(out.Interceptions, ds.Interceptions...)
		out.Passthroughs = append(out.Passthroughs, ds.Passthroughs...)
		out.Degradations = append(out.Degradations, ds.Degradations...)
		out.TraceSpans = append(out.TraceSpans, ds.TraceSpans...)
	}
	return out, nil
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
// share the schema version, and provenance collisions (the same seed,
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
			if err := admitRun(&runs, r, dir); err != nil {
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
