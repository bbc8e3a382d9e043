package dataset

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/traffic"
)

// Schema identifies the on-disk format; Version is bumped on any
// encoding change. Readers reject schema mismatches and versions newer
// than they understand; older versions back to MinVersion are read
// compatibly (version 2 added the trace shard, which version-1
// datasets simply lack).
const (
	Schema     = "iotls.dataset/v1"
	Version    = 2
	MinVersion = 1
)

// ManifestName is the dataset's index file.
const ManifestName = "manifest.json"

// Shard kinds.
const (
	KindPassive = "passive" // one shard per study month
	KindActive  = "active"  // the 2021 active-snapshot captures
	KindAux     = "aux"     // suite reports, probe results, degradations
	KindTrace   = "trace"   // causal trace spans (since format version 2)
)

// Run is the provenance of one capture run. Its identity — everything
// that determines what the simulator produced — is the testbed, the
// fault configuration, the passive window, and the device set; Stats
// and NoNewValidationFailures are outcomes carried along for analysis.
type Run struct {
	// FaultSeed/FaultProfile describe the armed fault plan ("" and 0
	// mean a clean run).
	FaultSeed    uint64 `json:"fault_seed"`
	FaultProfile string `json:"fault_profile"`
	// WindowFrom/WindowTo bound the passive collection ("2018-01").
	WindowFrom string `json:"window_from"`
	WindowTo   string `json:"window_to"`
	// Devices is the sorted ID set the run drove (sharded fleets
	// capture disjoint subsets).
	Devices []string `json:"devices"`
	// FleetN/FleetSeed name the synthetic fleet the run was captured on
	// (see core.Config); both are zero, and omitted, for the 40-device
	// catalog. Every run of one dataset shares them: they are what a
	// restore rebuilds its device registry from.
	FleetN    int    `json:"fleet_n,omitempty"`
	FleetSeed uint64 `json:"fleet_seed,omitempty"`
	// Stats is the run's passive traffic summary.
	Stats traffic.Stats `json:"stats"`
	// NoNewValidationFailures is the §4.2 passthrough verification
	// outcome (true on clean studies).
	NoNewValidationFailures bool `json:"no_new_validation_failures"`
}

// Fingerprint returns the run's provenance identity: a short hash over
// the simulation-determining fields. Two runs with equal fingerprints
// captured the same simulated reality, so merging them would
// double-count — Merge rejects that collision. The fleet spec enters
// the hash only for fleet runs, so catalog fingerprints are unchanged
// from datasets written before it was recorded.
func (r Run) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d|profile=%s|window=%s..%s|devices=", r.FaultSeed, r.FaultProfile, r.WindowFrom, r.WindowTo)
	devs := append([]string(nil), r.Devices...)
	sort.Strings(devs)
	b.WriteString(strings.Join(devs, ","))
	if r.FleetN > 0 {
		fmt.Fprintf(&b, "|fleet=%d/%d", r.FleetN, r.FleetSeed)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

// sameTestbed reports whether two runs were captured on the same
// device set.
func sameTestbed(a, b Run) bool {
	return a.FleetN == b.FleetN && a.FleetSeed == b.FleetSeed
}

// testbed describes the device set the run was captured on, for
// error messages.
func (r Run) testbed() string {
	if r.FleetN == 0 {
		return "the 40-device catalog"
	}
	return fmt.Sprintf("synthetic fleet n=%d seed=%d", r.FleetN, r.FleetSeed)
}

// ShardInfo describes one shard file in the manifest.
type ShardInfo struct {
	// File is the shard file name within the dataset directory.
	File string `json:"file"`
	// Kind is passive, active, or aux; Month is set for passive shards.
	Kind  string `json:"kind"`
	Month string `json:"month,omitempty"`
	// Records and Bytes count the framed records and their uncompressed
	// stream size; CRC32 (IEEE) covers the uncompressed stream.
	Records int64  `json:"records"`
	Bytes   int64  `json:"bytes"`
	CRC32   uint32 `json:"crc32"`
}

// Manifest is the dataset index: schema identity, run provenance, and
// the shard catalog. It is serialised deterministically (fixed field
// order, sorted shards and runs), so identical datasets are
// byte-identical on disk.
type Manifest struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	// Gzip reports whether shard files are gzip-compressed.
	Gzip bool `json:"gzip"`
	// HasActive distinguishes "no active snapshot was captured" (the
	// Figure 5 section renders as PARTIAL) from "captured but empty".
	HasActive bool        `json:"has_active"`
	Runs      []Run       `json:"runs"`
	Shards    []ShardInfo `json:"shards"`
}

// sortShards orders the shard catalog canonically: passive months
// first (ascending), then active, then aux, then trace.
func sortShards(shards []ShardInfo) {
	rank := func(s ShardInfo) int {
		switch s.Kind {
		case KindPassive:
			return 0
		case KindActive:
			return 1
		case KindAux:
			return 2
		default:
			return 3
		}
	}
	sort.Slice(shards, func(i, j int) bool {
		if a, b := rank(shards[i]), rank(shards[j]); a != b {
			return a < b
		}
		return shards[i].Month < shards[j].Month
	})
}

// sortRuns orders provenance entries canonically by fingerprint.
func sortRuns(runs []Run) {
	sort.Slice(runs, func(i, j int) bool {
		return runs[i].Fingerprint() < runs[j].Fingerprint()
	})
}

// writeManifest persists the manifest (atomically via rename, so a
// crashed writer never leaves a half-written index next to live
// shards).
func writeManifest(dir string, m *Manifest) error {
	sortShards(m.Shards)
	sortRuns(m.Runs)
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("dataset: marshal manifest: %w", err)
	}
	out = append(out, '\n')
	tmp := filepath.Join(dir, ManifestName+".tmp")
	if err := os.WriteFile(tmp, out, 0o644); err != nil {
		return fmt.Errorf("dataset: write manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, ManifestName)); err != nil {
		return fmt.Errorf("dataset: install manifest: %w", err)
	}
	return nil
}

// readManifest loads and validates the manifest of a dataset directory.
func readManifest(dir string) (*Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("dataset: open %s: %w", dir, err)
	}
	return decodeManifest(raw, dir)
}

// decodeManifest parses and validates raw manifest bytes; dir names the
// source (a directory or a URL) for error messages. Fetch shares it
// with readManifest so remote manifests face the same scrutiny as local
// ones.
func decodeManifest(raw []byte, dir string) (*Manifest, error) {
	m := &Manifest{}
	if err := json.Unmarshal(raw, m); err != nil {
		return nil, corruptf("parse manifest in %s: %v", dir, err)
	}
	if m.Schema != Schema || m.Version < MinVersion || m.Version > Version {
		return nil, fmt.Errorf("dataset: %s: unsupported schema %q version %d (want %q version %d..%d)",
			dir, m.Schema, m.Version, Schema, MinVersion, Version)
	}
	seen := make(map[string]bool, len(m.Shards))
	for _, sh := range m.Shards {
		if sh.File == "" || sh.File != filepath.Base(sh.File) {
			return nil, corruptf("manifest in %s: invalid shard file name %q", dir, sh.File)
		}
		if seen[sh.File] {
			return nil, corruptf("manifest in %s: duplicate shard %q", dir, sh.File)
		}
		seen[sh.File] = true
		switch sh.Kind {
		case KindPassive:
			if _, err := parseMonth(sh.Month); err != nil {
				return nil, corruptf("manifest in %s: shard %q: %v", dir, sh.File, err)
			}
		case KindActive, KindAux, KindTrace:
		default:
			return nil, corruptf("manifest in %s: shard %q has unknown kind %q", dir, sh.File, sh.Kind)
		}
	}
	return m, nil
}

// parseMonth parses clock.Month's "2018-01" rendering.
func parseMonth(s string) (clock.Month, error) {
	t, err := time.Parse("2006-01", s)
	if err != nil {
		return clock.Month{}, fmt.Errorf("invalid month %q", s)
	}
	return clock.Month{Year: t.Year(), Mon: t.Month()}, nil
}
