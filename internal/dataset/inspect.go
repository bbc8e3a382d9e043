package dataset

import (
	"fmt"
	"strings"

	"repro/internal/telemetry"
)

// ShardStatus is one shard's integrity verdict.
type ShardStatus struct {
	ShardInfo
	// Err holds the corruption detail; empty means the shard verified.
	Err string
}

// InspectReport is the result of a dataset integrity walk.
type InspectReport struct {
	Dir      string
	Manifest *Manifest
	Shards   []ShardStatus
	// Err is set when the manifest itself is unreadable.
	Err string
}

// OK reports whether the manifest and every shard verified.
func (r *InspectReport) OK() bool {
	if r.Err != "" {
		return false
	}
	for _, s := range r.Shards {
		if s.Err != "" {
			return false
		}
	}
	return true
}

// Inspect walks a dataset directory and verifies it end to end: the
// manifest parses and carries the supported schema, and every shard's
// record count, stream size, CRC32, and record payloads check out. It
// keeps going past a corrupt shard so the report covers the whole
// directory; the error return is reserved for I/O-level failures.
func Inspect(dir string, tel *telemetry.Registry) *InspectReport {
	defer timeOp(tel, "inspect")(nil)
	rep := &InspectReport{Dir: dir}
	m, err := readManifest(dir)
	if err != nil {
		rep.Err = err.Error()
		return rep
	}
	rep.Manifest = m
	sortShards(m.Shards)
	for _, sh := range m.Shards {
		st := ShardStatus{ShardInfo: sh}
		probe := &Dataset{HasActive: m.HasActive}
		if err := scanShard(dir, m.Gzip, sh, func(p []byte) error {
			return probe.decodeInto(sh, p)
		}); err != nil {
			st.Err = err.Error()
		}
		rep.Shards = append(rep.Shards, st)
	}
	return rep
}

// Render formats the inspection for the CLI.
func (r *InspectReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dataset: %s\n", r.Dir)
	if r.Err != "" {
		fmt.Fprintf(&b, "  manifest: CORRUPT — %s\n", r.Err)
		return b.String()
	}
	m := r.Manifest
	fmt.Fprintf(&b, "  schema: %s (version %d), gzip=%v, active_snapshot=%v\n", m.Schema, m.Version, m.Gzip, m.HasActive)
	fmt.Fprintf(&b, "  runs: %d\n", len(m.Runs))
	for _, run := range m.Runs {
		profile := run.FaultProfile
		if profile == "" {
			profile = "none"
		}
		fmt.Fprintf(&b, "    %s  window=%s..%s  devices=%d  fault_seed=%d  fault_profile=%s  handshakes=%d\n",
			run.Fingerprint(), run.WindowFrom, run.WindowTo, len(run.Devices), run.FaultSeed, profile, run.Stats.Handshakes)
	}
	fmt.Fprintf(&b, "  shards: %d\n", len(r.Shards))
	var records, bytes int64
	for _, sh := range r.Shards {
		status := "OK"
		if sh.Err != "" {
			status = "CORRUPT — " + sh.Err
		}
		month := sh.Month
		if month == "" {
			month = "-"
		}
		fmt.Fprintf(&b, "    %-24s %-7s %-7s %7d records %9d bytes  crc32=%08x  %s\n",
			sh.File, sh.Kind, month, sh.Records, sh.Bytes, sh.CRC32, status)
		records += sh.Records
		bytes += sh.Bytes
	}
	fmt.Fprintf(&b, "  total: %d records, %d stream bytes\n", records, bytes)
	if r.OK() {
		b.WriteString("  integrity: OK\n")
	} else {
		b.WriteString("  integrity: CORRUPT\n")
	}
	return b.String()
}
