package dataset

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/capture"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/mitm"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Options configure dataset I/O.
type Options struct {
	// Gzip compresses shard files (shards gain a .gz suffix). The CRC
	// and byte counts in the manifest always cover the uncompressed
	// record stream, so integrity checking is compression-independent.
	Gzip bool
	// Telemetry receives dataset.* I/O counters and spans; nil is fine.
	Telemetry *telemetry.Registry
}

// writeCounters caches the write-path telemetry handles; Registry
// lookups are too heavy for once-per-record.
type writeCounters struct {
	shards  *telemetry.Counter
	records *telemetry.Counter
	bytes   *telemetry.Counter
}

func newWriteCounters(tel *telemetry.Registry) writeCounters {
	return writeCounters{
		shards:  tel.Counter("dataset.write.shards"),
		records: tel.Counter("dataset.write.records"),
		bytes:   tel.Counter("dataset.write.bytes"),
	}
}

// Writer streams records into a dataset directory, one shard per
// passive month plus the active and aux shards, without ever holding a
// whole dataset in memory. Close finalises the shard catalog and
// writes the manifest; a Writer that is never Closed leaves no
// manifest, so half-written directories are not readable datasets.
type Writer struct {
	dir    string
	opts   Options
	ctrs   writeCounters
	shards map[string]*shardWriter
	runs   []Run
	active bool
	closed bool
	buf    enc // the record encoder, reused for every record

	// last caches the most recent (kind, month) → shard resolution:
	// records arrive in long same-shard runs, so the common case skips
	// the name build and map lookup entirely.
	lastKind  string
	lastMonth clock.Month
	lastShard *shardWriter
}

// shardWriter frames records into one shard file. The CRC and byte
// count are computed over the uncompressed stream, before gzip.
type shardWriter struct {
	info ShardInfo
	f    *os.File
	bw   *bufio.Writer
	gz   *gzip.Writer
	out  io.Writer
	crc  hash.Hash32
	ctrs writeCounters
}

// newShardWriter opens one shard file for streaming.
func newShardWriter(dir, name, kind, month string, gzipped bool, ctrs writeCounters) (*shardWriter, error) {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return nil, fmt.Errorf("dataset: create shard: %w", err)
	}
	sw := &shardWriter{
		info: ShardInfo{File: name, Kind: kind, Month: month},
		f:    f,
		bw:   bufio.NewWriterSize(f, 1<<16),
		crc:  crc32.NewIEEE(),
		ctrs: ctrs,
	}
	sw.out = sw.bw
	if gzipped {
		sw.gz = gzip.NewWriter(sw.bw)
		sw.out = sw.gz
	}
	ctrs.shards.Inc()
	return sw, nil
}

// writeRecord frames one encoded payload: uvarint length prefix, then
// the payload, both covered by the stream CRC. The prefix lives on the
// stack, so framing allocates nothing.
func (sw *shardWriter) writeRecord(payload []byte) error {
	var prefix [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(prefix[:], uint64(len(payload)))
	if _, err := sw.out.Write(prefix[:n]); err != nil {
		return fmt.Errorf("dataset: write shard %s: %w", sw.info.File, err)
	}
	if _, err := sw.out.Write(payload); err != nil {
		return fmt.Errorf("dataset: write shard %s: %w", sw.info.File, err)
	}
	sw.crc.Write(prefix[:n])
	sw.crc.Write(payload)
	frameLen := int64(n) + int64(len(payload))
	sw.info.Records++
	sw.info.Bytes += frameLen
	sw.ctrs.records.Inc()
	sw.ctrs.bytes.Add(frameLen)
	return nil
}

// finish flushes and closes the shard, sealing its CRC. The file is
// closed even when the flush fails.
func (sw *shardWriter) finish() error {
	var err error
	if sw.gz != nil {
		err = sw.gz.Close()
	}
	if err == nil {
		err = sw.bw.Flush()
	}
	if cerr := sw.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("dataset: finish shard %s: %w", sw.info.File, err)
	}
	sw.info.CRC32 = sw.crc.Sum32()
	return nil
}

// shardName renders a shard's file name.
func shardName(kind string, month clock.Month, gzipped bool) string {
	var name string
	switch kind {
	case KindPassive:
		name = "passive-" + month.String() + ".bin"
	case KindActive:
		name = "active.bin"
	case KindTrace:
		name = "trace.bin"
	default:
		name = "aux.bin"
	}
	if gzipped {
		name += ".gz"
	}
	return name
}

// NewWriter creates the dataset directory (if needed) and prepares for
// streaming. It refuses to overwrite an existing dataset.
func NewWriter(dir string, opts Options) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dataset: create %s: %w", dir, err)
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); err == nil {
		return nil, fmt.Errorf("dataset: %s already holds a dataset (refusing to overwrite)", dir)
	}
	return &Writer{
		dir:    dir,
		opts:   opts,
		ctrs:   newWriteCounters(opts.Telemetry),
		shards: make(map[string]*shardWriter),
	}, nil
}

// AddRun records one capture run's provenance in the manifest.
func (w *Writer) AddRun(r Run) { w.runs = append(w.runs, r) }

// SetHasActive marks that an active snapshot was captured (even if it
// produced zero observations).
func (w *Writer) SetHasActive() { w.active = true }

func (w *Writer) shard(kind string, month clock.Month) (*shardWriter, error) {
	if w.lastShard != nil && kind == w.lastKind && month == w.lastMonth {
		return w.lastShard, nil
	}
	name := shardName(kind, month, w.opts.Gzip)
	sw, ok := w.shards[name]
	if !ok {
		monthStr := ""
		if kind == KindPassive {
			monthStr = month.String()
		}
		var err error
		sw, err = newShardWriter(w.dir, name, kind, monthStr, w.opts.Gzip, w.ctrs)
		if err != nil {
			return nil, err
		}
		w.shards[name] = sw
	}
	w.lastKind, w.lastMonth, w.lastShard = kind, month, sw
	return sw, nil
}

// write frames one encoded record payload into the given shard.
func (w *Writer) write(kind string, month clock.Month, payload []byte) error {
	if w.closed {
		return fmt.Errorf("dataset: write after Close")
	}
	sw, err := w.shard(kind, month)
	if err != nil {
		return err
	}
	return sw.writeRecord(payload)
}

// encoder returns the Writer's record encoder, emptied. One buffer is
// reused for every record, so steady-state encoding allocates nothing
// once it reaches the largest record's size.
func (w *Writer) encoder() *enc {
	w.buf.b = w.buf.b[:0]
	return &w.buf
}

// Observation streams one passive handshake observation into its
// month's shard.
func (w *Writer) Observation(o *capture.Observation) error {
	e := w.encoder()
	encodeObservation(e, recObservation, o)
	return w.write(KindPassive, o.Month, e.b)
}

// Revocation streams one revocation event into its month's shard.
func (w *Writer) Revocation(ev capture.RevocationEvent) error {
	e := w.encoder()
	encodeRevocation(e, ev)
	return w.write(KindPassive, clock.MonthOf(ev.Time), e.b)
}

// ActiveObservation streams one active-snapshot observation.
func (w *Writer) ActiveObservation(o *capture.Observation) error {
	e := w.encoder()
	encodeObservation(e, recActiveObservation, o)
	return w.write(KindActive, clock.Month{}, e.b)
}

// ProbeReport streams one root-store probe result.
func (w *Writer) ProbeReport(r *ProbeRecord) error {
	e := w.encoder()
	encodeProbeReport(e, r)
	return w.write(KindAux, clock.Month{}, e.b)
}

// Downgrade streams one version-downgrade suite report.
func (w *Writer) Downgrade(r *mitm.DowngradeReport) error {
	e := w.encoder()
	encodeDowngrade(e, r)
	return w.write(KindAux, clock.Month{}, e.b)
}

// OldVersion streams one old-version acceptance report.
func (w *Writer) OldVersion(r *mitm.OldVersionReport) error {
	e := w.encoder()
	encodeOldVersion(e, r)
	return w.write(KindAux, clock.Month{}, e.b)
}

// Interception streams one interception suite report.
func (w *Writer) Interception(r *mitm.InterceptionReport) error {
	e := w.encoder()
	encodeInterception(e, r)
	return w.write(KindAux, clock.Month{}, e.b)
}

// Passthrough streams one traffic-passthrough control report.
func (w *Writer) Passthrough(r *mitm.PassthroughReport) error {
	e := w.encoder()
	encodePassthrough(e, r)
	return w.write(KindAux, clock.Month{}, e.b)
}

// Degradation streams one contained-incident log entry.
func (w *Writer) Degradation(d core.Degradation) error {
	e := w.encoder()
	encodeDegradation(e, d)
	return w.write(KindAux, clock.Month{}, e.b)
}

// TraceSpan streams one causal trace span. Spans must be fed in
// canonical (DFS) order for deterministic output; trace.Canonical
// establishes it.
func (w *Writer) TraceSpan(r trace.SpanRecord) error {
	e := w.encoder()
	encodeTraceSpan(e, r)
	return w.write(KindTrace, clock.Month{}, e.b)
}

// writeDataset streams every record of ds and its run provenance. It
// is the sole owner of the canonical section order — observations,
// revocations, active observations, probe reports, downgrades, old
// versions, interceptions, passthroughs, degradations, trace spans —
// which Write and Spiller.Finish both reach only through here. Each
// shard receives its records in section order, so a passive month's
// shard holds its observations before its revocations.
func (w *Writer) writeDataset(ds *Dataset) error {
	for _, r := range ds.Runs {
		w.AddRun(r)
	}
	if ds.HasActive {
		w.SetHasActive()
	}
	for _, o := range ds.Observations {
		if err := w.Observation(o); err != nil {
			return err
		}
	}
	for _, ev := range ds.Revocations {
		if err := w.Revocation(ev); err != nil {
			return err
		}
	}
	for _, o := range ds.ActiveObservations {
		if err := w.ActiveObservation(o); err != nil {
			return err
		}
	}
	for _, r := range ds.ProbeReports {
		if err := w.ProbeReport(r); err != nil {
			return err
		}
	}
	for _, r := range ds.Downgrades {
		if err := w.Downgrade(r); err != nil {
			return err
		}
	}
	for _, r := range ds.OldVersions {
		if err := w.OldVersion(r); err != nil {
			return err
		}
	}
	for _, r := range ds.Interceptions {
		if err := w.Interception(r); err != nil {
			return err
		}
	}
	for _, r := range ds.Passthroughs {
		if err := w.Passthrough(r); err != nil {
			return err
		}
	}
	for _, d := range ds.Degradations {
		if err := w.Degradation(d); err != nil {
			return err
		}
	}
	for _, r := range ds.TraceSpans {
		if err := w.TraceSpan(r); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes every shard and writes the manifest. Every shard file
// is closed even when sealing one of them fails; the errors are joined
// and no manifest is written. The Writer is unusable afterwards.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	if err := w.finishAll(); err != nil {
		return err
	}
	m := &Manifest{
		Schema:    Schema,
		Version:   Version,
		Gzip:      w.opts.Gzip,
		HasActive: w.active,
		Runs:      w.runs,
	}
	for _, sw := range w.shards {
		m.Shards = append(m.Shards, sw.info)
	}
	return writeManifest(w.dir, m)
}

// abort closes every open shard file without sealing a manifest: the
// directory stays unreadable as a dataset (readers require the
// manifest), which is the contract for interrupted writes.
func (w *Writer) abort() {
	if !w.closed {
		_ = w.finishAll()
	}
}

// finishAll seals every shard, closing each file even after an earlier
// shard failed, and marks the Writer closed.
func (w *Writer) finishAll() error {
	w.closed = true
	var errs []error
	for _, sw := range w.shards {
		errs = append(errs, sw.finish())
	}
	return errors.Join(errs...)
}

// Write persists a whole in-memory Dataset to dir through a Writer, so
// the bulk and streaming paths share one encoder and one section order.
// A failed write leaves no manifest and no open shard files.
func Write(dir string, ds *Dataset, opts Options) (err error) {
	span := opts.Telemetry.StartSpan("dataset.write")
	defer func() { span.EndErr(err) }()
	w, err := NewWriter(dir, opts)
	if err != nil {
		return err
	}
	if err := w.writeDataset(ds); err != nil {
		w.abort()
		return err
	}
	return w.Close()
}
