package dataset

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/mitm"
	"repro/internal/pool"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// scanShard streams one shard file record by record, verifying the
// frame structure, the record/byte counts, and the CRC against the
// manifest entry. fn receives each record's payload; the slice is only
// valid for the duration of the call.
func scanShard(dir string, gzipped bool, info ShardInfo, fn func(payload []byte) error) error {
	f, err := os.Open(filepath.Join(dir, info.File))
	if err != nil {
		return fmt.Errorf("dataset: open shard: %w", err)
	}
	defer f.Close()
	var r io.Reader = bufio.NewReader(f)
	if gzipped {
		gz, err := gzip.NewReader(r)
		if err != nil {
			return corruptf("shard %s: bad gzip stream: %v", info.File, err)
		}
		defer gz.Close()
		r = gz
	}
	br := bufio.NewReader(r)

	crc := crc32.NewIEEE()
	var records, bytes int64
	var payload []byte
	for {
		// Read the uvarint length prefix byte by byte so the CRC covers
		// the frame exactly as written.
		var n uint64
		var prefix [10]byte
		p := 0
		for shift := uint(0); ; shift += 7 {
			b, err := br.ReadByte()
			if err == io.EOF && p == 0 && shift == 0 {
				goto done
			}
			if err != nil {
				return corruptf("shard %s: truncated record length at record %d", info.File, records)
			}
			if p >= len(prefix) || shift > 63 {
				return corruptf("shard %s: overlong record length at record %d", info.File, records)
			}
			prefix[p] = b
			p++
			n |= uint64(b&0x7f) << shift
			if b < 0x80 {
				break
			}
		}
		if n > maxRecordLen {
			return corruptf("shard %s: record %d length %d exceeds limit", info.File, records, n)
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return corruptf("shard %s: truncated record %d (want %d bytes): %v", info.File, records, n, err)
		}
		crc.Write(prefix[:p])
		crc.Write(payload)
		records++
		bytes += int64(p) + int64(n)
		if err := fn(payload); err != nil {
			return err
		}
	}
done:
	if records != info.Records {
		return corruptf("shard %s: %d records on disk, manifest says %d", info.File, records, info.Records)
	}
	if bytes != info.Bytes {
		return corruptf("shard %s: %d stream bytes on disk, manifest says %d", info.File, bytes, info.Bytes)
	}
	if sum := crc.Sum32(); sum != info.CRC32 {
		return corruptf("shard %s: CRC32 %08x, manifest says %08x", info.File, sum, info.CRC32)
	}
	return nil
}

// Read loads a dataset directory into memory, decoding every record
// and verifying every shard's integrity. Shards decode in parallel —
// each into its own partial dataset — and the partials are merged in
// sorted-manifest order, so the in-memory record order is identical to
// a sequential scan at any parallelism.
func Read(dir string, tel *telemetry.Registry) (ds *Dataset, err error) {
	end := timeOp(tel, "read")
	defer func() { end(err) }()
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	sortShards(m.Shards)
	shardCtr := tel.Counter("dataset.read.shards")
	recordCtr := tel.Counter("dataset.read.records")
	byteCtr := tel.Counter("dataset.read.bytes")
	parts := make([]*Dataset, len(m.Shards))
	errs := make([]error, len(m.Shards))
	pool.Run(0, len(m.Shards), func(_, i int) {
		sh := m.Shards[i]
		part := &Dataset{}
		var records, bytes int64
		err := scanShard(dir, m.Gzip, sh, func(payload []byte) error {
			records++
			bytes += int64(len(payload))
			return part.decodeInto(sh, payload)
		})
		recordCtr.Add(records)
		byteCtr.Add(bytes)
		if err != nil {
			errs[i] = err
			return
		}
		shardCtr.Inc()
		parts[i] = part
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	ds = &Dataset{Runs: append([]Run(nil), m.Runs...), HasActive: m.HasActive}
	for _, part := range parts {
		ds.Observations = append(ds.Observations, part.Observations...)
		ds.Revocations = append(ds.Revocations, part.Revocations...)
		ds.ActiveObservations = append(ds.ActiveObservations, part.ActiveObservations...)
		ds.ProbeReports = append(ds.ProbeReports, part.ProbeReports...)
		ds.Downgrades = append(ds.Downgrades, part.Downgrades...)
		ds.OldVersions = append(ds.OldVersions, part.OldVersions...)
		ds.Interceptions = append(ds.Interceptions, part.Interceptions...)
		ds.Passthroughs = append(ds.Passthroughs, part.Passthroughs...)
		ds.Degradations = append(ds.Degradations, part.Degradations...)
		ds.TraceSpans = append(ds.TraceSpans, part.TraceSpans...)
	}
	return ds, nil
}

// allowedKinds maps each shard kind to the record kinds it may hold.
var allowedKinds = map[string][]byte{
	KindPassive: {recObservation, recRevocation},
	KindActive:  {recActiveObservation},
	KindAux:     {recProbeReport, recDowngrade, recOldVersion, recInterception, recPassthrough, recDegradation},
	KindTrace:   {recTraceSpan},
}

// decodeInto decodes one record payload into the dataset, enforcing
// that the record kind belongs in its shard kind.
func (ds *Dataset) decodeInto(sh ShardInfo, payload []byte) error {
	if len(payload) == 0 {
		return corruptf("shard %s: empty record", sh.File)
	}
	kind := payload[0]
	ok := false
	for _, k := range allowedKinds[sh.Kind] {
		if kind == k {
			ok = true
		}
	}
	if !ok {
		return corruptf("shard %s: record kind %d not allowed in %s shard", sh.File, kind, sh.Kind)
	}
	// The dec reads payload in place; scanShard reuses the buffer across
	// records, so every retained field (dec.str, dec.u8s, ...) copies out
	// of it rather than aliasing.
	body := &dec{b: payload[1:]}
	var err error
	switch kind {
	case recObservation:
		var o *capture.Observation
		if o, err = decodeObservation(body); err == nil {
			if got := o.Month.String(); got != sh.Month {
				return corruptf("shard %s: observation from month %s in %s shard", sh.File, got, sh.Month)
			}
			ds.Observations = append(ds.Observations, o)
		}
	case recRevocation:
		var ev capture.RevocationEvent
		if ev, err = decodeRevocation(body); err == nil {
			ds.Revocations = append(ds.Revocations, ev)
		}
	case recActiveObservation:
		var o *capture.Observation
		if o, err = decodeObservation(body); err == nil {
			ds.ActiveObservations = append(ds.ActiveObservations, o)
		}
	case recProbeReport:
		var r *ProbeRecord
		if r, err = decodeProbeReport(body); err == nil {
			ds.ProbeReports = append(ds.ProbeReports, r)
		}
	case recDowngrade:
		var r *mitm.DowngradeReport
		if r, err = decodeDowngrade(body); err == nil {
			ds.Downgrades = append(ds.Downgrades, r)
		}
	case recOldVersion:
		var r *mitm.OldVersionReport
		if r, err = decodeOldVersion(body); err == nil {
			ds.OldVersions = append(ds.OldVersions, r)
		}
	case recInterception:
		var r *mitm.InterceptionReport
		if r, err = decodeInterception(body); err == nil {
			ds.Interceptions = append(ds.Interceptions, r)
		}
	case recPassthrough:
		var r *mitm.PassthroughReport
		if r, err = decodePassthrough(body); err == nil {
			ds.Passthroughs = append(ds.Passthroughs, r)
		}
	case recDegradation:
		var d core.Degradation
		if d, err = decodeDegradation(body); err == nil {
			ds.Degradations = append(ds.Degradations, d)
		}
	case recTraceSpan:
		var r trace.SpanRecord
		if r, err = decodeTraceSpan(body); err == nil {
			ds.TraceSpans = append(ds.TraceSpans, r)
		}
	default:
		return corruptf("shard %s: unknown record kind %d", sh.File, kind)
	}
	if err != nil {
		return fmt.Errorf("shard %s: %w", sh.File, err)
	}
	return nil
}
