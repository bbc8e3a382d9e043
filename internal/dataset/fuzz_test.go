package dataset

import (
	"encoding/json"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// Native fuzz targets for the decoders that read dataset bytes from
// disk or the network. `go test` runs only the seed corpus: the f.Add
// seeds below plus testdata/fuzz/<target>/, which holds the manifests
// and every record of the golden_v1 and golden_v2 fixtures (one entry
// per distinct record, all ten record kinds). Fuzz one target with,
// e.g.,
//
//	go test -run '^$' -fuzz FuzzDecodeRecord ./internal/dataset
//
// and commit any crasher it writes under testdata/fuzz/ with the fix.

// FuzzDecodeManifest decodes raw manifest bytes. A rejection must wrap
// ErrCorrupt unless it is the schema-version refusal; an accepted
// manifest must re-encode to JSON that decodes back to the same
// manifest.
func FuzzDecodeManifest(f *testing.F) {
	f.Add([]byte(`{"schema":"iotls.dataset/v1","version":2,"shards":[{"file":"aux.bin","kind":"aux"}]}`))
	f.Add([]byte(`{"schema":"iotls.dataset/v1","version":2,"shards":[{"file":"../x","kind":"aux"}]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := decodeManifest(raw, "fuzz")
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !strings.Contains(err.Error(), "unsupported schema") {
				t.Fatalf("decodeManifest error %v is neither corruption nor a schema refusal", err)
			}
			return
		}
		enc, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("marshal of a decoded manifest: %v", err)
		}
		again, err := decodeManifest(enc, "fuzz")
		if err != nil {
			t.Fatalf("re-encoded manifest fails to decode: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("manifest changes across a re-encode:\n got %+v\nwant %+v", again, m)
		}
	})
}

// shardAdmitting returns a shard of the kind that admits record kind k, so
// every record kind reaches its decoder; month names a passive shard's
// month.
func shardAdmitting(k byte, month string) ShardInfo {
	for kind, kinds := range allowedKinds {
		for _, a := range kinds {
			if a == k {
				return ShardInfo{File: "fuzz.bin", Kind: kind, Month: month}
			}
		}
	}
	return ShardInfo{File: "fuzz.bin", Kind: KindAux, Month: month}
}

// encodeOne re-encodes the single record ds holds, as the Writer
// would.
func encodeOne(t *testing.T, ds *Dataset) []byte {
	e := &enc{}
	switch {
	case len(ds.Observations) == 1:
		encodeObservation(e, recObservation, ds.Observations[0])
	case len(ds.Revocations) == 1:
		encodeRevocation(e, ds.Revocations[0])
	case len(ds.ActiveObservations) == 1:
		encodeObservation(e, recActiveObservation, ds.ActiveObservations[0])
	case len(ds.ProbeReports) == 1:
		encodeProbeReport(e, ds.ProbeReports[0])
	case len(ds.Downgrades) == 1:
		encodeDowngrade(e, ds.Downgrades[0])
	case len(ds.OldVersions) == 1:
		encodeOldVersion(e, ds.OldVersions[0])
	case len(ds.Interceptions) == 1:
		encodeInterception(e, ds.Interceptions[0])
	case len(ds.Passthroughs) == 1:
		encodePassthrough(e, ds.Passthroughs[0])
	case len(ds.Degradations) == 1:
		encodeDegradation(e, ds.Degradations[0])
	case len(ds.TraceSpans) == 1:
		encodeTraceSpan(e, ds.TraceSpans[0])
	default:
		t.Fatalf("decodeInto accepted a record but holds %d", ds.Len())
	}
	return e.b
}

// FuzzDecodeRecord sends one record payload, of any kind, through
// (*Dataset).decodeInto on a shard of the kind that admits it. A
// rejection must wrap ErrCorrupt; an accepted record must be the only
// record decoded, and re-encode to bytes that decode to the same
// record.
func FuzzDecodeRecord(f *testing.F) {
	f.Add("", []byte{recDegradation, 7, 'p', 'a', 's', 's', 'i', 'v', 'e', 0})
	f.Add("2018-01", []byte{recRevocation, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, month string, payload []byte) {
		var k byte
		if len(payload) > 0 {
			k = payload[0]
		}
		sh := shardAdmitting(k, month)
		ds := &Dataset{}
		if err := ds.decodeInto(sh, payload); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decodeInto error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		enc := encodeOne(t, ds)
		again := &Dataset{}
		if err := again.decodeInto(sh, enc); err != nil {
			t.Fatalf("re-encoded record fails to decode: %v", err)
		}
		if !reflect.DeepEqual(again, ds) {
			t.Fatalf("record changes across a re-encode:\n got %+v\nwant %+v", again, ds)
		}
	})
}

// FuzzContentRangeStart parses a Content-Range header. A start it
// accepts must be non-negative, and the header rendered from it must
// parse back to the same start.
func FuzzContentRangeStart(f *testing.F) {
	for _, h := range []string{"bytes 0-20861/20862", "bytes 1024-2047/2048", " bytes 7-/8 ", "bytes -5/10", "bits 0-1/2", "bytes 00012-3/4"} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		n, ok := contentRangeStart(h)
		if !ok {
			if n != 0 {
				t.Fatalf("rejected %q but returned %d", h, n)
			}
			return
		}
		if n < 0 {
			t.Fatalf("accepted %q with negative start %d", h, n)
		}
		if again, ok := contentRangeStart("bytes " + strconv.FormatInt(n, 10) + "-"); !ok || again != n {
			t.Fatalf("start %d of %q does not survive a re-render (%d, %v)", n, h, again, ok)
		}
	})
}
