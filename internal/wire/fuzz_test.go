package wire

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/ciphers"
)

// Native fuzz targets for the decoders the gateway sniffer and the
// interception proxy feed with bytes off the wire. `go test` runs only
// the seed corpus: the f.Add seeds below plus testdata/fuzz/<target>/,
// which holds records captured from a full study (clean and under the
// aggressive fault profile, truncated streams included). Fuzz one
// target with, e.g.,
//
//	go test -run '^$' -fuzz FuzzReadRecord ./internal/wire
//
// and commit any crasher it writes under testdata/fuzz/ with the fix.

// FuzzReadRecord reads records until the stream fails. Every record
// returned must respect MaxRecordPayload and re-frame to exactly the
// bytes it was read from.
func FuzzReadRecord(f *testing.F) {
	var buf bytes.Buffer
	WriteRecord(&buf, Record{Type: TypeAlert, Version: ciphers.TLS12, Payload: Alert{Level: LevelFatal, Description: AlertUnknownCA}.Marshal()})
	f.Add(buf.Bytes())
	f.Add([]byte{22, 3, 3, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			start := len(data) - r.Len()
			rec, err := ReadRecord(r)
			if err != nil {
				return
			}
			if len(rec.Payload) > MaxRecordPayload {
				t.Fatalf("record payload of %d bytes exceeds MaxRecordPayload", len(rec.Payload))
			}
			var out bytes.Buffer
			if err := WriteRecord(&out, rec); err != nil {
				t.Fatalf("WriteRecord of a decoded record: %v", err)
			}
			if read := data[start : len(data)-r.Len()]; !bytes.Equal(out.Bytes(), read) {
				t.Fatalf("record re-frames to %x, read from %x", out.Bytes(), read)
			}
		}
	})
}

// FuzzFramer feeds the input to a Framer in chunks whose sizes cuts
// gives, cycled (a zero is an empty feed), and checks it against
// repeated ReadRecord calls on the whole input: the framer emits exactly
// the records ReadRecord returns, and is poisoned from the feed that
// completes the header ReadRecord rejects with ErrRecordTooLarge, and
// not before. Its seeds are the FuzzReadRecord corpus, each with a
// chunking.
func FuzzFramer(f *testing.F) {
	var buf bytes.Buffer
	WriteRecord(&buf, Record{Type: TypeAlert, Version: ciphers.TLS12, Payload: Alert{Level: LevelFatal, Description: AlertUnknownCA}.Marshal()})
	f.Add(buf.Bytes(), []byte{1})
	f.Add([]byte{22, 3, 3, 0, 1, 7, 22, 3, 3, 0xff, 0xff}, []byte{3, 0, 4})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		var want []Record
		poisonAt := -1 // the input offset just past the rejected header
		r := bytes.NewReader(data)
		for {
			start := len(data) - r.Len()
			rec, err := ReadRecord(r)
			if errors.Is(err, ErrRecordTooLarge) {
				poisonAt = start + headerLen
			}
			if err != nil {
				break
			}
			want = append(want, rec)
		}

		var fr Framer
		var got []Record
		emit := func(rec Record) {
			rec.Payload = append([]byte(nil), rec.Payload...)
			got = append(got, rec)
		}
		for i, pos := 0, 0; pos < len(data); i++ {
			n := len(data) - pos
			if len(cuts) > 0 && i < len(data)+len(cuts) {
				n = min(n, int(cuts[i%len(cuts)]))
			}
			fr.Feed(data[pos:pos+n], emit)
			pos += n
			if want := poisonAt >= 0 && pos >= poisonAt; fr.Poisoned() != want {
				t.Fatalf("after %d of %d bytes: poisoned=%v, want %v (ReadRecord rejects the header ending at %d)", pos, len(data), fr.Poisoned(), want, poisonAt)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("framer emitted %d records, ReadRecord read %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Type != want[i].Type || got[i].Version != want[i].Version || !bytes.Equal(got[i].Payload, want[i].Payload) {
				t.Fatalf("record %d: framer emitted %+v, ReadRecord read %+v", i, got[i], want[i])
			}
		}
	})
}

// FuzzParseClientHello parses a ClientHello body and, when it decodes,
// runs every accessor the capture and fingerprint layers call, then
// checks that re-encoding is stable: the marshalled hello parses back
// to the same bytes.
func FuzzParseClientHello(f *testing.F) {
	f.Add((&ClientHello{LegacyVersion: ciphers.TLS12, CipherSuites: []ciphers.Suite{ciphers.TLS_RSA_WITH_AES_128_CBC_SHA},
		CompressionMethods: []byte{0}, Extensions: []Extension{SNIExtension("cloud.example.com")}}).Marshal())
	f.Fuzz(func(t *testing.T, body []byte) {
		ch, err := ParseClientHello(body)
		if err != nil {
			return
		}
		ch.SNI()
		ch.MaxVersion()
		ch.SignatureAlgorithms()
		ch.SupportedGroups()
		ch.ECPointFormats()
		ch.RequestsOCSPStaple()
		ch.ExtensionTypes()
		enc := ch.Marshal()
		again, err := ParseClientHello(enc)
		if err != nil {
			t.Fatalf("re-encoded ClientHello fails to parse: %v", err)
		}
		if !bytes.Equal(again.Marshal(), enc) {
			t.Fatalf("ClientHello encoding is unstable: %x then %x", enc, again.Marshal())
		}
	})
}

// FuzzParseAlert parses an alert body; one that decodes must marshal
// back to the input and render without panicking.
func FuzzParseAlert(f *testing.F) {
	f.Add([]byte{2, 48})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		a, err := ParseAlert(body)
		if err != nil {
			return
		}
		if !bytes.Equal(a.Marshal(), body) {
			t.Fatalf("alert %x marshals to %x", body, a.Marshal())
		}
		_ = a.Error()
	})
}
