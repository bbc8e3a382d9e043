package wire

import (
	"bytes"
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
