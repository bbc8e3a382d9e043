package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"repro/internal/ciphers"
)

func TestRecordRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	rec := Record{Type: TypeHandshake, Version: ciphers.TLS12, Payload: []byte("hello")}
	if err := WriteRecord(&buf, rec); err != nil {
		t.Fatalf("WriteRecord: %v", err)
	}
	got, err := ReadRecord(&buf)
	if err != nil {
		t.Fatalf("ReadRecord: %v", err)
	}
	if got.Type != rec.Type || got.Version != rec.Version || !bytes.Equal(got.Payload, rec.Payload) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestRecordEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRecord(&buf, Record{Type: TypeAlert, Version: ciphers.TLS10}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecord(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Payload) != 0 {
		t.Fatalf("payload = %v, want empty", got.Payload)
	}
}

func TestRecordTooLarge(t *testing.T) {
	err := WriteRecord(io.Discard, Record{Type: TypeApplicationData, Payload: make([]byte, MaxRecordPayload+1)})
	if !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("err = %v, want ErrRecordTooLarge", err)
	}
}

func TestReadRecordOversizeHeader(t *testing.T) {
	// Header declares a length beyond the cap.
	hdr := []byte{byte(TypeHandshake), 0x03, 0x03, 0xff, 0xff}
	_, err := ReadRecord(bytes.NewReader(hdr))
	if !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("err = %v, want ErrRecordTooLarge", err)
	}
}

func TestReadRecordCleanEOF(t *testing.T) {
	_, err := ReadRecord(bytes.NewReader(nil))
	if err != io.EOF {
		t.Fatalf("err = %v, want io.EOF at record boundary", err)
	}
}

func TestReadRecordTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRecord(&buf, Record{Type: TypeHandshake, Version: ciphers.TLS12, Payload: []byte("data")}); err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < buf.Len(); cut++ {
		_, err := ReadRecord(bytes.NewReader(buf.Bytes()[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
		if err == io.EOF {
			t.Fatalf("truncation at %d returned clean EOF", cut)
		}
	}
}

func TestMultipleRecordsSequential(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		if err := WriteRecord(&buf, Record{Type: TypeApplicationData, Version: ciphers.TLS12, Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		rec, err := ReadRecord(&buf)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.Payload[0] != byte(i) {
			t.Fatalf("record %d payload = %v", i, rec.Payload)
		}
	}
	if _, err := ReadRecord(&buf); err != io.EOF {
		t.Fatalf("expected EOF after last record, got %v", err)
	}
}

// Property: any payload under the cap round-trips bit-exactly.
func TestRecordRoundTripProperty(t *testing.T) {
	f := func(typ uint8, payload []byte) bool {
		if len(payload) > MaxRecordPayload {
			payload = payload[:MaxRecordPayload]
		}
		var buf bytes.Buffer
		rec := Record{Type: ContentType(typ), Version: ciphers.TLS12, Payload: payload}
		if err := WriteRecord(&buf, rec); err != nil {
			return false
		}
		got, err := ReadRecord(&buf)
		return err == nil && got.Type == rec.Type && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestContentTypeStrings(t *testing.T) {
	cases := map[ContentType]string{
		TypeChangeCipherSpec: "change_cipher_spec",
		TypeAlert:            "alert",
		TypeHandshake:        "handshake",
		TypeApplicationData:  "application_data",
		ContentType(99):      "content_type(99)",
	}
	for ct, want := range cases {
		if got := ct.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", ct, got, want)
		}
	}
}

func TestAlertRoundTrip(t *testing.T) {
	a := Alert{Level: LevelFatal, Description: AlertUnknownCA}
	got, err := ParseAlert(a.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Fatalf("round trip = %+v, want %+v", got, a)
	}
	if _, err := ParseAlert([]byte{1}); err == nil {
		t.Error("short alert parsed")
	}
	if _, err := ParseAlert([]byte{1, 2, 3}); err == nil {
		t.Error("long alert parsed")
	}
}

func TestAlertError(t *testing.T) {
	a := Alert{Level: LevelFatal, Description: AlertDecryptError}
	if a.Error() != "tls: fatal alert: decrypt_error" {
		t.Fatalf("Error() = %q", a.Error())
	}
}

func TestAlertDescriptionNames(t *testing.T) {
	// The probe's side channel depends on these exact names.
	cases := map[AlertDescription]string{
		AlertUnknownCA:          "unknown_ca",
		AlertDecryptError:       "decrypt_error",
		AlertBadCertificate:     "bad_certificate",
		AlertCertificateUnknown: "certificate_unknown",
		AlertCloseNotify:        "close_notify",
		AlertHandshakeFailure:   "handshake_failure",
		AlertProtocolVersion:    "protocol_version",
		AlertCertificateExpired: "certificate_expired",
		AlertDescription(200):   "alert(200)",
	}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", d, got, want)
		}
	}
}

func TestWriteAlert(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAlert(&buf, ciphers.TLS12, Alert{LevelFatal, AlertUnknownCA}); err != nil {
		t.Fatal(err)
	}
	rec, err := ReadRecord(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Type != TypeAlert {
		t.Fatalf("record type = %v", rec.Type)
	}
	a, err := ParseAlert(rec.Payload)
	if err != nil || a.Description != AlertUnknownCA {
		t.Fatalf("alert = %+v, %v", a, err)
	}
}

func TestAlertLevelString(t *testing.T) {
	if LevelWarning.String() != "warning" || LevelFatal.String() != "fatal" {
		t.Fatal("level names wrong")
	}
	if AlertLevel(7).String() != "level(7)" {
		t.Fatal("unknown level name wrong")
	}
}

// feedAll drives the framer and collects emitted records, copying each
// transient payload view so assertions can outlive the emit call.
func feedAll(f *Framer, p []byte) []Record {
	var out []Record
	f.Feed(p, func(rec Record) {
		rec.Payload = append([]byte(nil), rec.Payload...)
		out = append(out, rec)
	})
	return out
}

func TestFramerFragmentation(t *testing.T) {
	// A record delivered byte by byte must still reassemble.
	var f Framer
	var buf bytes.Buffer
	WriteRecord(&buf, Record{Type: TypeHandshake, Version: ciphers.TLS12, Payload: []byte("hello world")})
	var got []Record
	for _, b := range buf.Bytes() {
		got = append(got, feedAll(&f, []byte{b})...)
	}
	if len(got) != 1 || string(got[0].Payload) != "hello world" || got[0].Version != ciphers.TLS12 {
		t.Fatalf("reassembly failed: %v", got)
	}
}

func TestFramerCoalesced(t *testing.T) {
	var buf bytes.Buffer
	WriteRecord(&buf, Record{Type: TypeAlert, Version: ciphers.TLS12, Payload: []byte{1, 2}})
	WriteRecord(&buf, Record{Type: TypeHandshake, Version: ciphers.TLS12, Payload: []byte{3}})
	var f Framer
	got := feedAll(&f, buf.Bytes())
	if len(got) != 2 || got[0].Type != TypeAlert || got[1].Type != TypeHandshake {
		t.Fatalf("coalesced parse = %v", got)
	}
}

func TestFramerCorruptStream(t *testing.T) {
	var f Framer
	// Length field beyond the cap poisons the direction.
	got := feedAll(&f, []byte{22, 3, 3, 0xff, 0xff, 0, 0})
	if len(got) != 0 || !f.Poisoned() {
		t.Fatalf("corrupt stream produced records %v, poisoned=%v", got, f.Poisoned())
	}
	if len(feedAll(&f, []byte{22, 3, 3, 0, 0})) != 0 {
		t.Fatal("poisoned framer kept parsing")
	}
}
