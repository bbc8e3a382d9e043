// Package wire implements the TLS wire format used by the IoTLS
// simulation: the record layer, alert messages, and the handshake
// messages (ClientHello, ServerHello, Certificate, Finished) together
// with the extension blocks that TLS fingerprinting inspects.
//
// The encoding follows RFC 5246/8446 framing: 5-byte record headers,
// 4-byte handshake headers, and 16-bit length-prefixed extension
// vectors. Certificates use the internal/certs encoding instead of
// ASN.1 DER; everything else is byte-compatible TLS layout so the
// decoders exercise realistic parsing paths (per the gopacket-style
// layered-decoding guidance).
package wire

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/ciphers"
)

// ContentType is the TLS record content type.
type ContentType uint8

// Record content types (RFC 5246 §6.2.1).
const (
	TypeChangeCipherSpec ContentType = 20
	TypeAlert            ContentType = 21
	TypeHandshake        ContentType = 22
	TypeApplicationData  ContentType = 23
)

// String implements fmt.Stringer.
func (t ContentType) String() string {
	switch t {
	case TypeChangeCipherSpec:
		return "change_cipher_spec"
	case TypeAlert:
		return "alert"
	case TypeHandshake:
		return "handshake"
	case TypeApplicationData:
		return "application_data"
	default:
		return fmt.Sprintf("content_type(%d)", uint8(t))
	}
}

// MaxRecordPayload is the maximum record payload length accepted
// (2^14 plaintext + 2048 expansion allowance, RFC 5246 §6.2.3).
const MaxRecordPayload = 1<<14 + 2048

// Record is one TLS record.
type Record struct {
	Type ContentType
	// Version is the record-layer legacy version field.
	Version ciphers.Version
	Payload []byte
}

// ErrRecordTooLarge is returned for records exceeding MaxRecordPayload.
var ErrRecordTooLarge = errors.New("wire: record payload exceeds maximum length")

// headerLen is the record header's size: type, version, length.
const headerLen = 5

// parseHeader decodes a record header: the record it opens, without its
// payload, and the payload's length.
func parseHeader(hdr []byte) (Record, int, error) {
	n := int(hdr[3])<<8 | int(hdr[4])
	if n > MaxRecordPayload {
		return Record{}, 0, ErrRecordTooLarge
	}
	return Record{Type: ContentType(hdr[0]), Version: ciphers.Version(uint16(hdr[1])<<8 | uint16(hdr[2]))}, n, nil
}

// WriteRecord frames a single record in one buffer and writes it in one
// Write: the transport sees whole records, never a lone header.
func WriteRecord(w io.Writer, rec Record) error {
	n := len(rec.Payload)
	if n > MaxRecordPayload {
		return ErrRecordTooLarge
	}
	b := appendHeader(make([]byte, 0, headerLen+n), rec.Type, rec.Version, n)
	_, err := w.Write(append(b, rec.Payload...))
	return err
}

// appendHeader appends the header of a record of type t at record
// version v with an n-byte payload to b.
func appendHeader(b []byte, t ContentType, v ciphers.Version, n int) []byte {
	return append(b, byte(t), byte(v>>8), byte(v), byte(n>>8), byte(n))
}

// ReadRecord reads a single framed record into a freshly allocated
// payload. io.EOF is returned unchanged when the stream ends cleanly at
// a record boundary; a stream ending inside a record is
// io.ErrUnexpectedEOF.
func ReadRecord(r io.Reader) (Record, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Record{}, err
	}
	rec, n, err := parseHeader(hdr[:])
	if err != nil {
		return Record{}, err
	}
	rec.Payload = make([]byte, n)
	if _, err := io.ReadFull(r, rec.Payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Record{}, err
	}
	return rec, nil
}

// Framer reassembles one direction of a TLS byte stream into records,
// whatever chunks the transport delivers: the push-style counterpart of
// ReadRecord, framing exactly the records ReadRecord reads from the
// concatenated chunks. Where ReadRecord would return ErrRecordTooLarge,
// the stream is poisoned for good: without a valid framing anchor
// nothing after the corruption can be trusted.
type Framer struct {
	buf      []byte
	poisoned bool
}

// Feed appends p and calls emit with each record it completes. The
// record's Payload is a view into the framer's buffer, valid only for
// the duration of the emit call: the parsers copy whatever they retain,
// so a byte-level observer consuming records synchronously avoids one
// payload copy per record. The unconsumed tail moves to the front of
// the buffer, so a stream of chunks reuses one buffer.
func (f *Framer) Feed(p []byte, emit func(Record)) {
	if f.poisoned {
		return
	}
	f.buf = append(f.buf, p...)
	off := 0
	for len(f.buf)-off >= headerLen {
		rec, n, err := parseHeader(f.buf[off:])
		if err != nil {
			f.buf = nil
			f.poisoned = true
			return
		}
		end := off + headerLen + n
		if len(f.buf) < end {
			break
		}
		rec.Payload = f.buf[off+headerLen : end : end]
		emit(rec)
		off = end
	}
	f.buf = f.buf[:copy(f.buf, f.buf[off:])]
}

// Poisoned reports whether the stream declared an impossible record
// length.
func (f *Framer) Poisoned() bool { return f.poisoned }
