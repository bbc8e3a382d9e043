package wire

import (
	"errors"
	"fmt"

	"repro/internal/ciphers"
)

// ExtensionType identifies a TLS extension.
type ExtensionType uint16

// Extension types used by the simulated clients and the fingerprinter.
const (
	ExtServerName          ExtensionType = 0
	ExtStatusRequest       ExtensionType = 5 // OCSP stapling request
	ExtSupportedGroups     ExtensionType = 10
	ExtECPointFormats      ExtensionType = 11
	ExtSignatureAlgorithms ExtensionType = 13
	ExtALPN                ExtensionType = 16
	ExtSessionTicket       ExtensionType = 35
	ExtSupportedVersions   ExtensionType = 43
	ExtKeyShare            ExtensionType = 51
	ExtRenegotiationInfo   ExtensionType = 0xff01
)

// String implements fmt.Stringer.
func (t ExtensionType) String() string {
	switch t {
	case ExtServerName:
		return "server_name"
	case ExtStatusRequest:
		return "status_request"
	case ExtSupportedGroups:
		return "supported_groups"
	case ExtECPointFormats:
		return "ec_point_formats"
	case ExtSignatureAlgorithms:
		return "signature_algorithms"
	case ExtALPN:
		return "alpn"
	case ExtSessionTicket:
		return "session_ticket"
	case ExtSupportedVersions:
		return "supported_versions"
	case ExtKeyShare:
		return "key_share"
	case ExtRenegotiationInfo:
		return "renegotiation_info"
	default:
		return fmt.Sprintf("ext(%d)", uint16(t))
	}
}

// Extension is a raw extension block: a type plus opaque data.
type Extension struct {
	Type ExtensionType
	Data []byte
}

// errExtensionSyntax reports malformed extension payloads.
var errExtensionSyntax = errors.New("wire: malformed extension payload")

// --- builders ----------------------------------------------------------

// SNIExtension builds a server_name extension for one DNS hostname.
func SNIExtension(host string) Extension {
	b := newBuilder()
	b.vec16(func(b *builder) { // server_name_list
		b.u8(0) // name_type host_name
		b.vec16(func(b *builder) { b.raw([]byte(host)) })
	})
	return Extension{Type: ExtServerName, Data: b.bytes()}
}

// SupportedVersionsExtension builds a supported_versions extension
// (client form: 8-bit length-prefixed version list, highest first).
func SupportedVersionsExtension(versions []ciphers.Version) Extension {
	b := newBuilder()
	b.vec8(func(b *builder) {
		for _, v := range versions {
			b.u16(uint16(v))
		}
	})
	return Extension{Type: ExtSupportedVersions, Data: b.bytes()}
}

// SignatureAlgorithmsExtension builds a signature_algorithms extension.
func SignatureAlgorithmsExtension(algs []ciphers.SignatureAlgorithm) Extension {
	b := newBuilder()
	b.vec16(func(b *builder) {
		for _, a := range algs {
			b.u16(uint16(a))
		}
	})
	return Extension{Type: ExtSignatureAlgorithms, Data: b.bytes()}
}

// SupportedGroupsExtension builds a supported_groups extension.
func SupportedGroupsExtension(groups []uint16) Extension {
	b := newBuilder()
	b.vec16(func(b *builder) {
		for _, g := range groups {
			b.u16(g)
		}
	})
	return Extension{Type: ExtSupportedGroups, Data: b.bytes()}
}

// ECPointFormatsExtension builds an ec_point_formats extension.
func ECPointFormatsExtension(formats []uint8) Extension {
	b := newBuilder()
	b.vec8(func(b *builder) { b.raw(formats) })
	return Extension{Type: ExtECPointFormats, Data: b.bytes()}
}

// StatusRequestExtension builds a status_request (OCSP) extension.
func StatusRequestExtension() Extension {
	// status_type=ocsp(1), empty responder list, empty request extensions.
	return Extension{Type: ExtStatusRequest, Data: []byte{1, 0, 0, 0, 0}}
}

// ALPNExtension builds an application_layer_protocol_negotiation
// extension from protocol names.
func ALPNExtension(protos []string) Extension {
	b := newBuilder()
	b.vec16(func(b *builder) {
		for _, p := range protos {
			b.vec8(func(b *builder) { b.raw([]byte(p)) })
		}
	})
	return Extension{Type: ExtALPN, Data: b.bytes()}
}

// SessionTicketExtension builds an (empty) session_ticket extension.
func SessionTicketExtension() Extension {
	return Extension{Type: ExtSessionTicket, Data: nil}
}

// RenegotiationInfoExtension builds an empty renegotiation_info extension.
func RenegotiationInfoExtension() Extension {
	return Extension{Type: ExtRenegotiationInfo, Data: []byte{0}}
}

// --- accessors ---------------------------------------------------------

// findExtension returns the first extension of type t.
func findExtension(exts []Extension, t ExtensionType) ([]byte, bool) {
	for _, e := range exts {
		if e.Type == t {
			return e.Data, true
		}
	}
	return nil, false
}

// ParseSNI extracts the hostname from a server_name extension body.
func ParseSNI(data []byte) (string, error) {
	p := parser{data: data}
	list := p.vec16()
	if p.err != nil {
		return "", errExtensionSyntax
	}
	q := parser{data: list}
	nameType := q.u8()
	host := q.vec16()
	if q.err != nil || nameType != 0 {
		return "", errExtensionSyntax
	}
	return string(host), nil
}

// ParseSupportedVersions extracts the version list from a
// supported_versions extension body (client form).
func ParseSupportedVersions(data []byte) ([]ciphers.Version, error) {
	p := parser{data: data}
	body := p.vec8()
	if p.err != nil || len(body)%2 != 0 {
		return nil, errExtensionSyntax
	}
	var out []ciphers.Version
	for i := 0; i+1 < len(body); i += 2 {
		out = append(out, ciphers.Version(uint16(body[i])<<8|uint16(body[i+1])))
	}
	return out, nil
}

// ParseSignatureAlgorithms extracts the algorithm list from a
// signature_algorithms extension body.
func ParseSignatureAlgorithms(data []byte) ([]ciphers.SignatureAlgorithm, error) {
	p := parser{data: data}
	body := p.vec16()
	if p.err != nil || len(body)%2 != 0 {
		return nil, errExtensionSyntax
	}
	var out []ciphers.SignatureAlgorithm
	for i := 0; i+1 < len(body); i += 2 {
		out = append(out, ciphers.SignatureAlgorithm(uint16(body[i])<<8|uint16(body[i+1])))
	}
	return out, nil
}

// ParseSupportedGroups extracts the group list from a supported_groups
// extension body.
func ParseSupportedGroups(data []byte) ([]uint16, error) {
	p := parser{data: data}
	body := p.vec16()
	if p.err != nil || len(body)%2 != 0 {
		return nil, errExtensionSyntax
	}
	var out []uint16
	for i := 0; i+1 < len(body); i += 2 {
		out = append(out, uint16(body[i])<<8|uint16(body[i+1]))
	}
	return out, nil
}

// ParseECPointFormats extracts the format list from an ec_point_formats
// extension body.
func ParseECPointFormats(data []byte) ([]uint8, error) {
	p := parser{data: data}
	body := p.vec8()
	if p.err != nil {
		return nil, errExtensionSyntax
	}
	return append([]uint8(nil), body...), nil
}

// --- builder / parser helpers ------------------------------------------

// builder assembles length-prefixed TLS vectors.
type builder struct {
	buf []byte
}

func newBuilder() *builder { return &builder{} }

func (b *builder) bytes() []byte { return b.buf }

func (b *builder) u8(v uint8)   { b.buf = append(b.buf, v) }
func (b *builder) u16(v uint16) { b.buf = append(b.buf, byte(v>>8), byte(v)) }
func (b *builder) u24(v int) {
	b.buf = append(b.buf, byte(v>>16), byte(v>>8), byte(v))
}
func (b *builder) raw(p []byte) { b.buf = append(b.buf, p...) }

// vec8 appends an 8-bit length-prefixed vector built by fn.
func (b *builder) vec8(fn func(*builder)) {
	mark := len(b.buf)
	b.u8(0)
	fn(b)
	n := len(b.buf) - mark - 1
	if n > 0xff {
		panic("wire: vec8 overflow")
	}
	b.buf[mark] = byte(n)
}

// vec16 appends a 16-bit length-prefixed vector built by fn.
func (b *builder) vec16(fn func(*builder)) {
	mark := len(b.buf)
	b.u16(0)
	fn(b)
	n := len(b.buf) - mark - 2
	if n > 0xffff {
		panic("wire: vec16 overflow")
	}
	b.buf[mark] = byte(n >> 8)
	b.buf[mark+1] = byte(n)
}

// vec24 appends a 24-bit length-prefixed vector built by fn.
func (b *builder) vec24(fn func(*builder)) {
	mark := len(b.buf)
	b.u24(0)
	fn(b)
	n := len(b.buf) - mark - 3
	if n > 0xffffff {
		panic("wire: vec24 overflow")
	}
	b.buf[mark] = byte(n >> 16)
	b.buf[mark+1] = byte(n >> 8)
	b.buf[mark+2] = byte(n)
}

// parser consumes length-prefixed TLS vectors. After any failure err is
// set and all further reads return zero values.
type parser struct {
	data []byte
	pos  int
	err  error
}

func (p *parser) fail() {
	if p.err == nil {
		p.err = errExtensionSyntax
	}
}

func (p *parser) empty() bool { return p.pos >= len(p.data) }

func (p *parser) u8() uint8 {
	if p.err != nil || p.pos >= len(p.data) {
		p.fail()
		return 0
	}
	v := p.data[p.pos]
	p.pos++
	return v
}

func (p *parser) u16() uint16 {
	hi, lo := p.u8(), p.u8()
	return uint16(hi)<<8 | uint16(lo)
}

func (p *parser) u24() int {
	a, b, c := p.u8(), p.u8(), p.u8()
	return int(a)<<16 | int(b)<<8 | int(c)
}

func (p *parser) take(n int) []byte {
	if p.err != nil || n < 0 || p.pos+n > len(p.data) {
		p.fail()
		return nil
	}
	out := p.data[p.pos : p.pos+n]
	p.pos += n
	return out
}

func (p *parser) vec8() []byte  { return p.take(int(p.u8())) }
func (p *parser) vec16() []byte { return p.take(int(p.u16())) }
func (p *parser) vec24() []byte { return p.take(p.u24()) }

// marshalExtensions appends the 16-bit-framed extensions block.
func marshalExtensions(b *builder, exts []Extension) {
	if len(exts) == 0 {
		return // omit the block entirely, as old stacks do
	}
	b.vec16(func(b *builder) {
		for _, e := range exts {
			b.u16(uint16(e.Type))
			b.vec16(func(b *builder) { b.raw(e.Data) })
		}
	})
}

// parseExtensions parses an optional extensions block from the remainder
// of p.
func parseExtensions(p *parser) []Extension {
	if p.empty() || p.err != nil {
		return nil
	}
	block := p.vec16()
	if p.err != nil {
		return nil
	}
	// One copy of the block backs every extension's Data; each Data is
	// capped at its own end, so appending to one never clobbers the next.
	q := parser{data: append([]byte(nil), block...)}
	var exts []Extension
	for !q.empty() {
		typ := q.u16()
		data := q.vec16()
		if q.err != nil {
			p.fail()
			return nil
		}
		exts = append(exts, Extension{Type: ExtensionType(typ), Data: data[:len(data):len(data)]})
	}
	return exts
}
