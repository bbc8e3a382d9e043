// Package certs implements the certificate substrate for the IoTLS
// simulation: a from-scratch certificate format with a deterministic
// binary encoding, Ed25519 signatures, CA hierarchies, chain building,
// and the full validation pipeline the paper's attacks exercise
// (signature, expiry, RFC 2818 hostname matching, and the
// BasicConstraints extension from RFC 5280). It also owns the
// possession proof a server makes over each handshake transcript
// (proof.go), so the handshake engines call no Ed25519 primitive.
//
// The format deliberately mirrors the X.509 fields the study depends on
// while replacing ASN.1 DER with a simple length-prefixed encoding. The
// critical property for the paper's root-store probing technique is
// preserved exactly: a "spoofed" CA certificate carries the same
// Subject Name, Issuer Name and Serial Number as a trusted root but a
// different key, so chain building succeeds while signature
// verification fails — yielding a different alert than an unknown CA.
package certs

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"crypto/sha512"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Name is the distinguished name of a certificate subject or issuer.
type Name struct {
	CommonName   string
	Organization string
	Country      string
}

// String renders the name in the conventional slash form.
func (n Name) String() string {
	var b strings.Builder
	b.Grow(len("/C=/O=/CN=") + len(n.Country) + len(n.Organization) + len(n.CommonName))
	b.WriteString("/C=")
	b.WriteString(n.Country)
	b.WriteString("/O=")
	b.WriteString(n.Organization)
	b.WriteString("/CN=")
	b.WriteString(n.CommonName)
	return b.String()
}

// Equal reports whether two names match exactly (the comparison chain
// building uses, as in RFC 5280 §7.1 byte-for-byte matching).
func (n Name) Equal(o Name) bool {
	return n.CommonName == o.CommonName && n.Organization == o.Organization && n.Country == o.Country
}

// Certificate is a parsed certificate. All fields are part of the signed
// (to-be-signed) encoding except Signature.
type Certificate struct {
	SerialNumber uint64
	Subject      Name
	Issuer       Name
	NotBefore    time.Time
	NotAfter     time.Time

	// IsCA and MaxPathLen model the BasicConstraints extension.
	// BasicConstraintsValid records whether the extension is present;
	// certificates lacking it must not act as CAs.
	IsCA                  bool
	MaxPathLen            int
	BasicConstraintsValid bool

	// DNSNames models the SubjectAltName extension. Hostname
	// verification considers these plus the Subject CommonName.
	DNSNames []string

	// Revocation endpoints (Table 8): URLs a validating client may
	// contact, and the Must-Staple marker.
	OCSPServer string
	CRLServer  string
	MustStaple bool

	PublicKey ed25519.PublicKey
	Signature []byte

	// enc caches the full encoding and tbs its to-be-signed prefix;
	// self guards both: the constructors (NewRootCA, Issue, Spoof,
	// Parse) fill them, after which the certificate is immutable and
	// the caches are safe to share across goroutines. The caches are
	// honoured only when self still points at the certificate itself,
	// so a shallow copy — which the corruption tests mutate
	// field-by-field — re-encodes from its live fields instead of
	// serving stale bytes.
	enc  []byte
	tbs  []byte
	self *Certificate

	// fingerprint, subjectKey and issuerStr cache the derived identity
	// strings under the same self-guard as enc: these sit on every
	// chain-verification and root-store-lookup hot path, and
	// recomputing them (a SHA-256 plus several formatted strings per
	// call) dominated the study engine's allocation profile.
	fingerprint string
	subjectKey  string
	issuerStr   string

	// sigMemo caches CheckSignatureFrom outcomes per parent
	// certificate. Signature verification is a pure function of two
	// immutable (sealed) certificates, so the memo is sound; like the
	// other caches it is only consulted when self == c. Keys are the
	// parent's fingerprint, which covers its key: parents rebuilt with
	// the same bytes (every study builds its own CA universe) share an
	// entry instead of pinning one per copy. Held by pointer (allocated
	// in seal) so a shallow certificate copy — which the corruption
	// tests make deliberately — copies a reference, not the map's
	// internal locks.
	sigMemo *sync.Map // parent fingerprint -> error
}

// Fingerprint returns the SHA-256 hash of the full certificate encoding,
// rendered as hex. It identifies a certificate uniquely, including its key.
func (c *Certificate) Fingerprint() string {
	if c.fingerprint != "" && c.self == c {
		return c.fingerprint
	}
	sum := sha256.Sum256(c.encoding())
	return hex.EncodeToString(sum[:])
}

// SubjectKey returns the lookup key used by root-store indexes: the
// subject name plus serial number. Spoofed certificates share this key
// with the certificate they imitate even though their Fingerprint differs.
func (c *Certificate) SubjectKey() string {
	if c.subjectKey != "" && c.self == c {
		return c.subjectKey
	}
	return subjectKeyOf(c.Subject, c.SerialNumber)
}

func subjectKeyOf(subject Name, serial uint64) string {
	return subject.String() + "#" + strconv.FormatUint(serial, 10)
}

// issuerString returns Issuer.String(), cached on sealed certificates;
// it is the chain-building lookup key and runs once per link per
// verification walk.
func (c *Certificate) issuerString() string {
	if c.issuerStr != "" && c.self == c {
		return c.issuerStr
	}
	return c.Issuer.String()
}

// seal finalises a constructed (or parsed) certificate whose full
// encoding is enc: it records the self-guard, keeps enc, and
// precomputes the derived identity strings so the hot paths never
// re-derive them. Callers must have filled every signed field and the
// Signature first, and must not modify enc afterwards.
func (c *Certificate) seal(enc []byte) {
	n := len(enc) - 2 - len(c.Signature)
	c.enc, c.tbs = enc, enc[:n:n]
	c.self = c
	c.sigMemo = &sync.Map{}
	sum := sha256.Sum256(enc)
	c.fingerprint = hex.EncodeToString(sum[:])
	c.subjectKey = subjectKeyOf(c.Subject, c.SerialNumber)
	c.issuerStr = c.Issuer.String()
}

// signAndSeal signs the certificate's live fields with key and seals it.
func (c *Certificate) signAndSeal(key ed25519.PrivateKey) {
	tbs := c.encodeTBS()
	c.Signature = ed25519.Sign(key, tbs)
	c.seal(withSignature(tbs, c.Signature))
}

// SelfSigned reports whether subject and issuer match (the structural
// definition of a root certificate).
func (c *Certificate) SelfSigned() bool { return c.Subject.Equal(c.Issuer) }

// ValidAt reports whether t falls within the certificate validity window.
func (c *Certificate) ValidAt(t time.Time) bool {
	return !t.Before(c.NotBefore) && !t.After(c.NotAfter)
}

// CheckSignatureFrom verifies that parent's key signed c. The outcome
// is memoized per (c, parent fingerprint) when both certificates are
// sealed: verification is a pure function of two immutable inputs, and
// the study re-validates the same links on every handshake, which
// ParseChain's interning turns into the same c.
func (c *Certificate) CheckSignatureFrom(parent *Certificate) error {
	memoizable := c.self == c && parent.self == parent && c.sigMemo != nil
	if memoizable {
		if v, ok := c.sigMemo.Load(parent.fingerprint); ok {
			err, _ := v.(error)
			return err
		}
	}
	err := c.checkSignatureFrom(parent)
	if memoizable {
		c.sigMemo.Store(parent.fingerprint, err)
	}
	return err
}

func (c *Certificate) checkSignatureFrom(parent *Certificate) error {
	if len(parent.PublicKey) != ed25519.PublicKeySize {
		return fmt.Errorf("certs: parent %s has invalid public key", parent.Subject)
	}
	if !ed25519.Verify(parent.PublicKey, c.marshalTBS(), c.Signature) {
		return ErrSignature
	}
	return nil
}

// VerifyHostname reports whether the certificate is valid for host,
// following RFC 2818: SubjectAltName DNS entries take precedence; the
// Subject CommonName is used as a fallback when no SAN is present.
// Wildcards match exactly one leftmost label.
func (c *Certificate) VerifyHostname(host string) error {
	patterns := c.DNSNames
	if len(patterns) == 0 && c.Subject.CommonName != "" {
		patterns = []string{c.Subject.CommonName}
	}
	for _, p := range patterns {
		if matchHostname(p, host) {
			return nil
		}
	}
	return HostnameError{Certificate: c, Host: host}
}

// matchHostname implements case-insensitive DNS name matching with
// single-label leftmost wildcards.
func matchHostname(pattern, host string) bool {
	p := toLowerASCII(pattern)
	h := toLowerASCII(host)
	if p == "" || h == "" {
		return false
	}
	if p == h {
		return true
	}
	if len(p) > 2 && p[0] == '*' && p[1] == '.' {
		// "*.example.com" matches "a.example.com" but not
		// "example.com" or "a.b.example.com".
		suffix := p[1:] // ".example.com"
		if len(h) > len(suffix) && h[len(h)-len(suffix):] == suffix {
			firstLabel := h[:len(h)-len(suffix)]
			return !contains(firstLabel, '.')
		}
	}
	return false
}

func toLowerASCII(s string) string {
	b := []byte(s)
	changed := false
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + ('a' - 'A')
			changed = true
		}
	}
	if !changed {
		return s
	}
	return string(b)
}

func contains(s string, c byte) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == c {
			return true
		}
	}
	return false
}

// KeyPair couples a certificate with its private key, as held by a CA or
// a TLS server.
type KeyPair struct {
	Cert *Certificate
	Key  ed25519.PrivateKey

	// proofKey is the MAC key Prove uses, shared by every copy of the
	// pair. Only NewRootCA, Issue and Spoof set it, from the same seed
	// as Key; a hand-built pair has none and cannot prove possession.
	proofKey *[sha512.Size]byte
}

// Template carries the variable fields when issuing a certificate.
type Template struct {
	SerialNumber uint64
	Subject      Name
	NotBefore    time.Time
	NotAfter     time.Time
	IsCA         bool
	MaxPathLen   int
	// OmitBasicConstraints issues a certificate without the
	// BasicConstraints extension, which the InvalidBasicConstraints
	// attack exploits: a leaf-like certificate misused as a CA.
	OmitBasicConstraints bool
	DNSNames             []string
	OCSPServer           string
	CRLServer            string
	MustStaple           bool
}

// namedKey is the key material derived from one seed string.
type namedKey struct {
	pub   ed25519.PublicKey
	priv  ed25519.PrivateKey
	proof *[sha512.Size]byte
}

// keyCap bounds the derived-key table; when it is full, the table
// starts over. Seeds name roots, hosts and spoof targets, never
// connections: the 40-device catalog study derives keys from 872
// distinct seeds, and a second study in the same process reuses them.
const keyCap = 1 << 13

// derivedKeys maps a seed to the key material deterministicKey derived
// from it. It is process-wide on purpose: derivation is a pure function
// of the seed, and the study re-derives the same seeds many times (each
// MITM proxy forges the same per-host leaves under every spoofed root),
// so sharing the result across studies changes nothing but cost. The
// slices it hands out are never modified.
var derivedKeys = struct {
	sync.Mutex
	m map[string]namedKey
}{m: make(map[string]namedKey)}

// deterministicKey derives an Ed25519 key pair and its proof key from a
// seed string. The simulation uses named seeds so that every run
// produces identical PKI material, keeping all experiments
// reproducible.
func deterministicKey(seed string) namedKey {
	derivedKeys.Lock()
	k, ok := derivedKeys.m[seed]
	derivedKeys.Unlock()
	if ok {
		return k
	}
	sum := sha256.Sum256([]byte("iotls-key:" + seed))
	k.priv = ed25519.NewKeyFromSeed(sum[:])
	k.pub = k.priv.Public().(ed25519.PublicKey)
	proof := proofKeyOf(k.pub)
	k.proof = &proof
	derivedKeys.Lock()
	defer derivedKeys.Unlock()
	if prev, ok := derivedKeys.m[seed]; ok {
		return prev // a concurrent derivation of the same seed won
	}
	if len(derivedKeys.m) >= keyCap {
		clear(derivedKeys.m)
	}
	derivedKeys.m[seed] = k
	return k
}

// NewRootCA creates a self-signed root CA. keySeed determines the key
// deterministically; distinct seeds yield distinct keys.
func NewRootCA(subject Name, serial uint64, notBefore, notAfter time.Time, keySeed string) KeyPair {
	k := deterministicKey(keySeed)
	cert := &Certificate{
		SerialNumber:          serial,
		Subject:               subject,
		Issuer:                subject,
		NotBefore:             notBefore,
		NotAfter:              notAfter,
		IsCA:                  true,
		MaxPathLen:            -1,
		BasicConstraintsValid: true,
		PublicKey:             k.pub,
	}
	cert.signAndSeal(k.priv)
	return KeyPair{Cert: cert, Key: k.priv, proofKey: k.proof}
}

// Issue creates a certificate from tmpl signed by the issuer pair.
// keySeed determines the new certificate's key.
func (issuer KeyPair) Issue(tmpl Template, keySeed string) KeyPair {
	k := deterministicKey(keySeed)
	cert := &Certificate{
		SerialNumber:          tmpl.SerialNumber,
		Subject:               tmpl.Subject,
		Issuer:                issuer.Cert.Subject,
		NotBefore:             tmpl.NotBefore,
		NotAfter:              tmpl.NotAfter,
		IsCA:                  tmpl.IsCA,
		MaxPathLen:            tmpl.MaxPathLen,
		BasicConstraintsValid: !tmpl.OmitBasicConstraints,
		DNSNames:              append([]string(nil), tmpl.DNSNames...),
		OCSPServer:            tmpl.OCSPServer,
		CRLServer:             tmpl.CRLServer,
		MustStaple:            tmpl.MustStaple,
		PublicKey:             k.pub,
	}
	cert.signAndSeal(issuer.Key)
	return KeyPair{Cert: cert, Key: k.priv, proofKey: k.proof}
}

// Spoof builds a self-signed certificate imitating target: identical
// Subject Name, Issuer Name and Serial Number, but a fresh key derived
// from keySeed. This is the probe certificate from §4.2 of the paper —
// chain building against a root store that trusts target will find a
// matching issuer entry, but signature verification must fail.
func Spoof(target *Certificate, keySeed string) KeyPair {
	k := deterministicKey(keySeed)
	cert := &Certificate{
		SerialNumber:          target.SerialNumber,
		Subject:               target.Subject,
		Issuer:                target.Issuer,
		NotBefore:             target.NotBefore,
		NotAfter:              target.NotAfter,
		IsCA:                  true,
		MaxPathLen:            -1,
		BasicConstraintsValid: true,
		PublicKey:             k.pub,
	}
	cert.signAndSeal(k.priv)
	return KeyPair{Cert: cert, Key: k.priv, proofKey: k.proof}
}

// --- deterministic binary encoding -----------------------------------

const encodingVersion = 1

// Marshal serialises the certificate, signature included. The result
// is the caller's to modify.
func (c *Certificate) Marshal() []byte {
	return append([]byte(nil), c.encoding()...)
}

// encoding returns the full encoding, cached on sealed certificates.
// Callers must not modify the returned slice.
func (c *Certificate) encoding() []byte {
	if c.enc != nil && c.self == c {
		return c.enc
	}
	return withSignature(c.encodeTBS(), c.Signature)
}

// marshalTBS returns the to-be-signed encoding, cached on sealed
// certificates. Callers must not modify the returned slice.
func (c *Certificate) marshalTBS() []byte {
	if c.tbs != nil && c.self == c {
		return c.tbs
	}
	return c.encodeTBS()
}

// withSignature appends the signature field to a to-be-signed encoding,
// giving the full encoding.
func withSignature(tbs, sig []byte) []byte {
	buf := bytes.NewBuffer(make([]byte, 0, len(tbs)+2+len(sig)))
	buf.Write(tbs)
	writeBytes(buf, sig)
	return buf.Bytes()
}

// encodeTBS serialises the to-be-signed portion from the live fields.
func (c *Certificate) encodeTBS() []byte {
	var buf bytes.Buffer
	buf.WriteByte(encodingVersion)
	writeUint64(&buf, c.SerialNumber)
	writeName(&buf, c.Subject)
	writeName(&buf, c.Issuer)
	writeUint64(&buf, uint64(c.NotBefore.UTC().Unix()))
	writeUint64(&buf, uint64(c.NotAfter.UTC().Unix()))
	writeBool(&buf, c.BasicConstraintsValid)
	writeBool(&buf, c.IsCA)
	writeUint64(&buf, uint64(int64(c.MaxPathLen)))
	writeUint16(&buf, uint16(len(c.DNSNames)))
	for _, d := range c.DNSNames {
		writeString(&buf, d)
	}
	writeString(&buf, c.OCSPServer)
	writeString(&buf, c.CRLServer)
	writeBool(&buf, c.MustStaple)
	writeBytes(&buf, c.PublicKey)
	return buf.Bytes()
}

// Parse decodes a certificate produced by Marshal. The result does not
// share memory with data.
func Parse(data []byte) (*Certificate, error) {
	data = append([]byte(nil), data...)
	r := &reader{data: data}
	v := r.byte()
	if r.err == nil && v != encodingVersion {
		return nil, fmt.Errorf("certs: unsupported encoding version %d", v)
	}
	c := &Certificate{}
	c.SerialNumber = r.uint64()
	c.Subject = r.name()
	c.Issuer = r.name()
	c.NotBefore = time.Unix(int64(r.uint64()), 0).UTC()
	c.NotAfter = time.Unix(int64(r.uint64()), 0).UTC()
	c.BasicConstraintsValid = r.bool()
	c.IsCA = r.bool()
	c.MaxPathLen = int(int64(r.uint64()))
	n := int(r.uint16())
	if r.err == nil && n > 64 {
		return nil, fmt.Errorf("certs: too many DNS names (%d)", n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		c.DNSNames = append(c.DNSNames, r.string())
	}
	c.OCSPServer = r.string()
	c.CRLServer = r.string()
	c.MustStaple = r.bool()
	c.PublicKey = ed25519.PublicKey(r.bytes())
	c.Signature = r.bytes()
	if r.err != nil {
		return nil, fmt.Errorf("certs: parse: %w", r.err)
	}
	if r.pos != len(r.data) {
		return nil, fmt.Errorf("certs: %d trailing bytes", len(r.data)-r.pos)
	}
	// The wire bytes are the canonical encoding: everything before the
	// signature's length prefix is the TBS section.
	c.seal(data)
	return c, nil
}

// MarshalChain serialises a certificate chain, leaf first, in the TLS
// Certificate-message layout (per-certificate 24-bit length prefixes).
func MarshalChain(chain []*Certificate) []byte {
	n := 0
	for _, c := range chain {
		n += 3 + len(c.encoding())
	}
	buf := bytes.NewBuffer(make([]byte, 0, n))
	for _, c := range chain {
		enc := c.encoding()
		buf.WriteByte(byte(len(enc) >> 16))
		buf.WriteByte(byte(len(enc) >> 8))
		buf.WriteByte(byte(len(enc)))
		buf.Write(enc)
	}
	return buf.Bytes()
}

// ParseChain decodes a chain produced by MarshalChain. Certificates are
// interned by the SHA-256 of their encoding, so a chain presented again
// yields the same sealed pointers and CheckSignatureFrom's memo skips
// the links it has already checked. Changed bytes hash differently, so
// a corrupted certificate always gets its own entry and its own verdict.
func ParseChain(data []byte) ([]*Certificate, error) {
	var chain []*Certificate
	for len(data) > 0 {
		if len(data) < 3 {
			return nil, io.ErrUnexpectedEOF
		}
		n := int(data[0])<<16 | int(data[1])<<8 | int(data[2])
		data = data[3:]
		if len(data) < n {
			return nil, io.ErrUnexpectedEOF
		}
		c, err := parseInterned(data[:n])
		if err != nil {
			return nil, err
		}
		chain = append(chain, c)
		data = data[n:]
	}
	return chain, nil
}

// internCap bounds the intern table; when it is full, the table starts
// over. The 40-device catalog study interns 2,096 distinct certificates
// (most of them spoofed-CA probe chains) and a 2,000-device fleet over
// six months 49, so the cap holds about four catalog studies' worth.
const internCap = 1 << 13

// interned maps the SHA-256 of an encoding to the sealed certificate
// ParseChain returned for it. It is process-wide on purpose: a sealed
// certificate is immutable and every verdict about it is a pure
// function of its bytes, so sharing one across handshakes, goroutines
// and studies changes nothing but pointer identity.
var interned = struct {
	sync.Mutex
	m map[[sha256.Size]byte]*Certificate
}{m: make(map[[sha256.Size]byte]*Certificate)}

// parseInterned is Parse through the intern table. Only certificates
// that parse enter it.
func parseInterned(enc []byte) (*Certificate, error) {
	sum := sha256.Sum256(enc)
	interned.Lock()
	c := interned.m[sum]
	interned.Unlock()
	if c != nil {
		return c, nil
	}
	c, err := Parse(enc)
	if err != nil {
		return nil, err
	}
	interned.Lock()
	defer interned.Unlock()
	if prev := interned.m[sum]; prev != nil {
		return prev, nil // a concurrent parse of the same bytes won
	}
	if len(interned.m) >= internCap {
		clear(interned.m)
	}
	interned.m[sum] = c
	return c, nil
}

// --- low-level encoding helpers ---------------------------------------

func writeUint16(b *bytes.Buffer, v uint16) {
	b.WriteByte(byte(v >> 8))
	b.WriteByte(byte(v))
}

func writeUint64(b *bytes.Buffer, v uint64) {
	for shift := 56; shift >= 0; shift -= 8 {
		b.WriteByte(byte(v >> uint(shift)))
	}
}

func writeBool(b *bytes.Buffer, v bool) {
	if v {
		b.WriteByte(1)
	} else {
		b.WriteByte(0)
	}
}

func writeString(b *bytes.Buffer, s string) { writeBytes(b, []byte(s)) }

func writeBytes(b *bytes.Buffer, p []byte) {
	if len(p) > 0xffff {
		panic("certs: field too long")
	}
	writeUint16(b, uint16(len(p)))
	b.Write(p)
}

func writeName(b *bytes.Buffer, n Name) {
	writeString(b, n.CommonName)
	writeString(b, n.Organization)
	writeString(b, n.Country)
}

type reader struct {
	data []byte
	pos  int
	err  error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = io.ErrUnexpectedEOF
	}
}

func (r *reader) byte() byte {
	if r.err != nil || r.pos >= len(r.data) {
		r.fail()
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *reader) bool() bool { return r.byte() != 0 }

func (r *reader) uint16() uint16 {
	hi, lo := r.byte(), r.byte()
	return uint16(hi)<<8 | uint16(lo)
}

func (r *reader) uint64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(r.byte())
	}
	return v
}

func (r *reader) bytes() []byte {
	n := int(r.uint16())
	if r.err != nil || r.pos+n > len(r.data) {
		r.fail()
		return nil
	}
	p := make([]byte, n)
	copy(p, r.data[r.pos:r.pos+n])
	r.pos += n
	return p
}

func (r *reader) string() string { return string(r.bytes()) }

func (r *reader) name() Name {
	return Name{CommonName: r.string(), Organization: r.string(), Country: r.string()}
}
