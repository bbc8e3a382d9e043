// Package tlssim implements the TLS handshake engines driving the IoTLS
// simulation: a configurable client (modelling an IoT device's TLS
// instance) and server (modelling cloud endpoints and the interception
// proxy), running the wire format from internal/wire over real net.Conns.
//
// The engines are behaviourally faithful to the properties the paper
// measures: version and ciphersuite negotiation, certificate validation
// policies (full, no-validation, no-hostname, give-up-after-failures),
// downgrade-on-failure fallback, OCSP/CRL revocation checking, and — the
// core of the paper's novel probing technique — per-library TLS Alert
// behaviour on certificate validation failures (Table 4).
package tlssim

import (
	"errors"

	"repro/internal/certs"
	"repro/internal/ciphers"
	"repro/internal/wire"
)

// LibraryProfile captures how a TLS implementation reacts to the two
// certificate-failure classes the root-store probe distinguishes, plus
// general alerting behaviour. The paper validated six libraries
// (Table 4); only profiles whose two alerts differ are amenable to
// root-store exploration.
type LibraryProfile struct {
	// Name identifies the library, e.g. "openssl-1.1.1".
	Name string

	// SendsAlerts is false for libraries that close the connection
	// without any alert on validation failure (GnuTLS, SecureTransport).
	SendsAlerts bool

	// UnknownCAAlert is sent when chain building finds no trusted root
	// ("Response for unknown CA" in Table 4).
	UnknownCAAlert wire.AlertDescription

	// BadSignatureAlert is sent when a trusted root matches by name but
	// the signature check fails ("Response for known CA with invalid
	// signature" in Table 4).
	BadSignatureAlert wire.AlertDescription

	// HostnameAlert is sent on hostname mismatch.
	HostnameAlert wire.AlertDescription

	// ExpiredAlert is sent for expired certificates.
	ExpiredAlert wire.AlertDescription

	// BasicConstraintsAlert is sent for BasicConstraints violations.
	BasicConstraintsAlert wire.AlertDescription

	// TLS13AlertsOptional models the §6 limitation: RFC 8446 made
	// failure alerts optional, so stacks built on it may stay silent on
	// TLS 1.3 connections while still alerting on 1.2 — breaking the
	// root-store side channel exactly when devices modernise.
	TLS13AlertsOptional bool
}

// Amenable reports whether the root-store probing technique can work
// against this library: it must send alerts at all, and the unknown-CA
// and bad-signature alerts must differ (§4.2).
func (p *LibraryProfile) Amenable() bool {
	return p.SendsAlerts && p.UnknownCAAlert != p.BadSignatureAlert
}

// The six library profiles from Table 4 of the paper.
var (
	// ProfileMbedTLS: Bad Certificate / Unknown CA — amenable.
	ProfileMbedTLS = &LibraryProfile{
		Name:                  "mbedtls-2.21.0",
		SendsAlerts:           true,
		UnknownCAAlert:        wire.AlertUnknownCA,
		BadSignatureAlert:     wire.AlertBadCertificate,
		HostnameAlert:         wire.AlertBadCertificate,
		ExpiredAlert:          wire.AlertCertificateExpired,
		BasicConstraintsAlert: wire.AlertBadCertificate,
	}

	// ProfileOpenSSL: Decrypt Error / Unknown CA — amenable.
	ProfileOpenSSL = &LibraryProfile{
		Name:                  "openssl-1.1.1i",
		SendsAlerts:           true,
		UnknownCAAlert:        wire.AlertUnknownCA,
		BadSignatureAlert:     wire.AlertDecryptError,
		HostnameAlert:         wire.AlertBadCertificate,
		ExpiredAlert:          wire.AlertCertificateExpired,
		BasicConstraintsAlert: wire.AlertUnknownCA,
	}

	// ProfileWolfSSL: Bad Certificate / Bad Certificate — not amenable.
	ProfileWolfSSL = &LibraryProfile{
		Name:                  "wolfssl-4.1.0",
		SendsAlerts:           true,
		UnknownCAAlert:        wire.AlertBadCertificate,
		BadSignatureAlert:     wire.AlertBadCertificate,
		HostnameAlert:         wire.AlertBadCertificate,
		ExpiredAlert:          wire.AlertBadCertificate,
		BasicConstraintsAlert: wire.AlertBadCertificate,
	}

	// ProfileJavaJSSE: Certificate Unknown / Certificate Unknown — not
	// amenable.
	ProfileJavaJSSE = &LibraryProfile{
		Name:                  "oracle-java-18",
		SendsAlerts:           true,
		UnknownCAAlert:        wire.AlertCertificateUnknown,
		BadSignatureAlert:     wire.AlertCertificateUnknown,
		HostnameAlert:         wire.AlertCertificateUnknown,
		ExpiredAlert:          wire.AlertCertificateUnknown,
		BasicConstraintsAlert: wire.AlertCertificateUnknown,
	}

	// ProfileGnuTLS: no alerts — not amenable.
	ProfileGnuTLS = &LibraryProfile{
		Name:        "gnutls-3.6.15",
		SendsAlerts: false,
	}

	// ProfileSecureTransport: no alerts — not amenable.
	ProfileSecureTransport = &LibraryProfile{
		Name:        "securetransport-macos-11.3",
		SendsAlerts: false,
	}
)

// Profiles lists all six library profiles in Table 4's row order.
var Profiles = []*LibraryProfile{
	ProfileMbedTLS,
	ProfileOpenSSL,
	ProfileJavaJSSE,
	ProfileWolfSSL,
	ProfileGnuTLS,
	ProfileSecureTransport,
}

// AlertForValidationErrorAt maps a certificate validation error on a
// connection that negotiated version v to the alert this library sends
// (ok=false when the library sends none). A library with
// TLS13AlertsOptional stays silent when v is TLS 1.3.
func (p *LibraryProfile) AlertForValidationErrorAt(err error, v ciphers.Version) (wire.Alert, bool) {
	if !p.SendsAlerts {
		return wire.Alert{}, false
	}
	if p.TLS13AlertsOptional && v >= ciphers.TLS13 {
		return wire.Alert{}, false
	}
	desc := p.BadSignatureAlert
	var uae certs.UnknownAuthorityError
	var he certs.HostnameError
	var ee certs.ExpiredError
	var bce certs.BasicConstraintsError
	switch {
	case errors.As(err, &uae):
		desc = p.UnknownCAAlert
	case errors.Is(err, certs.ErrSignature):
		desc = p.BadSignatureAlert
	case errors.As(err, &he):
		desc = p.HostnameAlert
	case errors.As(err, &ee):
		desc = p.ExpiredAlert
	case errors.As(err, &bce):
		desc = p.BasicConstraintsAlert
	}
	return wire.Alert{Level: wire.LevelFatal, Description: desc}, true
}
