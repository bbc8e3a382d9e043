package tlssim

import (
	"testing"

	"repro/internal/certs"
	"repro/internal/ciphers"
	"repro/internal/wire"
)

// profileModernSilent13 is a hypothetical RFC 8446-era stack: behaves
// like OpenSSL on TLS ≤1.2 but exercises the RFC's permission to omit
// failure alerts at 1.3 — the §6 limitation of the probing technique.
var profileModernSilent13 = &LibraryProfile{
	Name:                "hypothetical-rfc8446-stack",
	SendsAlerts:         true,
	UnknownCAAlert:      wire.AlertUnknownCA,
	BadSignatureAlert:   wire.AlertDecryptError,
	HostnameAlert:       wire.AlertBadCertificate,
	ExpiredAlert:        wire.AlertCertificateExpired,
	TLS13AlertsOptional: true,
}

// tls13Server builds a forged-cert server capped at the given version.
func tls13Server(maxV ciphers.Version) *ServerConfig {
	forged := selfSignedServer("future.example.com")
	return &ServerConfig{
		Chain: []*certs.Certificate{forged.Cert}, Key: forged,
		MinVersion: ciphers.TLS10, MaxVersion: maxV,
		CipherSuites: []ciphers.Suite{
			ciphers.TLS_AES_128_GCM_SHA256,
			ciphers.TLS_RSA_WITH_AES_128_CBC_SHA,
		},
	}
}

func tls13Client(root certs.KeyPair) *ClientConfig {
	cfg := defaultClient(root)
	cfg.Library = profileModernSilent13
	cfg.MaxVersion = ciphers.TLS13
	cfg.CipherSuites = append([]ciphers.Suite{ciphers.TLS_AES_128_GCM_SHA256}, cfg.CipherSuites...)
	return cfg
}

func TestTLS13OptionalAlertsSilenceTheSideChannel(t *testing.T) {
	root, _ := testPKI(t, "future.example.com")

	// Interceptor negotiating TLS 1.3: the stack fails the handshake
	// but, per RFC 8446's optional alerts, sends nothing — the probe
	// observable disappears.
	_, err, res := handshake(t, tls13Client(root), tls13Server(ciphers.TLS13), "future.example.com")
	if err == nil {
		t.Fatal("forged chain accepted")
	}
	if res.ClientAlert != nil {
		t.Fatalf("alert at TLS 1.3 = %v, want silence (RFC 8446 optional alerts)", res.ClientAlert)
	}

	// The same stack against a TLS 1.2-capped interceptor still alerts:
	// the paper's suggested workaround is to keep probing at 1.2 while
	// servers allow it.
	_, err, res = handshake(t, tls13Client(root), tls13Server(ciphers.TLS12), "future.example.com")
	if err == nil {
		t.Fatal("forged chain accepted at 1.2")
	}
	if res.ClientAlert == nil || res.ClientAlert.Description != wire.AlertUnknownCA {
		t.Fatalf("alert at TLS 1.2 = %v, want unknown_ca", res.ClientAlert)
	}
}

func TestTLS13OptionalAlertsOnlyAffect13(t *testing.T) {
	// The version-aware mapping: silence at 1.3, normal table below.
	a, ok := profileModernSilent13.AlertForValidationErrorAt(certs.ErrSignature, ciphers.TLS13)
	if ok {
		t.Fatalf("alert emitted at 1.3: %v", a)
	}
	a, ok = profileModernSilent13.AlertForValidationErrorAt(certs.ErrSignature, ciphers.TLS12)
	if !ok || a.Description != wire.AlertDecryptError {
		t.Fatalf("alert at 1.2 = %v (%v), want decrypt_error", a, ok)
	}
	// Before any version is negotiated the normal table applies.
	a, ok = profileModernSilent13.AlertForValidationErrorAt(certs.ErrSignature, 0)
	if !ok || a.Description != wire.AlertDecryptError {
		t.Fatalf("versionless alert = %v (%v)", a, ok)
	}
}

func TestTable4ProfilesUnaffectedByVersionAwareness(t *testing.T) {
	// None of the six paper profiles set TLS13AlertsOptional: the Table
	// 4 behaviour is version-independent for them.
	for _, p := range Profiles {
		if p.TLS13AlertsOptional {
			t.Errorf("%s unexpectedly marks 1.3 alerts optional", p.Name)
		}
		if !p.SendsAlerts {
			continue
		}
		a12, ok12 := p.AlertForValidationErrorAt(certs.ErrSignature, ciphers.TLS12)
		a13, ok13 := p.AlertForValidationErrorAt(certs.ErrSignature, ciphers.TLS13)
		if ok12 != ok13 || a12 != a13 {
			t.Errorf("%s differs across versions: %v/%v vs %v/%v", p.Name, a12, ok12, a13, ok13)
		}
	}
}
