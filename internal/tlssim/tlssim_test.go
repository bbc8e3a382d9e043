package tlssim

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/certs"
	"repro/internal/ciphers"
	"repro/internal/clock"
	"repro/internal/netem"
	"repro/internal/wire"
)

var (
	tNotBefore = time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	tNotAfter  = time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	tNow       = time.Date(2021, 3, 10, 12, 0, 0, 0, time.UTC)
)

// testPKI builds a root CA and a server certificate for host.
func testPKI(t *testing.T, host string) (root certs.KeyPair, server certs.KeyPair) {
	t.Helper()
	root = certs.NewRootCA(certs.Name{CommonName: "Sim Root CA", Organization: "Sim", Country: "US"}, 1, tNotBefore, tNotAfter, "sim-root")
	server = root.Issue(certs.Template{
		SerialNumber: 10,
		Subject:      certs.Name{CommonName: host, Organization: "Cloud", Country: "US"},
		NotBefore:    tNotBefore, NotAfter: tNotAfter,
		DNSNames: []string{host},
	}, "sim-server-"+host)
	return root, server
}

func defaultClient(root certs.KeyPair) *ClientConfig {
	pool := certs.NewPool()
	pool.Add(root.Cert)
	return &ClientConfig{
		Library:    ProfileOpenSSL,
		MinVersion: ciphers.TLS10,
		MaxVersion: ciphers.TLS12,
		CipherSuites: []ciphers.Suite{
			ciphers.TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
			ciphers.TLS_RSA_WITH_AES_128_CBC_SHA,
		},
		SignatureAlgorithms: []ciphers.SignatureAlgorithm{ciphers.ED25519},
		SupportedGroups:     []uint16{29, 23},
		ECPointFormats:      []uint8{0},
		SendSNI:             true,
		Roots:               pool,
		Validation:          ValidateFull,
		Clock:               clock.NewSimulated(tNow),
	}
}

func defaultServer(root, server certs.KeyPair) *ServerConfig {
	return &ServerConfig{
		Chain:      []*certs.Certificate{server.Cert, root.Cert},
		Key:        server,
		MinVersion: ciphers.TLS10,
		MaxVersion: ciphers.TLS12,
		CipherSuites: []ciphers.Suite{
			ciphers.TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
			ciphers.TLS_RSA_WITH_AES_128_CBC_SHA,
		},
	}
}

// handshake runs client and server over a netem connection, the
// testbed's transport, and returns both results.
func handshake(t *testing.T, ccfg *ClientConfig, scfg *ServerConfig, host string) (*Session, error, *ServerResult) {
	t.Helper()
	cc, sc := netem.NewPair("dev", host+":443")
	resCh := make(chan *ServerResult, 1)
	go func() { resCh <- Serve(sc, scfg) }()
	sess, err := Client(cc, ccfg, host, 1)
	res := <-resCh
	return sess, err, res
}

func TestHandshakeSuccess(t *testing.T) {
	root, server := testPKI(t, "cloud.vendor.com")
	sess, err, res := handshake(t, defaultClient(root), defaultServer(root, server), "cloud.vendor.com")
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	if res.Err != nil {
		t.Fatalf("server: %v", res.Err)
	}
	if sess.Version != ciphers.TLS12 {
		t.Errorf("version = %v", sess.Version)
	}
	if sess.Suite != ciphers.TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256 {
		t.Errorf("suite = %v", sess.Suite)
	}
	if sess.ValidationBypassed {
		t.Error("validation bypassed unexpectedly")
	}
	if sni, _ := res.ClientHello.SNI(); sni != "cloud.vendor.com" {
		t.Errorf("server saw SNI %q", sni)
	}

	// Application data flows both ways through the keystream.
	go func() {
		buf := make([]byte, 5)
		io.ReadFull(res.Session.Conn, buf)
		res.Session.Conn.Write([]byte("token=s3cr3t"))
		res.Session.Close()
	}()
	sess.Conn.Write([]byte("hello"))
	reply := make([]byte, 12)
	if _, err := io.ReadFull(sess.Conn, reply); err != nil {
		t.Fatalf("read reply: %v", err)
	}
	if string(reply) != "token=s3cr3t" {
		t.Fatalf("reply = %q", reply)
	}
	sess.Close()
}

func TestAppDataIsNotPlaintextOnWire(t *testing.T) {
	root, server := testPKI(t, "cloud.vendor.com")
	cc, sc := net.Pipe()
	resCh := make(chan *ServerResult, 1)
	go func() { resCh <- Serve(sc, defaultServer(root, server)) }()
	sess, err := Client(cc, defaultClient(root), "cloud.vendor.com", 1)
	if err != nil {
		t.Fatal(err)
	}
	res := <-resCh

	// Read the raw record off the server's underlying conn and check the
	// payload is not the plaintext.
	done := make(chan []byte, 1)
	go func() {
		rec, err := wire.ReadRecord(res.Session.Conn.Conn)
		if err != nil {
			done <- nil
			return
		}
		done <- rec.Payload
	}()
	plaintext := []byte("super secret telemetry")
	sess.Conn.Write(plaintext)
	raw := <-done
	if raw == nil {
		t.Fatal("no record read")
	}
	if string(raw) == string(plaintext) {
		t.Fatal("application data traveled in plaintext")
	}
	sess.Close()
	res.Session.Close()
}

func TestNegotiatesHighestMutualVersion(t *testing.T) {
	root, server := testPKI(t, "h.com")
	ccfg := defaultClient(root)
	scfg := defaultServer(root, server)
	scfg.MaxVersion = ciphers.TLS11 // server is behind
	ccfg.CipherSuites = []ciphers.Suite{ciphers.TLS_RSA_WITH_AES_128_CBC_SHA}
	scfg.CipherSuites = ccfg.CipherSuites
	sess, err, _ := handshake(t, ccfg, scfg, "h.com")
	if err != nil {
		t.Fatal(err)
	}
	if sess.Version != ciphers.TLS11 {
		t.Fatalf("version = %v, want TLS 1.1", sess.Version)
	}
}

func TestVersionNegotiationFailure(t *testing.T) {
	root, server := testPKI(t, "h.com")
	ccfg := defaultClient(root)
	ccfg.MinVersion, ccfg.MaxVersion = ciphers.TLS12, ciphers.TLS12
	scfg := defaultServer(root, server)
	scfg.MinVersion, scfg.MaxVersion = ciphers.SSL30, ciphers.TLS11
	_, err, res := handshake(t, ccfg, scfg, "h.com")
	// The server picks TLS 1.1 (it cannot know the client's minimum);
	// the client refuses it with a protocol_version alert.
	var he *HandshakeError
	if !errors.As(err, &he) || he.Class != FailVersion {
		t.Fatalf("client err = %v, want FailVersion", err)
	}
	if res.Err == nil || res.Err.Class != FailAlertReceived {
		t.Fatalf("server err = %v, want FailAlertReceived", res.Err)
	}
	if res.ClientAlert == nil || res.ClientAlert.Description != wire.AlertProtocolVersion {
		t.Fatalf("server observed alert %v, want protocol_version", res.ClientAlert)
	}
}

func TestClientRejectsVersionBelowMinimum(t *testing.T) {
	// Server forces TLS 1.0; a client with MinVersion 1.2 must refuse —
	// this is exactly the Table 6 "old version support" distinction.
	root, server := testPKI(t, "h.com")
	ccfg := defaultClient(root)
	ccfg.MinVersion = ciphers.TLS12
	scfg := defaultServer(root, server)
	scfg.ForceVersion = ciphers.TLS10
	_, err, res := handshake(t, ccfg, scfg, "h.com")
	var he *HandshakeError
	if !errors.As(err, &he) || he.Class != FailVersion {
		t.Fatalf("client err = %v, want FailVersion", err)
	}
	if he.Alert == nil || he.Alert.Description != wire.AlertProtocolVersion {
		t.Fatalf("alert = %v, want protocol_version", he.Alert)
	}
	if res.Err == nil {
		t.Fatal("server should have seen failure")
	}
}

func TestClientAcceptsForcedOldVersionWhenSupported(t *testing.T) {
	root, server := testPKI(t, "h.com")
	ccfg := defaultClient(root) // MinVersion TLS 1.0
	ccfg.CipherSuites = []ciphers.Suite{ciphers.TLS_RSA_WITH_AES_128_CBC_SHA}
	scfg := defaultServer(root, server)
	scfg.CipherSuites = ccfg.CipherSuites
	scfg.ForceVersion = ciphers.TLS10
	sess, err, _ := handshake(t, ccfg, scfg, "h.com")
	if err != nil {
		t.Fatal(err)
	}
	if sess.Version != ciphers.TLS10 {
		t.Fatalf("version = %v, want TLS 1.0", sess.Version)
	}
}

func TestTLS13Negotiation(t *testing.T) {
	root, server := testPKI(t, "h.com")
	ccfg := defaultClient(root)
	ccfg.MaxVersion = ciphers.TLS13
	ccfg.CipherSuites = append([]ciphers.Suite{ciphers.TLS_AES_128_GCM_SHA256}, ccfg.CipherSuites...)
	scfg := defaultServer(root, server)
	scfg.MaxVersion = ciphers.TLS13
	scfg.CipherSuites = append([]ciphers.Suite{ciphers.TLS_AES_128_GCM_SHA256}, scfg.CipherSuites...)
	sess, err, res := handshake(t, ccfg, scfg, "h.com")
	if err != nil {
		t.Fatal(err)
	}
	if sess.Version != ciphers.TLS13 || sess.Suite != ciphers.TLS_AES_128_GCM_SHA256 {
		t.Fatalf("negotiated %v / %v", sess.Version, sess.Suite)
	}
	if res.ClientHello.MaxVersion() != ciphers.TLS13 {
		t.Error("supported_versions did not advertise 1.3")
	}
	// Legacy version field must stay at 1.2.
	if res.ClientHello.LegacyVersion != ciphers.TLS12 {
		t.Errorf("legacy version = %v", res.ClientHello.LegacyVersion)
	}
}

func TestSuiteNegotiationFailure(t *testing.T) {
	root, server := testPKI(t, "h.com")
	ccfg := defaultClient(root)
	ccfg.CipherSuites = []ciphers.Suite{ciphers.TLS_RSA_WITH_RC4_128_SHA}
	scfg := defaultServer(root, server)
	scfg.CipherSuites = []ciphers.Suite{ciphers.TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256}
	_, err, res := handshake(t, ccfg, scfg, "h.com")
	var he *HandshakeError
	if !errors.As(err, &he) || he.Class != FailAlertReceived {
		t.Fatalf("client err = %v", err)
	}
	if res.Err == nil || res.Err.Class != FailParameters {
		t.Fatalf("server err = %v", res.Err)
	}
}

// --- certificate validation behaviours (Tables 2 and 7) ----------------

func selfSignedServer(host string) certs.KeyPair {
	attacker := certs.NewRootCA(certs.Name{CommonName: "mitm-root"}, 666, tNotBefore, tNotAfter, "mitm-root-key")
	return attacker.Issue(certs.Template{
		SerialNumber: 667,
		Subject:      certs.Name{CommonName: host},
		NotBefore:    tNotBefore, NotAfter: tNotAfter,
		DNSNames: []string{host},
	}, "mitm-leaf")
}

func TestValidatingClientRejectsSelfSigned(t *testing.T) {
	root, _ := testPKI(t, "cloud.vendor.com")
	forged := selfSignedServer("cloud.vendor.com")
	scfg := defaultServer(certs.KeyPair{Cert: forged.Cert}, forged)
	scfg.Chain = []*certs.Certificate{forged.Cert}
	_, err, res := handshake(t, defaultClient(root), scfg, "cloud.vendor.com")
	var he *HandshakeError
	if !errors.As(err, &he) || he.Class != FailCertificate {
		t.Fatalf("client err = %v, want FailCertificate", err)
	}
	// OpenSSL profile sends unknown_ca for an unknown issuer; the server
	// (i.e. the interceptor) must observe it.
	if res.ClientAlert == nil || res.ClientAlert.Description != wire.AlertUnknownCA {
		t.Fatalf("server observed alert %v, want unknown_ca", res.ClientAlert)
	}
}

func TestNoValidationClientAcceptsSelfSigned(t *testing.T) {
	root, _ := testPKI(t, "cloud.vendor.com")
	forged := selfSignedServer("cloud.vendor.com")
	ccfg := defaultClient(root)
	ccfg.Validation = ValidateNone
	scfg := defaultServer(certs.KeyPair{Cert: forged.Cert}, forged)
	scfg.Chain = []*certs.Certificate{forged.Cert}
	sess, err, res := handshake(t, ccfg, scfg, "cloud.vendor.com")
	if err != nil {
		t.Fatalf("no-validation client rejected: %v", err)
	}
	if !sess.ValidationBypassed {
		t.Error("ValidationBypassed not set")
	}
	if res.Err != nil {
		t.Fatalf("server err = %v", res.Err)
	}
	sess.Close()
	res.Session.Close()
}

func TestNoHostnameClientAcceptsWrongHostname(t *testing.T) {
	// The WrongHostname attack: a legitimate chain for a domain the
	// attacker controls. Full validators reject (hostname), the Amazon
	// family accepts.
	root, _ := testPKI(t, "cloud.vendor.com")
	attackerCert := root.Issue(certs.Template{
		SerialNumber: 99,
		Subject:      certs.Name{CommonName: "attacker-owned.com"},
		NotBefore:    tNotBefore, NotAfter: tNotAfter,
		DNSNames: []string{"attacker-owned.com"},
	}, "attacker-legit")
	scfg := &ServerConfig{
		Chain:        []*certs.Certificate{attackerCert.Cert, root.Cert},
		Key:          attackerCert,
		MinVersion:   ciphers.TLS10,
		MaxVersion:   ciphers.TLS12,
		CipherSuites: []ciphers.Suite{ciphers.TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256},
	}

	full := defaultClient(root)
	_, err, _ := handshake(t, full, scfg, "cloud.vendor.com")
	var he *HandshakeError
	if !errors.As(err, &he) || he.Class != FailCertificate {
		t.Fatalf("full validator err = %v, want FailCertificate", err)
	}

	lax := defaultClient(root)
	lax.Validation = ValidateNoHostname
	sess, err, res := handshake(t, lax, scfg, "cloud.vendor.com")
	if err != nil {
		t.Fatalf("no-hostname client rejected: %v", err)
	}
	sess.Close()
	res.Session.Close()
}

func TestYiCameraGiveUpBehaviour(t *testing.T) {
	// §5.2: the Yi Camera disables validation entirely after 3
	// consecutive failed connections.
	root, _ := testPKI(t, "api.yitechnology.com")
	forged := selfSignedServer("api.yitechnology.com")
	ccfg := defaultClient(root)
	ccfg.Library = ProfileMbedTLS
	ccfg.DisableValidationAfter = 3
	mkServer := func() *ServerConfig {
		s := defaultServer(certs.KeyPair{Cert: forged.Cert}, forged)
		s.Chain = []*certs.Certificate{forged.Cert}
		return s
	}
	for i := 0; i < 3; i++ {
		if ccfg.ValidationCurrentlyDisabled() {
			t.Fatalf("validation disabled after only %d failures", i)
		}
		_, err, _ := handshake(t, ccfg, mkServer(), "api.yitechnology.com")
		if err == nil {
			t.Fatalf("attempt %d unexpectedly succeeded", i)
		}
	}
	if !ccfg.ValidationCurrentlyDisabled() {
		t.Fatal("validation not disabled after 3 failures")
	}
	sess, err, _ := handshake(t, ccfg, mkServer(), "api.yitechnology.com")
	if err != nil {
		t.Fatalf("4th attempt should bypass validation: %v", err)
	}
	if !sess.ValidationBypassed {
		t.Error("ValidationBypassed not set on give-up session")
	}
	sess.Close()
	// A reboot resets the counter.
	ccfg.ResetState()
	if ccfg.ValidationCurrentlyDisabled() {
		t.Fatal("ResetState did not clear the give-up flag")
	}
}

func TestSuccessResetsFailureCounter(t *testing.T) {
	root, server := testPKI(t, "h.com")
	forged := selfSignedServer("h.com")
	ccfg := defaultClient(root)
	ccfg.DisableValidationAfter = 3
	bad := defaultServer(certs.KeyPair{Cert: forged.Cert}, forged)
	bad.Chain = []*certs.Certificate{forged.Cert}
	good := defaultServer(root, server)
	handshake(t, ccfg, bad, "h.com")
	handshake(t, ccfg, bad, "h.com")
	if sess, err, _ := handshake(t, ccfg, good, "h.com"); err != nil {
		t.Fatalf("good handshake failed: %v", err)
	} else {
		sess.Close()
	}
	handshake(t, ccfg, bad, "h.com")
	if ccfg.ValidationCurrentlyDisabled() {
		t.Fatal("counter did not reset on success")
	}
}

// --- Table 4: library alert profiles ------------------------------------

func TestLibraryAlertMatrix(t *testing.T) {
	// For each library profile, check the alert (or silence) emitted for
	// the two probe cases: unknown CA and known CA with bad signature.
	root, _ := testPKI(t, "probe.example.com")

	unknownCA := func() *ServerConfig {
		forged := selfSignedServer("probe.example.com")
		s := defaultServer(certs.KeyPair{Cert: forged.Cert}, forged)
		s.Chain = []*certs.Certificate{forged.Cert}
		return s
	}
	spoofedCA := func() *ServerConfig {
		spoof := certs.Spoof(root.Cert, "probe-attacker")
		leaf := spoof.Issue(certs.Template{
			SerialNumber: 55,
			Subject:      certs.Name{CommonName: "probe.example.com"},
			NotBefore:    tNotBefore, NotAfter: tNotAfter,
			DNSNames: []string{"probe.example.com"},
		}, "probe-leaf")
		s := defaultServer(certs.KeyPair{Cert: leaf.Cert}, leaf)
		s.Chain = []*certs.Certificate{leaf.Cert, spoof.Cert}
		return s
	}

	cases := []struct {
		profile      *LibraryProfile
		wantSpoofed  wire.AlertDescription // known CA, invalid signature
		wantUnknown  wire.AlertDescription
		wantNoAlerts bool
	}{
		{ProfileMbedTLS, wire.AlertBadCertificate, wire.AlertUnknownCA, false},
		{ProfileOpenSSL, wire.AlertDecryptError, wire.AlertUnknownCA, false},
		{ProfileJavaJSSE, wire.AlertCertificateUnknown, wire.AlertCertificateUnknown, false},
		{ProfileWolfSSL, wire.AlertBadCertificate, wire.AlertBadCertificate, false},
		{ProfileGnuTLS, 0, 0, true},
		{ProfileSecureTransport, 0, 0, true},
	}
	for _, c := range cases {
		t.Run(c.profile.Name, func(t *testing.T) {
			run := func(scfg *ServerConfig) *wire.Alert {
				ccfg := defaultClient(root)
				ccfg.Library = c.profile
				_, err, res := handshake(t, ccfg, scfg, "probe.example.com")
				if err == nil {
					t.Fatal("handshake unexpectedly succeeded")
				}
				return res.ClientAlert
			}
			gotUnknown := run(unknownCA())
			gotSpoofed := run(spoofedCA())
			if c.wantNoAlerts {
				if gotUnknown != nil || gotSpoofed != nil {
					t.Fatalf("expected silence, got %v / %v", gotUnknown, gotSpoofed)
				}
				return
			}
			if gotUnknown == nil || gotUnknown.Description != c.wantUnknown {
				t.Fatalf("unknown-CA alert = %v, want %s", gotUnknown, c.wantUnknown)
			}
			if gotSpoofed == nil || gotSpoofed.Description != c.wantSpoofed {
				t.Fatalf("spoofed-CA alert = %v, want %s", gotSpoofed, c.wantSpoofed)
			}
		})
	}
}

func TestAmenability(t *testing.T) {
	want := map[string]bool{
		ProfileMbedTLS.Name:         true,
		ProfileOpenSSL.Name:         true,
		ProfileWolfSSL.Name:         false,
		ProfileJavaJSSE.Name:        false,
		ProfileGnuTLS.Name:          false,
		ProfileSecureTransport.Name: false,
	}
	for _, p := range Profiles {
		if got := p.Amenable(); got != want[p.Name] {
			t.Errorf("%s amenable = %v, want %v", p.Name, got, want[p.Name])
		}
	}
}

// --- server failure modes ------------------------------------------------

// TestIncompleteHandshake checks a server that withholds its flight
// fails the client at once as an incomplete handshake: over netem the
// server stalls its peer, so no deadline is needed.
func TestIncompleteHandshake(t *testing.T) {
	root, server := testPKI(t, "h.com")
	scfg := defaultServer(root, server)
	scfg.Behavior = ServeIncompleteHandshake
	_, err, res := handshake(t, defaultClient(root), scfg, "h.com")
	var he *HandshakeError
	if !errors.As(err, &he) || he.Class != FailIncomplete {
		t.Fatalf("client err = %v, want FailIncomplete", err)
	}
	if res.ClientHello == nil {
		t.Fatal("server should still capture the ClientHello")
	}
}

func TestRejectedHandshake(t *testing.T) {
	root, server := testPKI(t, "h.com")
	scfg := defaultServer(root, server)
	scfg.Behavior = ServeReject
	_, err, res := handshake(t, defaultClient(root), scfg, "h.com")
	var he *HandshakeError
	if !errors.As(err, &he) || he.Class != FailAlertReceived {
		t.Fatalf("client err = %v, want FailAlertReceived", err)
	}
	if he.Alert == nil || he.Alert.Description != wire.AlertHandshakeFailure {
		t.Fatalf("alert = %v", he.Alert)
	}
	if res.ClientHello == nil {
		t.Fatal("ClientHello not captured")
	}
}

// --- OCSP stapling and revocation ---------------------------------------

func TestOCSPStapling(t *testing.T) {
	root, server := testPKI(t, "h.com")
	ccfg := defaultClient(root)
	ccfg.Revocation.RequestStaple = true
	scfg := defaultServer(root, server)
	scfg.OCSPStaple = true
	sess, err, res := handshake(t, ccfg, scfg, "h.com")
	if err != nil {
		t.Fatal(err)
	}
	if !sess.StapledOCSP {
		t.Error("client did not record staple")
	}
	if !res.ClientHello.RequestsOCSPStaple() {
		t.Error("status_request missing from ClientHello")
	}
	sess.Close()
	res.Session.Close()
}

func TestMustStapleHardFail(t *testing.T) {
	root, _ := testPKI(t, "h.com")
	stapleCert := root.Issue(certs.Template{
		SerialNumber: 77,
		Subject:      certs.Name{CommonName: "h.com"},
		NotBefore:    tNotBefore, NotAfter: tNotAfter,
		DNSNames:   []string{"h.com"},
		MustStaple: true,
	}, "staple-leaf")
	scfg := &ServerConfig{
		Chain:        []*certs.Certificate{stapleCert.Cert, root.Cert},
		Key:          stapleCert,
		MinVersion:   ciphers.TLS10,
		MaxVersion:   ciphers.TLS12,
		CipherSuites: []ciphers.Suite{ciphers.TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256},
		OCSPStaple:   false, // violates must-staple
	}
	ccfg := defaultClient(root)
	ccfg.Revocation.RequestStaple = true
	_, err, _ := handshake(t, ccfg, scfg, "h.com")
	var he *HandshakeError
	if !errors.As(err, &he) || he.Class != FailCertificate {
		t.Fatalf("err = %v, want FailCertificate for missing staple", err)
	}
	// When the server does staple, the handshake succeeds.
	scfg.OCSPStaple = true
	sess, err, res := handshake(t, ccfg, scfg, "h.com")
	if err != nil {
		t.Fatalf("stapled handshake failed: %v", err)
	}
	sess.Close()
	res.Session.Close()
}

func TestRevocationTrafficGenerated(t *testing.T) {
	root, _ := testPKI(t, "h.com")
	leaf := root.Issue(certs.Template{
		SerialNumber: 88,
		Subject:      certs.Name{CommonName: "h.com"},
		NotBefore:    tNotBefore, NotAfter: tNotAfter,
		DNSNames:   []string{"h.com"},
		OCSPServer: "ocsp.sim-ca.com",
		CRLServer:  "crl.sim-ca.com",
	}, "rev-leaf")
	scfg := &ServerConfig{
		Chain:        []*certs.Certificate{leaf.Cert, root.Cert},
		Key:          leaf,
		MinVersion:   ciphers.TLS10,
		MaxVersion:   ciphers.TLS12,
		CipherSuites: []ciphers.Suite{ciphers.TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256},
	}
	var dialed []string
	ccfg := defaultClient(root)
	ccfg.SrcHost = "apple-tv"
	ccfg.Revocation = RevocationMode{CheckCRL: true, CheckOCSP: true}
	ccfg.AuxDialer = func(src, dst string, port int) (net.Conn, error) {
		dialed = append(dialed, dst)
		c, s := net.Pipe()
		go func() {
			buf := make([]byte, 256)
			s.Read(buf)
			s.Write([]byte("OK\n"))
			s.Close()
		}()
		return c, nil
	}
	sess, err, res := handshake(t, ccfg, scfg, "h.com")
	if err != nil {
		t.Fatal(err)
	}
	sess.Close()
	res.Session.Close()
	if len(dialed) != 2 || dialed[0] != "ocsp.sim-ca.com" || dialed[1] != "crl.sim-ca.com" {
		t.Fatalf("revocation dials = %v", dialed)
	}
}

func TestRevocationSoftFail(t *testing.T) {
	root, _ := testPKI(t, "h.com")
	leaf := root.Issue(certs.Template{
		SerialNumber: 89,
		Subject:      certs.Name{CommonName: "h.com"},
		NotBefore:    tNotBefore, NotAfter: tNotAfter,
		DNSNames:   []string{"h.com"},
		OCSPServer: "ocsp.down.com",
	}, "rev-leaf-2")
	scfg := &ServerConfig{
		Chain:        []*certs.Certificate{leaf.Cert, root.Cert},
		Key:          leaf,
		MinVersion:   ciphers.TLS10,
		MaxVersion:   ciphers.TLS12,
		CipherSuites: []ciphers.Suite{ciphers.TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256},
	}
	ccfg := defaultClient(root)
	ccfg.Revocation = RevocationMode{CheckOCSP: true}
	ccfg.AuxDialer = func(src, dst string, port int) (net.Conn, error) {
		return nil, errors.New("responder down")
	}
	sess, err, res := handshake(t, ccfg, scfg, "h.com")
	if err != nil {
		t.Fatalf("OCSP outage must not fail the handshake: %v", err)
	}
	sess.Close()
	res.Session.Close()
}

// --- fingerprint-affecting configuration ---------------------------------

func TestClientHelloDeterminism(t *testing.T) {
	root, _ := testPKI(t, "h.com")
	cfg := defaultClient(root)
	a := cfg.BuildClientHello("h.com", 7).Marshal()
	b := cfg.BuildClientHello("h.com", 7).Marshal()
	if string(a) != string(b) {
		t.Fatal("same inputs produced different ClientHellos")
	}
	c := cfg.BuildClientHello("h.com", 8).Marshal()
	if string(a) == string(c) {
		t.Fatal("different seq produced identical randoms")
	}
}

func TestRevocationModeAny(t *testing.T) {
	if (RevocationMode{}).Any() {
		t.Error("empty mode reported Any")
	}
	if !(RevocationMode{CheckCRL: true}).Any() || !(RevocationMode{RequestStaple: true}).Any() {
		t.Error("non-empty mode not Any")
	}
}

func TestValidationModeString(t *testing.T) {
	if ValidateFull.String() != "full" || ValidateNoHostname.String() != "no-hostname" ||
		ValidateNone.String() != "none" || ValidationMode(9).String() != "unknown" {
		t.Fatal("mode strings wrong")
	}
}

func TestFailureClassString(t *testing.T) {
	classes := map[FailureClass]string{
		FailIncomplete:    "incomplete",
		FailPeerClosed:    "peer_closed",
		FailAlertReceived: "alert_received",
		FailCertificate:   "certificate",
		FailVersion:       "version",
		FailParameters:    "parameters",
		FailIO:            "io",
		FailureClass(42):  "unknown",
	}
	for c, want := range classes {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
}

func TestHandshakeErrorFormatting(t *testing.T) {
	a := wire.Alert{Level: wire.LevelFatal, Description: wire.AlertUnknownCA}
	he := failure(FailCertificate, &a, errors.New("boom"))
	msg := he.Error()
	if msg != "tlssim: handshake failed (certificate), alert unknown_ca: boom" {
		t.Fatalf("Error() = %q", msg)
	}
	if he.Unwrap() == nil {
		t.Fatal("Unwrap lost cause")
	}
}

// TestTranscriptBytes pins the transcript both sides hash and sign: the
// framed messages in order, exactly as Handshake.Marshal frames them,
// and the proof input as the fixed prefix followed by those bytes —
// including past the pre-sized capacity.
func TestTranscriptBytes(t *testing.T) {
	msgs := []wire.Handshake{
		{Type: wire.TypeClientHello, Body: []byte("hello")},
		{Type: wire.TypeServerHello, Body: nil},
		{Type: wire.TypeCertificate, Body: make([]byte, 3*transcriptTail)},
		{Type: wire.TypeFinished, Body: []byte{1, 2, 3}},
	}
	tr := newTranscript(msgs[0])
	want := msgs[0].Marshal()
	for _, m := range msgs[1:] {
		tr.add(m)
		want = append(want, m.Marshal()...)
		if !bytes.Equal(tr.bytes(), want) {
			t.Fatalf("after %s: transcript = %x, want %x", m.Type, tr.bytes(), want)
		}
		if !bytes.Equal(tr.proofInput(), append([]byte("iotls server proof:"), want...)) {
			t.Fatalf("after %s: proof input does not frame the transcript", m.Type)
		}
	}
}
