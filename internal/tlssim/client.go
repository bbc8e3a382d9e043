package tlssim

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"

	"repro/internal/certs"
	"repro/internal/ciphers"
	"repro/internal/wire"
)

// Session is an established TLS session.
type Session struct {
	// Conn carries protected application data.
	Conn *SecureConn
	// Version and Suite record the negotiated parameters.
	Version ciphers.Version
	Suite   ciphers.Suite
	// PeerChain is the certificate chain the peer presented (client side
	// only).
	PeerChain []*certs.Certificate
	// Hello is the ClientHello sent (client) or received (server).
	Hello *wire.ClientHello
	// ServerHello is the server's hello as sent or received.
	ServerHello *wire.ServerHello
	// ValidationBypassed reports that the client accepted the
	// certificate without validating (mode none, or the give-up
	// behaviour having tripped).
	ValidationBypassed bool
	// StapledOCSP reports whether the server stapled an OCSP response.
	StapledOCSP bool
}

// Close closes the underlying connection.
func (s *Session) Close() error { return s.Conn.Close() }

// Client runs the client side of a TLS handshake over conn, as the
// instance described by cfg, connecting to serverName. seq disambiguates
// hello randoms across connections from the same instance.
//
// On failure the returned error is a *HandshakeError whose Class and
// Alert describe exactly what an on-path observer would see — which is
// what the paper's probing technique measures.
func Client(conn net.Conn, cfg *ClientConfig, serverName string, seq uint64) (sess *Session, err error) {
	tel := cfg.Telemetry
	defer func() {
		// Every failure path must release the transport, or a server
		// configured to withhold its flight would block forever.
		if err != nil {
			conn.Close()
			finishClientFailure(tel, cfg, err)
		} else {
			finishClientSuccess(tel, cfg, sess)
		}
	}()
	if cfg.Library == nil {
		return nil, failure(FailParameters, nil, errors.New("tlssim: client requires a library profile"))
	}

	ch := cfg.BuildClientHello(serverName, seq)
	chMsg := ch.Message()
	transcript := newTranscript(chMsg)

	recordVersion := ciphers.MinVersion(cfg.MaxVersion, ciphers.TLS12)
	if err := wire.WriteHandshake(conn, recordVersion, chMsg); err != nil {
		return nil, classifyReadError(err)
	}

	// Read the server flight: ServerHello, Certificate, ServerHelloDone.
	mr := newMsgReader(conn)

	shMsg, herr := mr.expect(wire.TypeServerHello)
	if herr != nil {
		return nil, herr
	}
	sh, err := wire.ParseServerHello(shMsg.Body)
	if err != nil {
		return nil, failMidFlight(conn, recordVersion, wire.AlertDecodeError, err)
	}
	transcript.add(shMsg)

	// Read the rest of the server flight before reacting. Records and
	// flights are the transport's unit: the server writes ServerHello,
	// Certificate and ServerHelloDone in one Write (wire.WriteFlight),
	// as a real stack's flight arrives in one burst. On netem's
	// rendezvous transport that Write returns only once this side has
	// read the whole flight, so alerting mid-flight would deadlock
	// against it.
	certMsg, herr := mr.expect(wire.TypeCertificate)
	if herr != nil {
		return nil, herr
	}
	doneMsg, herr := mr.expect(wire.TypeServerHelloDone)
	if herr != nil {
		return nil, herr
	}

	// Version acceptance: the server's choice must be one we offered.
	if !acceptableVersion(cfg, ch, sh.Version) {
		return nil, failSendingAlert(conn, recordVersion, FailVersion, wire.AlertProtocolVersion, fmt.Errorf("tlssim: server chose unacceptable version %s", sh.Version))
	}
	// Suite acceptance: must be one we offered and usable at the version.
	if !suiteOffered(ch.CipherSuites, sh.CipherSuite) || !sh.CipherSuite.UsableAt(sh.Version) {
		return nil, failSendingAlert(conn, recordVersion, FailParameters, wire.AlertIllegalParameter, fmt.Errorf("tlssim: server chose unacceptable suite %s", sh.CipherSuite))
	}

	cm, err := wire.ParseCertificateMsg(certMsg.Body)
	if err != nil {
		return nil, failSendingAlert(conn, recordVersion, FailParameters, wire.AlertDecodeError, err)
	}
	transcript.add(certMsg)

	// Certificate validation, per the instance's policy.
	state := cfg.State()
	bypass := cfg.Validation == ValidateNone || state.validationDisabled.Load()
	stapled := sh.HasStaple()
	// Leaf pinning binds even instances that skip CA validation — the
	// common IoT pattern of pinning *instead of* PKI validation.
	if cfg.PinnedLeaf != "" && len(cm.Chain) > 0 && cm.Chain[0].Fingerprint() != cfg.PinnedLeaf {
		verr := PinMismatchError{Kind: "leaf", Got: cm.Chain[0].Fingerprint()}
		var sent *wire.Alert
		if a, ok := cfg.Library.AlertForValidationErrorAt(verr, sh.Version); ok {
			wire.WriteAlert(conn, recordVersion, a)
			sent = &a
		}
		return nil, failure(FailCertificate, sent, verr)
	}
	if !bypass {
		vsp := cfg.Trace.Child("chain_verify", serverName)
		verr := validateServerCert(cfg, cm.Chain, serverName, doneMsg.Body, transcript.proofInput(), stapled)
		if verr != nil {
			vsp.End("rejected")
			n := state.consecutiveFailures.Add(1)
			if cfg.DisableValidationAfter > 0 && int(n) >= cfg.DisableValidationAfter {
				state.validationDisabled.Store(true)
			}
			var sent *wire.Alert
			if a, ok := cfg.Library.AlertForValidationErrorAt(verr, sh.Version); ok {
				wire.WriteAlert(conn, recordVersion, a)
				sent = &a
			}
			return nil, failure(FailCertificate, sent, verr)
		}
		vsp.End("ok")
		state.consecutiveFailures.Store(0)
	}
	transcript.add(doneMsg)

	// Optional revocation checking (soft-fail, like real clients).
	if len(cm.Chain) > 0 && cfg.AuxDialer != nil {
		checkRevocation(cfg, cm.Chain[0])
	}

	// Client flight: ClientKeyExchange, ChangeCipherSpec, Finished.
	cke := wire.ClientKeyExchange(keyExchangeMaterial(ch.Random, sh.Random))
	transcript.add(cke)
	fin := wire.FinishedMsg{VerifyData: wire.ComputeVerifyData(transcript.bytes(), "client")}
	finMsg := fin.Message()
	transcript.add(finMsg)
	if err := wire.WriteFlight(conn, recordVersion, cke, finMsg); err != nil {
		return nil, failure(FailIO, nil, err)
	}

	// Server Finished.
	sfin, herr := mr.expect(wire.TypeFinished)
	if herr != nil {
		return nil, herr
	}
	want := wire.ComputeVerifyData(transcript.bytes(), "server")
	if !bytes.Equal(sfin.Body, want) {
		return nil, failSendingAlert(conn, recordVersion, FailParameters, wire.AlertDecryptError, errors.New("tlssim: server Finished verify data mismatch"))
	}

	secret := masterSecret(ch.Random, sh.Random, sh.CipherSuite)
	return &Session{
		Conn:               newSecureConn(conn, sh.Version, secret, true),
		Version:            sh.Version,
		Suite:              sh.CipherSuite,
		PeerChain:          cm.Chain,
		Hello:              ch,
		ServerHello:        sh,
		ValidationBypassed: bypass,
		StapledOCSP:        stapled,
	}, nil
}

// acceptableVersion reports whether the client may proceed at v.
func acceptableVersion(cfg *ClientConfig, ch *wire.ClientHello, v ciphers.Version) bool {
	if v < cfg.MinVersion || v > cfg.MaxVersion || !v.Known() {
		return false
	}
	for _, offered := range ch.SupportedVersions() {
		if offered == v {
			return true
		}
	}
	return false
}

func suiteOffered(offered []ciphers.Suite, s ciphers.Suite) bool {
	for _, o := range offered {
		if o == s {
			return true
		}
	}
	return false
}

// PinMismatchError reports a certificate-pinning failure.
type PinMismatchError struct {
	// Kind is "leaf" or "root".
	Kind string
	// Got is the presented fingerprint.
	Got string
}

// Error implements error.
func (e PinMismatchError) Error() string {
	return fmt.Sprintf("tlssim: pinned %s certificate mismatch (got %s)", e.Kind, e.Got)
}

// validateServerCert applies the configured validation mode and verifies
// the server's possession proof (the transcript MAC carried in
// ServerHelloDone) over proofInput. Client has already checked a pinned
// leaf, before and regardless of validation.
func validateServerCert(cfg *ClientConfig, chain []*certs.Certificate, serverName string, proof, proofInput []byte, stapled bool) error {
	if len(chain) == 0 {
		return errors.New("tlssim: server presented no certificate")
	}
	opts := certs.VerifyOptions{
		Roots:        cfg.Roots,
		Hostname:     serverName,
		At:           cfg.clockOrReal().Now(),
		SkipHostname: cfg.Validation == ValidateNoHostname,
	}
	path, err := certs.Verify(chain, opts)
	if err != nil {
		return err
	}
	if cfg.PinnedRoot != "" {
		anchor := path[len(path)-1]
		if anchor.Fingerprint() != cfg.PinnedRoot {
			return PinMismatchError{Kind: "root", Got: anchor.Fingerprint()}
		}
	}
	// Possession proof: the presenter must hold the leaf key pair.
	if !certs.CheckProof(chain[0].PublicKey, proofInput, proof) {
		return certs.ErrSignature
	}
	// RFC 7633 must-staple: hard-fail when we asked for a staple, the
	// certificate demands one, and none arrived.
	if chain[0].MustStaple && cfg.Revocation.RequestStaple && !stapled {
		return fmt.Errorf("tlssim: certificate requires stapled OCSP response, none provided")
	}
	return nil
}

// checkRevocation performs best-effort OCSP/CRL lookups, generating the
// observable side traffic Table 8 is derived from.
func checkRevocation(cfg *ClientConfig, leaf *certs.Certificate) {
	if cfg.Revocation.CheckOCSP && leaf.OCSPServer != "" {
		if conn, err := cfg.AuxDialer(cfg.SrcHost, leaf.OCSPServer, 80); err == nil {
			fmt.Fprintf(conn, "OCSP-CHECK serial=%d\n", leaf.SerialNumber)
			readLine(conn)
			conn.Close()
		}
	}
	if cfg.Revocation.CheckCRL && leaf.CRLServer != "" {
		if conn, err := cfg.AuxDialer(cfg.SrcHost, leaf.CRLServer, 80); err == nil {
			fmt.Fprintf(conn, "CRL-FETCH issuer=%s\n", leaf.Issuer)
			readLine(conn)
			conn.Close()
		}
	}
}

func readLine(r io.Reader) string {
	var out []byte
	buf := make([]byte, 1)
	for len(out) < 256 {
		n, err := r.Read(buf)
		if n > 0 {
			if buf[0] == '\n' {
				break
			}
			out = append(out, buf[0])
		}
		if err != nil {
			break
		}
	}
	return string(out)
}

// keyExchangeMaterial derives deterministic opaque CKE bytes.
func keyExchangeMaterial(cr, sr [32]byte) []byte {
	out := make([]byte, 32)
	for i := range out {
		out[i] = cr[i] ^ sr[i]
	}
	return out
}

// proofPrefix opens the possession-proof input: the server proves, and
// the client checks, proofPrefix followed by the transcript so far.
const proofPrefix = "iotls server proof:"

// transcriptTail is the room a transcript leaves after the ClientHello.
// Every other message of a handshake presenting a chain of up to three
// certificates fits in it; the catalog study's largest need is 914
// bytes. A longer handshake only costs a reallocation.
const transcriptTail = 1024

// transcript accumulates the framed handshake messages both sides hash
// into Finished and prove or check as the possession proof. Its buffer
// starts with proofPrefix, so the proof input is the buffer itself
// rather than a prefixed copy of the transcript.
type transcript struct{ buf []byte }

// newTranscript starts a transcript with the ClientHello.
func newTranscript(hello wire.Handshake) *transcript {
	t := &transcript{buf: make([]byte, 0, len(proofPrefix)+4+len(hello.Body)+transcriptTail)}
	t.buf = append(t.buf, proofPrefix...)
	t.add(hello)
	return t
}

// add appends msg as framed by wire.Handshake.Marshal.
func (t *transcript) add(msg wire.Handshake) { t.buf = msg.AppendTo(t.buf) }

// bytes returns the transcript so far.
func (t *transcript) bytes() []byte { return t.buf[len(proofPrefix):] }

// proofInput returns proofPrefix followed by the transcript so far.
func (t *transcript) proofInput() []byte { return t.buf }
