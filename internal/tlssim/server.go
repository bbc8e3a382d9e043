package tlssim

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"

	"repro/internal/ciphers"
	"repro/internal/wire"
)

// ServerResult reports everything an interception proxy or cloud server
// learns from one connection attempt: the ClientHello (the fingerprint
// source), the outcome, and — central to the root-store probe — any
// alert the client sent before giving up.
type ServerResult struct {
	// ClientHello is the parsed hello, nil if none arrived.
	ClientHello *wire.ClientHello
	// Session is the established session; nil on failure.
	Session *Session
	// ClientAlert is the alert received from the client, if any.
	ClientAlert *wire.Alert
	// Err describes the failure; nil on success.
	Err *HandshakeError
	// NegotiatedVersion and NegotiatedSuite record the server's choices
	// (set even when the client subsequently aborts).
	NegotiatedVersion ciphers.Version
	NegotiatedSuite   ciphers.Suite
}

// Serve runs the server side of a TLS handshake over conn. It always
// returns a ServerResult; inspect Err for the outcome. Serve closes conn
// on failure, once, as it returns, but leaves successful sessions open
// for the caller.
func Serve(conn net.Conn, cfg *ServerConfig) *ServerResult {
	res := &ServerResult{}
	tel := cfg.Telemetry
	defer func() {
		tel.Counter("tlssim.server.handshakes").Inc()
		if res.Err != nil {
			conn.Close()
			class := res.Err.Class.String()
			tel.Counter("tlssim.server.failed").Inc()
			tel.Counter("tlssim.server.failed." + class).Inc()
		} else {
			tel.Counter("tlssim.server.established").Inc()
			tel.Counter("tlssim.server.established.version." + metricLabel(res.NegotiatedVersion.String())).Inc()
		}
	}()

	mr := newMsgReader(conn)
	chMsg, herr := mr.expect(wire.TypeClientHello)
	if herr != nil {
		res.Err = herr
		return res
	}
	ch, err := wire.ParseClientHello(chMsg.Body)
	if err != nil {
		res.Err = failSendingAlert(conn, ciphers.TLS10, FailParameters, wire.AlertDecodeError, err)
		return res
	}
	res.ClientHello = ch

	transcript := newTranscript(chMsg)

	switch cfg.Behavior {
	case ServeIncompleteHandshake:
		// Never answer. When the transport supports deterministic
		// stalls (netem pipes), fail the client's pending read right
		// away — same timeout classification, no wall-clock wait.
		// Otherwise hold the connection until the client closes it.
		if s, ok := conn.(interface{ StallPeer() }); ok {
			s.StallPeer()
		}
		io.Copy(io.Discard, conn)
		res.Err = failure(FailIncomplete, nil, errors.New("tlssim: configured to withhold ServerHello"))
		return res
	case ServeReject:
		res.Err = failSendingAlert(conn, ciphers.TLS10, FailParameters, wire.AlertHandshakeFailure, errors.New("tlssim: configured to reject handshakes"))
		return res
	}

	// Version selection: highest client-offered version within our range,
	// unless ForceVersion overrides.
	version, ok := selectVersion(ch, cfg)
	if cfg.ForceVersion != 0 {
		version, ok = cfg.ForceVersion, true
	}
	if !ok {
		res.Err = failSendingAlert(conn, ciphers.TLS10, FailVersion, wire.AlertProtocolVersion, fmt.Errorf("tlssim: no mutually supported version"))
		return res
	}
	res.NegotiatedVersion = version

	suite, ok := ciphers.SelectSuite(ch.CipherSuites, cfg.CipherSuites, version)
	if !ok {
		res.Err = failSendingAlert(conn, ciphers.TLS10, FailParameters, wire.AlertHandshakeFailure, fmt.Errorf("tlssim: no mutually supported ciphersuite at %s", version))
		return res
	}
	res.NegotiatedSuite = suite

	recordVersion := ciphers.MinVersion(version, ciphers.TLS12)
	sh := &wire.ServerHello{
		Version:     version,
		CipherSuite: suite,
	}
	sh.Random = deterministicRandom("server", string(ch.Random[:]), uint64(suite))
	if cfg.OCSPStaple && ch.RequestsOCSPStaple() {
		sh.Extensions = append(sh.Extensions, wire.Extension{Type: wire.ExtStatusRequest})
	}
	shMsg := sh.Message()
	transcript.add(shMsg)
	certMsg := (&wire.CertificateMsg{Chain: cfg.Chain}).Message()
	transcript.add(certMsg)
	// ServerHelloDone carries the possession proof: the leaf key pair's
	// MAC over the transcript so far.
	doneMsg := wire.Handshake{Type: wire.TypeServerHelloDone, Body: cfg.Key.Prove(transcript.proofInput())}
	transcript.add(doneMsg)
	if err := wire.WriteFlight(conn, recordVersion, shMsg, certMsg, doneMsg); err != nil {
		res.Err = failure(FailIO, nil, err)
		return res
	}

	// Client flight: ClientKeyExchange, (CCS), Finished — or an alert if
	// the client rejected our certificate.
	ckeMsg, herr := mr.expect(wire.TypeClientKeyExchange)
	if herr != nil {
		res.ClientAlert = mr.LastAlert
		res.Err = herr
		return res
	}
	transcript.add(ckeMsg)
	finMsg, herr := mr.expect(wire.TypeFinished)
	if herr != nil {
		res.ClientAlert = mr.LastAlert
		res.Err = herr
		return res
	}
	wantClient := wire.ComputeVerifyData(transcript.bytes(), "client")
	if !bytes.Equal(finMsg.Body, wantClient) {
		res.Err = failSendingAlert(conn, recordVersion, FailParameters, wire.AlertDecryptError,
			errors.New("tlssim: client Finished verify data mismatch"))
		return res
	}
	transcript.add(finMsg)

	// Server CCS + Finished.
	sfin := wire.FinishedMsg{VerifyData: wire.ComputeVerifyData(transcript.bytes(), "server")}
	if err := wire.WriteFlight(conn, recordVersion, sfin.Message()); err != nil {
		res.Err = failure(FailIO, nil, err)
		return res
	}

	secret := masterSecret(ch.Random, sh.Random, suite)
	res.Session = &Session{
		Conn:        newSecureConn(conn, version, secret, false),
		Version:     version,
		Suite:       suite,
		Hello:       ch,
		ServerHello: sh,
		StapledOCSP: sh.HasStaple(),
	}
	return res
}

// selectVersion picks the highest client-offered version within the
// server's configured range.
func selectVersion(ch *wire.ClientHello, cfg *ServerConfig) (ciphers.Version, bool) {
	best := ciphers.Version(0)
	for _, v := range ch.SupportedVersions() {
		if v >= cfg.MinVersion && v <= cfg.MaxVersion && v > best && v.Known() {
			best = v
		}
	}
	return best, best != 0
}
