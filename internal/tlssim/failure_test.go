package tlssim

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/certs"
	"repro/internal/ciphers"
	"repro/internal/netem"
	"repro/internal/wire"
)

// scriptedServer writes raw bytes (ignoring the protocol) after reading
// the ClientHello, modelling broken or malicious servers.
func scriptedServer(t *testing.T, script func(conn net.Conn)) (net.Conn, chan struct{}) {
	t.Helper()
	cc, sc := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer sc.Close()
		// Consume the ClientHello record.
		sc.SetDeadline(time.Now().Add(time.Second))
		if _, err := wire.ReadRecord(sc); err != nil {
			return
		}
		script(sc)
		// Drain until the client closes so writes do not block it.
		buf := make([]byte, 256)
		for {
			if _, err := sc.Read(buf); err != nil {
				return
			}
		}
	}()
	return cc, done
}

func TestClientRejectsGarbageRecord(t *testing.T) {
	root, _ := testPKI(t, "h.com")
	cc, done := scriptedServer(t, func(conn net.Conn) {
		conn.Write([]byte{99, 3, 3, 0, 2, 1, 2}) // unknown content type
	})
	_, err := Client(cc, defaultClient(root), "h.com", 1)
	<-done
	var he *HandshakeError
	if !errors.As(err, &he) || he.Class != FailParameters {
		t.Fatalf("err = %v, want FailParameters", err)
	}
}

func TestClientRejectsWrongMessageOrder(t *testing.T) {
	root, server := testPKI(t, "h.com")
	cc, done := scriptedServer(t, func(conn net.Conn) {
		// Certificate before ServerHello.
		msg := (&wire.CertificateMsg{Chain: []*certs.Certificate{server.Cert}}).Message()
		wire.WriteHandshake(conn, ciphers.TLS12, msg)
	})
	_, err := Client(cc, defaultClient(root), "h.com", 1)
	<-done
	var he *HandshakeError
	if !errors.As(err, &he) || he.Class != FailParameters {
		t.Fatalf("err = %v, want FailParameters", err)
	}
}

func TestClientRejectsMalformedServerHello(t *testing.T) {
	root, _ := testPKI(t, "h.com")
	cc, done := scriptedServer(t, func(conn net.Conn) {
		wire.WriteHandshake(conn, ciphers.TLS12, wire.Handshake{Type: wire.TypeServerHello, Body: []byte{1, 2}})
	})
	_, err := Client(cc, defaultClient(root), "h.com", 1)
	<-done
	var he *HandshakeError
	if !errors.As(err, &he) || he.Class != FailParameters {
		t.Fatalf("err = %v, want FailParameters", err)
	}
	if he.Alert == nil || he.Alert.Description != wire.AlertDecodeError {
		t.Fatalf("alert = %v, want decode_error", he.Alert)
	}
}

// TestMalformedServerHelloAlertsOverNetem checks that a ServerHello
// that fails to parse ends the handshake over netem's rendezvous
// transport, where the client's decode_error alert and the rest of the
// server's flight would otherwise wait on each other: whether the
// ServerHello comes alone or inside a whole flight written at once, the
// client fails with FailParameters and the server reads the alert.
func TestMalformedServerHelloAlertsOverNetem(t *testing.T) {
	root, server := testPKI(t, "h.com")
	badHello := wire.Handshake{Type: wire.TypeServerHello, Body: []byte{1, 2}}
	chain := (&wire.CertificateMsg{Chain: []*certs.Certificate{server.Cert, root.Cert}}).Message()
	for _, tc := range []struct {
		name   string
		flight []wire.Handshake
	}{
		{"alone", []wire.Handshake{badHello}},
		{"in flight", []wire.Handshake{badHello, chain, wire.ServerHelloDone()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cc, sc := netem.NewPair("dev", "h.com:443")
			alert := make(chan error, 1)
			go func() {
				defer sc.Close()
				if _, err := wire.ReadRecord(sc); err != nil {
					alert <- err
					return
				}
				if err := wire.WriteFlight(sc, ciphers.TLS12, tc.flight...); err != nil {
					alert <- err
					return
				}
				rec, err := wire.ReadRecord(sc)
				if err != nil {
					alert <- err
					return
				}
				a, err := wire.ParseAlert(rec.Payload)
				if err == nil && (rec.Type != wire.TypeAlert || a.Description != wire.AlertDecodeError) {
					err = fmt.Errorf("server read a %s record (%v), want a decode_error alert", rec.Type, a)
				}
				alert <- err
			}()
			done := make(chan error, 1)
			go func() {
				_, err := Client(cc, defaultClient(root), "h.com", 1)
				done <- err
			}()
			var err error
			select {
			case err = <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("client still waiting after 10s: alert and flight deadlocked")
			}
			var he *HandshakeError
			if !errors.As(err, &he) || he.Class != FailParameters || he.Alert == nil || he.Alert.Description != wire.AlertDecodeError {
				t.Fatalf("client err = %v, want FailParameters with decode_error", err)
			}
			if err := <-alert; err != nil {
				t.Fatalf("server: %v", err)
			}
		})
	}
}

func TestClientRejectsMalformedCertificateMsg(t *testing.T) {
	root, _ := testPKI(t, "h.com")
	cc, done := scriptedServer(t, func(conn net.Conn) {
		sh := &wire.ServerHello{Version: ciphers.TLS12, CipherSuite: ciphers.TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256}
		wire.WriteHandshake(conn, ciphers.TLS12, sh.Message())
		wire.WriteHandshake(conn, ciphers.TLS12, wire.Handshake{Type: wire.TypeCertificate, Body: []byte{0, 0, 5, 1, 2, 3, 4, 5}})
		wire.WriteHandshake(conn, ciphers.TLS12, wire.ServerHelloDone())
	})
	_, err := Client(cc, defaultClient(root), "h.com", 1)
	<-done
	var he *HandshakeError
	if !errors.As(err, &he) || he.Class != FailParameters {
		t.Fatalf("err = %v, want FailParameters", err)
	}
}

func TestClientRejectsUnknownCipherSuiteSelection(t *testing.T) {
	root, server := testPKI(t, "h.com")
	cc, done := scriptedServer(t, func(conn net.Conn) {
		sh := &wire.ServerHello{Version: ciphers.TLS12, CipherSuite: ciphers.Suite(0xfefe)}
		wire.WriteHandshake(conn, ciphers.TLS12, sh.Message())
		msg := (&wire.CertificateMsg{Chain: []*certs.Certificate{server.Cert, root.Cert}}).Message()
		wire.WriteHandshake(conn, ciphers.TLS12, msg)
		wire.WriteHandshake(conn, ciphers.TLS12, wire.ServerHelloDone())
	})
	_, err := Client(cc, defaultClient(root), "h.com", 1)
	<-done
	var he *HandshakeError
	if !errors.As(err, &he) || he.Class != FailParameters {
		t.Fatalf("err = %v, want FailParameters (unoffered suite)", err)
	}
	if he.Alert == nil || he.Alert.Description != wire.AlertIllegalParameter {
		t.Fatalf("alert = %v, want illegal_parameter", he.Alert)
	}
}

func TestClientRejectsBogusVersionSelection(t *testing.T) {
	root, server := testPKI(t, "h.com")
	cc, done := scriptedServer(t, func(conn net.Conn) {
		sh := &wire.ServerHello{Version: ciphers.Version(0x0399), CipherSuite: ciphers.TLS_RSA_WITH_AES_128_CBC_SHA}
		wire.WriteHandshake(conn, ciphers.TLS12, sh.Message())
		msg := (&wire.CertificateMsg{Chain: []*certs.Certificate{server.Cert, root.Cert}}).Message()
		wire.WriteHandshake(conn, ciphers.TLS12, msg)
		wire.WriteHandshake(conn, ciphers.TLS12, wire.ServerHelloDone())
	})
	_, err := Client(cc, defaultClient(root), "h.com", 1)
	<-done
	var he *HandshakeError
	if !errors.As(err, &he) || he.Class != FailVersion {
		t.Fatalf("err = %v, want FailVersion", err)
	}
}

func TestClientRejectsEmptyCertificateChain(t *testing.T) {
	root, _ := testPKI(t, "h.com")
	cc, done := scriptedServer(t, func(conn net.Conn) {
		sh := &wire.ServerHello{Version: ciphers.TLS12, CipherSuite: ciphers.TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256}
		wire.WriteHandshake(conn, ciphers.TLS12, sh.Message())
		msg := (&wire.CertificateMsg{Chain: nil}).Message()
		wire.WriteHandshake(conn, ciphers.TLS12, msg)
		wire.WriteHandshake(conn, ciphers.TLS12, wire.ServerHelloDone())
	})
	_, err := Client(cc, defaultClient(root), "h.com", 1)
	<-done
	var he *HandshakeError
	if !errors.As(err, &he) || he.Class != FailCertificate {
		t.Fatalf("err = %v, want FailCertificate", err)
	}
}

func TestClientRejectsForgedServerFinished(t *testing.T) {
	// A full flight with a valid chain, no key and garbage Finished
	// data: the possession proof must catch it first.
	root, server := testPKI(t, "h.com")
	cc, done := scriptedServer(t, func(conn net.Conn) {
		sh := &wire.ServerHello{Version: ciphers.TLS12, CipherSuite: ciphers.TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256}
		sh.Random = [32]byte{1}
		wire.WriteHandshake(conn, ciphers.TLS12, sh.Message())
		msg := (&wire.CertificateMsg{Chain: []*certs.Certificate{server.Cert, root.Cert}}).Message()
		wire.WriteHandshake(conn, ciphers.TLS12, msg)
		wire.WriteHandshake(conn, ciphers.TLS12, wire.ServerHelloDone())
		// Read the client flight (CKE + CCS + Finished records).
		conn.SetDeadline(time.Now().Add(500 * time.Millisecond))
		for i := 0; i < 3; i++ {
			if _, err := wire.ReadRecord(conn); err != nil {
				return
			}
		}
		wire.WriteRecord(conn, wire.Record{Type: wire.TypeChangeCipherSpec, Version: ciphers.TLS12, Payload: []byte{1}})
		wire.WriteHandshake(conn, ciphers.TLS12, wire.Handshake{Type: wire.TypeFinished, Body: []byte("not the verify data")})
	})
	_, err := Client(cc, defaultClient(root), "h.com", 1)
	<-done
	// The possession proof in ServerHelloDone fails first: the scripted
	// server holds no key and sends an empty body.
	var he *HandshakeError
	if !errors.As(err, &he) || he.Class != FailCertificate || !errors.Is(err, certs.ErrSignature) {
		t.Fatalf("err = %v, want a certificate failure caused by ErrSignature", err)
	}
}

func TestServerRejectsGarbageFirstRecord(t *testing.T) {
	root, server := testPKI(t, "h.com")
	cc, sc := net.Pipe()
	resCh := make(chan *ServerResult, 1)
	go func() { resCh <- Serve(sc, defaultServer(root, server)) }()
	cc.Write([]byte{23, 3, 3, 0, 1, 0}) // application data before handshake
	cc.Close()
	res := <-resCh
	if res.Err == nil || res.Err.Class != FailParameters {
		t.Fatalf("server err = %v, want FailParameters", res.Err)
	}
}

func TestServerToleratesClientVanishing(t *testing.T) {
	root, server := testPKI(t, "h.com")
	cc, sc := net.Pipe()
	resCh := make(chan *ServerResult, 1)
	go func() { resCh <- Serve(sc, defaultServer(root, server)) }()
	cc.Close() // client disappears before sending anything
	res := <-resCh
	if res.Err == nil || res.Err.Class != FailPeerClosed {
		t.Fatalf("server err = %v, want FailPeerClosed", res.Err)
	}
}

func TestClientRequiresLibraryProfile(t *testing.T) {
	root, _ := testPKI(t, "h.com")
	cfg := defaultClient(root)
	cfg.Library = nil
	cc, _ := net.Pipe()
	_, err := Client(cc, cfg, "h.com", 1)
	var he *HandshakeError
	if !errors.As(err, &he) || he.Class != FailParameters {
		t.Fatalf("err = %v, want FailParameters", err)
	}
}
