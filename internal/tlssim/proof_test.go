package tlssim

import (
	"bytes"
	"errors"
	"net"
	"testing"

	"repro/internal/certs"
	"repro/internal/ciphers"
	"repro/internal/wire"
)

// tapConn records every byte read through it.
type tapConn struct {
	net.Conn
	read bytes.Buffer
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Write(p[:n])
	return n, err
}

// genuineFlight runs a genuine handshake to host at seq 1 and returns
// the first handshake message of each type the client read.
func genuineFlight(t *testing.T, root, server certs.KeyPair, host string) map[wire.HandshakeType]wire.Handshake {
	t.Helper()
	cc, sc := net.Pipe()
	tap := &tapConn{Conn: cc}
	resCh := make(chan *ServerResult, 1)
	go func() { resCh <- Serve(sc, defaultServer(root, server)) }()
	sess, err := Client(tap, defaultClient(root), host, 1)
	res := <-resCh
	if err != nil {
		t.Fatalf("genuine handshake: %v", err)
	}
	sess.Close()
	res.Session.Close()

	flight := make(map[wire.HandshakeType]wire.Handshake)
	r := bytes.NewReader(tap.read.Bytes())
	for {
		rec, err := wire.ReadRecord(r)
		if err != nil {
			break
		}
		if rec.Type != wire.TypeHandshake {
			continue
		}
		for p := rec.Payload; len(p) > 0; {
			msg, rest, err := wire.ParseHandshake(p)
			if err != nil {
				t.Fatalf("captured flight: %v", err)
			}
			if _, ok := flight[msg.Type]; !ok {
				flight[msg.Type] = msg
			}
			p = rest
		}
	}
	for _, typ := range []wire.HandshakeType{wire.TypeServerHello, wire.TypeCertificate, wire.TypeServerHelloDone} {
		if _, ok := flight[typ]; !ok {
			t.Fatalf("captured flight lacks %v", typ)
		}
	}
	return flight
}

// replayFlight presents the captured ServerHello and chain with the
// given ServerHelloDone body to a client connecting at seq, then reads
// the client's answer, its alert or the first record of its flight, and
// hangs up: the presenter holds no key to finish with.
func replayFlight(t *testing.T, ccfg *ClientConfig, host string, seq uint64, flight map[wire.HandshakeType]wire.Handshake, proof []byte) error {
	t.Helper()
	cc, done := scriptedServer(t, func(conn net.Conn) {
		wire.WriteHandshake(conn, ciphers.TLS12, flight[wire.TypeServerHello])
		wire.WriteHandshake(conn, ciphers.TLS12, flight[wire.TypeCertificate])
		wire.WriteHandshake(conn, ciphers.TLS12, wire.Handshake{Type: wire.TypeServerHelloDone, Body: proof})
		wire.ReadRecord(conn)
		conn.Close()
	})
	_, err := Client(cc, ccfg, host, seq)
	<-done
	return err
}

// TestReplayedChainWithoutKeyFailsSignature pins the possession proof's
// observable: a presenter that replays a genuine chain, but holds no
// leaf key, is rejected as a bad signature, and every library answers
// with its Table 4 bad-signature alert (or its silence).
func TestReplayedChainWithoutKeyFailsSignature(t *testing.T) {
	const host = "h.com"
	root, server := testPKI(t, host)
	flight := genuineFlight(t, root, server, host)
	sh, err := wire.ParseServerHello(flight[wire.TypeServerHello].Body)
	if err != nil {
		t.Fatal(err)
	}

	// Control: under the original ClientHello the captured proof still
	// verifies, so the client gets past validation and fails only when
	// the presenter hangs up instead of sending Finished.
	err = replayFlight(t, defaultClient(root), host, 1, flight, flight[wire.TypeServerHelloDone].Body)
	var he *HandshakeError
	if !errors.As(err, &he) || he.Class == FailCertificate {
		t.Fatalf("replay under the original hello: err = %v, want a post-validation failure", err)
	}

	cases := []struct {
		name  string
		proof []byte
	}{
		{"replayed proof", flight[wire.TypeServerHelloDone].Body},
		{"empty proof", nil},
	}
	for _, p := range Profiles {
		for _, tc := range cases {
			ccfg := defaultClient(root)
			ccfg.Library = p
			err := replayFlight(t, ccfg, host, 2, flight, tc.proof)
			var he *HandshakeError
			if !errors.As(err, &he) || he.Class != FailCertificate {
				t.Fatalf("%s, %s: err = %v, want FailCertificate", p.Name, tc.name, err)
			}
			if !errors.Is(err, certs.ErrSignature) {
				t.Fatalf("%s, %s: err = %v, want ErrSignature", p.Name, tc.name, err)
			}
			want, ok := p.AlertForValidationErrorAt(certs.ErrSignature, sh.Version)
			switch {
			case !ok && he.Alert != nil:
				t.Errorf("%s, %s: sent %v, want no alert", p.Name, tc.name, he.Alert.Description)
			case ok && (he.Alert == nil || *he.Alert != want):
				t.Errorf("%s, %s: sent %v, want %v", p.Name, tc.name, he.Alert, want.Description)
			}
		}
	}
}

// TestKeylessPresenterFailsSignature serves a genuine chain from a key
// pair built by hand around the leaf certificate. The server must not
// crash, and the client must reject the proof it cannot make.
func TestKeylessPresenterFailsSignature(t *testing.T) {
	const host = "h.com"
	root, server := testPKI(t, host)
	scfg := defaultServer(root, server)
	scfg.Key = certs.KeyPair{Cert: server.Cert}
	_, err, res := handshake(t, defaultClient(root), scfg, host)
	var he *HandshakeError
	if !errors.As(err, &he) || he.Class != FailCertificate || !errors.Is(err, certs.ErrSignature) {
		t.Fatalf("client err = %v, want a certificate failure caused by ErrSignature", err)
	}
	if res.ClientAlert == nil || res.ClientAlert.Description != ProfileOpenSSL.BadSignatureAlert {
		t.Fatalf("server observed alert %v, want %v", res.ClientAlert, ProfileOpenSSL.BadSignatureAlert)
	}
}
