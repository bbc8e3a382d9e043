package tlssim

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"

	"repro/internal/wire"
)

// recordingConn keeps a copy of every Write and of every byte Read
// through it.
type recordingConn struct {
	net.Conn

	mu     sync.Mutex
	writes [][]byte
	read   []byte
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), p...))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *recordingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.read = append(c.read, p[:n]...)
	c.mu.Unlock()
	return n, err
}

// flightRecords names the records of one write, failing the test unless
// the write holds whole records only.
func flightRecords(t *testing.T, who string, p []byte) []string {
	t.Helper()
	var out []string
	for r := bytes.NewReader(p); r.Len() > 0; {
		rec, err := wire.ReadRecord(r)
		if err != nil {
			t.Fatalf("%s wrote part of a record: %x (%v)", who, p, err)
		}
		name := rec.Type.String()
		if rec.Type == wire.TypeHandshake {
			wire.EachHandshake(rec.Payload, func(m wire.Handshake) bool {
				name += "/" + m.Type.String()
				return true
			})
		}
		out = append(out, name)
	}
	return out
}

// TestHandshakeWritesOneFlightPerWrite pins the transport calls of a
// full handshake: each side issues exactly one Write per flight, each
// Write holds whole records, and every record reaches the peer whole
// and unchanged.
func TestHandshakeWritesOneFlightPerWrite(t *testing.T) {
	root, server := testPKI(t, "h.com")
	cc, sc := net.Pipe()
	client, srv := &recordingConn{Conn: cc}, &recordingConn{Conn: sc}
	resCh := make(chan *ServerResult, 1)
	go func() { resCh <- Serve(srv, defaultServer(root, server)) }()
	sess, err := Client(client, defaultClient(root), "h.com", 1)
	res := <-resCh
	if err != nil || res.Err != nil {
		t.Fatalf("handshake: client %v, server %v", err, res.Err)
	}
	defer sess.Close()
	defer res.Session.Close()

	for _, side := range []struct {
		who        string
		conn, peer *recordingConn
		want       []string
	}{
		{"client", client, srv, []string{
			"[handshake/client_hello]",
			"[handshake/client_key_exchange change_cipher_spec handshake/finished]",
		}},
		{"server", srv, client, []string{
			"[handshake/server_hello handshake/certificate handshake/server_hello_done]",
			"[change_cipher_spec handshake/finished]",
		}},
	} {
		var got []string
		for _, w := range side.conn.writes {
			got = append(got, fmt.Sprint(flightRecords(t, side.who, w)))
		}
		if fmt.Sprint(got) != fmt.Sprint(side.want) {
			t.Errorf("%s writes:\n got %q\nwant %q", side.who, got, side.want)
		}
		if sent := bytes.Join(side.conn.writes, nil); !bytes.Equal(side.peer.read, sent) {
			t.Errorf("%s sent %d bytes, its peer read %d different ones", side.who, len(sent), len(side.peer.read))
		}
	}
}
