package tlssim

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"

	"repro/internal/wire"
)

// These tests pin down how the client classifies the wire damage the
// fault-injection subsystem manufactures (internal/fault via netem):
// truncated and corrupted server flights must fail with a stable,
// deterministic failure class — the driver's retry policies key off it.

// truncatingConn cuts the server's first write inside its first
// record's 5-byte header, after cut bytes, and closes, like netem's
// truncate fault.
type truncatingConn struct {
	net.Conn
	cut int

	mu    sync.Mutex
	fired bool
	first int // the first write's length
}

func (c *truncatingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	fired := c.fired
	c.fired = true
	if !fired {
		c.first = len(p)
	}
	c.mu.Unlock()
	if fired {
		return 0, net.ErrClosed
	}
	n, err := c.Conn.Write(p[:min(c.cut, len(p))])
	c.Conn.Close()
	if err != nil {
		return n, err
	}
	return n, net.ErrClosed
}

// corruptingConn flips one byte of the payload of the server's second
// record, its Certificate, like netem's corrupt fault. It walks the
// records of every write, each of which must hold whole records, and
// keeps a copy of each record it damages as it was before the flip.
type corruptingConn struct {
	net.Conn
	offset int

	mu      sync.Mutex
	records int
	hit     []wire.Record
	torn    bool // some write held part of a record
}

func (c *corruptingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	q := p
	for r := bytes.NewReader(p); r.Len() > 0; {
		at := len(p) - r.Len()
		rec, err := wire.ReadRecord(r)
		if err != nil {
			c.torn = true
			break
		}
		if c.records++; c.records == 2 && len(rec.Payload) > 0 {
			q = append([]byte(nil), p...)
			q[at+5+c.offset%len(rec.Payload)] ^= 0x5a
			c.hit = append(c.hit, rec)
		}
	}
	c.mu.Unlock()
	return c.Conn.Write(q)
}

func TestClientClassifiesTruncatedFlightDeterministically(t *testing.T) {
	root, server := testPKI(t, "h.com")
	classes := map[FailureClass]int{}
	for cut := 1; cut < 5; cut++ {
		for run := 0; run < 3; run++ {
			cc, sc := net.Pipe()
			tc := &truncatingConn{Conn: sc, cut: cut}
			done := make(chan struct{})
			go func() {
				defer close(done)
				Serve(tc, defaultServer(root, server))
			}()
			_, err := Client(cc, defaultClient(root), "h.com", 1)
			<-done
			if tc.first < 5 {
				t.Fatalf("cut %d run %d: the server's first write is %d bytes, not a whole record", cut, run, tc.first)
			}
			var he *HandshakeError
			if !errors.As(err, &he) {
				t.Fatalf("cut %d run %d: err = %v, want HandshakeError", cut, run, err)
			}
			classes[he.Class]++
		}
	}
	if len(classes) != 1 {
		t.Fatalf("truncated flight produced multiple failure classes: %v", classes)
	}
	for class := range classes {
		if class != FailPeerClosed && class != FailIncomplete && class != FailIO {
			t.Fatalf("truncated flight classified %v, want a connection-failure class", class)
		}
	}
}

func TestClientClassifiesCorruptedCertificateDeterministically(t *testing.T) {
	root, server := testPKI(t, "h.com")
	for _, offset := range []int{0, 7, 63} {
		classes := map[FailureClass]int{}
		for run := 0; run < 3; run++ {
			cc, sc := net.Pipe()
			corrupting := &corruptingConn{Conn: sc, offset: offset}
			done := make(chan struct{})
			go func() {
				defer close(done)
				Serve(corrupting, defaultServer(root, server))
			}()
			sess, err := Client(cc, defaultClient(root), "h.com", 1)
			<-done
			if corrupting.torn {
				t.Fatalf("offset %d run %d: a server write held part of a record", offset, run)
			}
			if h := corrupting.hit; len(h) != 1 || h[0].Type != wire.TypeHandshake || wire.HandshakeType(h[0].Payload[0]) != wire.TypeCertificate {
				t.Fatalf("offset %d run %d: flipped bytes in %d records (%v), want one byte of the Certificate record", offset, run, len(h), h)
			}
			if err == nil {
				sess.Close()
				t.Fatalf("offset %d run %d: corrupted Certificate message established", offset, run)
			}
			var he *HandshakeError
			if !errors.As(err, &he) {
				t.Fatalf("offset %d run %d: err = %v, want HandshakeError", offset, run, err)
			}
			classes[he.Class]++
		}
		if len(classes) != 1 {
			t.Fatalf("offset %d: corruption produced multiple failure classes: %v", offset, classes)
		}
	}
}
