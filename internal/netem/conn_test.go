package netem

import (
	"errors"
	"io"
	"os"
	"testing"
	"time"
)

// result is one Read or Write outcome, handed back from a goroutine.
type result struct {
	n   int
	err error
}

// await returns the outcome on ch, failing the test if none arrives
// within a generous bound (a call that is never woken would hang).
func await(t *testing.T, ch <-chan result, what string) result {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never returned", what)
		return result{}
	}
}

func isTimeout(err error) bool {
	return errors.Is(err, os.ErrDeadlineExceeded) && err.Error() == "read pipe: i/o timeout"
}

// TestWriteWaitsForPeerRead pins the transport's rendezvous choice: a
// Write returns only once the peer has read every byte, so with no
// reader it waits until the peer closes and then reports nothing
// delivered, and with a partial read it reports exactly the bytes the
// peer took. A Read never spans two Writes. A buffered transport fails
// all three.
func TestWriteWaitsForPeerRead(t *testing.T) {
	client, server := NewPair("dev", "srv:443")
	done := make(chan result, 1)
	go func() {
		n, err := client.Write([]byte("abcd"))
		done <- result{n, err}
	}()
	select {
	case r := <-done:
		t.Fatalf("unread Write returned (%d, %v) before the peer read or closed", r.n, r.err)
	case <-time.After(20 * time.Millisecond):
	}
	server.Close()
	if r := await(t, done, "Write"); r.n != 0 || r.err != io.ErrClosedPipe {
		t.Fatalf("unread Write = (%d, %v), want (0, io.ErrClosedPipe)", r.n, r.err)
	}
	client.Close()

	client, server = NewPair("dev", "srv:443")
	defer client.Close()
	go func() {
		n, err := client.Write([]byte("abcd"))
		done <- result{n, err}
	}()
	buf := make([]byte, 2)
	if n, err := server.Read(buf); n != 2 || err != nil || string(buf) != "ab" {
		t.Fatalf("partial Read = (%d, %v, %q)", n, err, buf[:n])
	}
	// The Write is still waiting for "cd"; the peer's Close ends it.
	server.Close()
	if r := await(t, done, "Write"); r.n != 2 || r.err != io.ErrClosedPipe {
		t.Fatalf("half-read Write = (%d, %v), want (2, io.ErrClosedPipe)", r.n, r.err)
	}

	client, server = NewPair("dev", "srv:443")
	defer client.Close()
	go func() {
		client.Write([]byte("ab"))
		client.Write([]byte("cd"))
	}()
	buf = make([]byte, 8)
	for _, want := range []string{"ab", "cd"} {
		if n, err := server.Read(buf); err != nil || string(buf[:n]) != want {
			t.Fatalf("Read = (%q, %v), want %q: a Read must not span two Writes", buf[:n], err, want)
		}
	}
}

// TestWrittenBytesReadableBeforeEOF checks that what a peer wrote
// before closing is read in full, then io.EOF; and that a Write cut off
// by its own end's Close reports only the bytes the peer read, the
// rest never arriving.
func TestWrittenBytesReadableBeforeEOF(t *testing.T) {
	client, server := NewPair("dev", "srv:443")
	go func() {
		server.Write([]byte("hello"))
		server.Close()
	}()
	got, err := io.ReadAll(client)
	if err != nil || string(got) != "hello" {
		t.Fatalf("ReadAll = (%q, %v), want hello then EOF", got, err)
	}
	if n, err := client.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("Read after EOF = (%d, %v), want io.EOF", n, err)
	}
	client.Close()

	client, server = NewPair("dev", "srv:443")
	defer client.Close()
	done := make(chan result, 1)
	go func() {
		n, err := server.Write([]byte("hello world"))
		done <- result{n, err}
	}()
	buf := make([]byte, 5)
	if _, err := io.ReadFull(client, buf); err != nil {
		t.Fatal(err)
	}
	server.Close()
	if r := await(t, done, "Write"); r.n != 5 || r.err != io.ErrClosedPipe {
		t.Fatalf("Write cut by Close = (%d, %v), want (5, io.ErrClosedPipe)", r.n, r.err)
	}
	if n, err := client.Read(buf); n != 0 || err != io.EOF {
		t.Fatalf("Read after peer Close = (%d, %v), want io.EOF", n, err)
	}
}

// TestClosedErrors pins net.Pipe's error values on a closed connection:
// writes to a closed peer and every call on a closed end fail with
// io.ErrClosedPipe, and Close is idempotent.
func TestClosedErrors(t *testing.T) {
	client, server := NewPair("dev", "srv:443")
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := client.Write([]byte("x")); n != 0 || err != io.ErrClosedPipe {
		t.Fatalf("Write to closed peer = (%d, %v), want io.ErrClosedPipe", n, err)
	}
	if _, err := server.Read(make([]byte, 1)); err != io.ErrClosedPipe {
		t.Fatalf("Read on closed end = %v, want io.ErrClosedPipe", err)
	}
	if _, err := server.Write([]byte("x")); err != io.ErrClosedPipe {
		t.Fatalf("Write on closed end = %v, want io.ErrClosedPipe", err)
	}
	for _, c := range []*Conn{server, client, client} {
		if err := c.Close(); err != nil {
			t.Fatalf("Close = %v, want nil", err)
		}
	}
}

// TestReadDeadlines checks that a Conn keeps no wall-clock deadline:
// each setter fails with os.ErrNoDeadline, open or closed, and a Read
// after a past read deadline still waits for the peer.
func TestReadDeadlines(t *testing.T) {
	client, server := NewPair("dev", "srv:443")
	for _, set := range []func(time.Time) error{client.SetDeadline, client.SetReadDeadline, client.SetWriteDeadline} {
		if err := set(time.Now()); err != os.ErrNoDeadline {
			t.Fatalf("deadline setter = %v, want os.ErrNoDeadline", err)
		}
	}
	done := make(chan result, 1)
	go func() {
		n, err := client.Read(make([]byte, 1))
		done <- result{n, err}
	}()
	if _, err := server.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if r := await(t, done, "Read"); r.n != 1 || r.err != nil {
		t.Fatalf("Read after a past deadline = (%d, %v), want the peer's byte", r.n, r.err)
	}
	server.Close()
	client.Close()
	if err := client.SetDeadline(time.Now()); err != os.ErrNoDeadline {
		t.Fatalf("SetDeadline on a closed end = %v, want os.ErrNoDeadline", err)
	}
}

// TestStallPeerFailsPendingRead checks the deterministic stall: a
// blocked Read fails at once with a timeout when the peer stalls, and
// every later Read fails the same way.
func TestStallPeerFailsPendingRead(t *testing.T) {
	client, server := NewPair("dev", "srv:443")
	defer client.Close()
	defer server.Close()
	done := make(chan result, 1)
	go func() {
		n, err := client.Read(make([]byte, 1))
		done <- result{n, err}
	}()
	server.StallPeer()
	if r := await(t, done, "Read"); !isTimeout(r.err) {
		t.Fatalf("stalled Read = %v, want timeout", r.err)
	}
	if _, err := client.Read(make([]byte, 1)); !isTimeout(err) {
		t.Fatalf("second stalled Read = %v, want the stall's timeout", err)
	}
}
