package netem

import (
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/telemetry"
)

// Conn is one end of an in-memory connection, the testbed's one
// transport, with net.Pipe's semantics and error values: a Write
// returns once the peer has read all of it, a Read never spans two
// Writes, and closing either end fails every call on both. Both ends
// share one mutex and condition variable. A Conn keeps no wall-clock
// deadlines: a call blocks until the peer acts, closes or stalls, and a
// connection that never does is the study watchdog's to find
// (Network.Overdue) and end (Network.Abort).
type Conn struct {
	p             *pair
	peer          *Conn
	local, remote hostAddr
	wmu           sync.Mutex // serializes this end's writes

	// Guarded by p.mu.
	closed, stalled bool   // stalled: reads time out at once (StallPeer)
	rx              []byte // what the peer's pending Write still offers
	rxPending       bool   // the peer has a Write pending (rx may be empty)

	// Set before the connection is handed out: a dialed client end
	// names its network (whose open set holds it) and a mirrored one
	// feeds mirror; a faulted server end degrades its writes (faults.go).
	mirror         Mirror
	nw             *Network
	fault          fault.Kind
	entropy        uint64
	sent, received atomic.Int64 // mirrored byte totals

	// Guarded by wmu: where the faulted server end's writes stand.
	walk      recordWalk
	truncated bool
}

// pair is one allocation holding a whole connection.
type pair struct {
	mu   sync.Mutex
	cond sync.Cond
	ends [2]Conn
}

// NewPair returns the two ends of a new connection from clientAddr to
// serverAddr; each end's LocalAddr and RemoteAddr name them.
func NewPair(clientAddr, serverAddr string) (client, server *Conn) {
	p := &pair{}
	p.cond.L = &p.mu
	client, server = &p.ends[0], &p.ends[1]
	client.p, client.peer, client.local, client.remote = p, server, hostAddr(clientAddr), hostAddr(serverAddr)
	server.p, server.peer, server.local, server.remote = p, client, hostAddr(serverAddr), hostAddr(clientAddr)
	return client, server
}

func (c *Conn) LocalAddr() net.Addr  { return c.local }
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

func (c *Conn) Read(b []byte) (int, error) {
	c.p.mu.Lock()
	n, err := c.read(b)
	c.p.mu.Unlock()
	if n > 0 && c.mirror != nil {
		c.mirror.ServerBytes(b[:n])
		c.received.Add(int64(n))
		c.nw.hot.mirrorFrames.Inc()
		c.nw.hot.mirrorServerBytes.Add(int64(n))
	}
	return n, err
}

func (c *Conn) read(b []byte) (int, error) {
	for {
		switch {
		case c.closed:
			return 0, io.ErrClosedPipe
		case c.peer.closed:
			return 0, io.EOF
		case c.stalled:
			return 0, &net.OpError{Op: "read", Net: "pipe", Err: os.ErrDeadlineExceeded}
		case c.rxPending:
			n := copy(b, c.rx)
			if c.rx = c.rx[n:]; len(c.rx) == 0 {
				c.rx, c.rxPending = nil, false
				c.p.cond.Broadcast()
			}
			return n, nil
		}
		c.p.cond.Wait()
	}
}

func (c *Conn) Write(b []byte) (int, error) {
	c.wmu.Lock()
	var n int
	var err error
	if c.fault == fault.KindTruncate || c.fault == fault.KindCorrupt {
		n, err = c.degradedWrite(b)
	} else {
		n, err = c.write(b)
	}
	c.wmu.Unlock()
	if n > 0 && c.mirror != nil {
		c.mirror.ClientBytes(b[:n])
		c.sent.Add(int64(n))
		c.nw.hot.mirrorFrames.Inc()
		c.nw.hot.mirrorClientBytes.Add(int64(n))
	}
	return n, err
}

// write offers b to the peer and waits until the peer has read it all,
// returning how much it read. The caller holds wmu.
func (c *Conn) write(b []byte) (n int, err error) {
	c.p.mu.Lock()
	defer c.p.mu.Unlock()
	dst := c.peer
	dst.rx, dst.rxPending = b, true
	for c.p.cond.Broadcast(); dst.rxPending; c.p.cond.Wait() {
		if c.closed || dst.closed {
			err = io.ErrClosedPipe
			break
		}
	}
	n = len(b) - len(dst.rx)
	dst.rx, dst.rxPending = nil, false
	return n, err
}

// SetDeadline, SetReadDeadline and SetWriteDeadline exist to satisfy
// net.Conn. The simulated data path carries no wall-clock deadline, so
// each fails with os.ErrNoDeadline and changes nothing.
func (c *Conn) SetDeadline(time.Time) error      { return os.ErrNoDeadline }
func (c *Conn) SetReadDeadline(time.Time) error  { return os.ErrNoDeadline }
func (c *Conn) SetWriteDeadline(time.Time) error { return os.ErrNoDeadline }

// StallPeer is how a handler that will never answer says so: it fails
// the peer's reads at once with a timeout, a real timeout's failure
// class, but no outcome depends on wall-clock scheduling, so artifacts
// stay bit-identical.
func (c *Conn) StallPeer() {
	c.p.mu.Lock()
	c.peer.stalled = true
	c.p.cond.Broadcast()
	c.p.mu.Unlock()
}

// Close closes this end; closing twice returns nil, as net.Pipe does.
// No call blocks once either end is closed. A dialed client end's first
// Close takes it out of its network's open set, so nothing keeps the
// pair live after its users drop it.
func (c *Conn) Close() error {
	c.p.mu.Lock()
	first := !c.closed
	c.closed = true
	c.p.cond.Broadcast()
	c.p.mu.Unlock()
	if first && c.mirror != nil {
		c.mirror.CloseMirror()
		c.nw.tel.Histogram("netem.conn.client_bytes", telemetry.SizeBuckets).Observe(c.sent.Load())
		c.nw.tel.Histogram("netem.conn.server_bytes", telemetry.SizeBuckets).Observe(c.received.Load())
	}
	if first && c.nw != nil {
		c.nw.openMu.Lock()
		delete(c.nw.open, c)
		c.nw.openMu.Unlock()
	}
	return nil
}

// hostAddr is a net.Addr naming a simulated host.
type hostAddr string

func (h hostAddr) Network() string { return "iotls" }
func (h hostAddr) String() string  { return string(h) }
