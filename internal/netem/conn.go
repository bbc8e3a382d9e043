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
// share one mutex, condition variable and reusable timer; a deadline is
// a stored time checked whenever a call would block, and the timer is
// armed only while a call with a deadline is blocked.
type Conn struct {
	p             *pair
	peer          *Conn
	local, remote hostAddr
	wmu           sync.Mutex // serializes this end's writes

	// Guarded by p.mu.
	closed, stalled bool   // stalled: reads time out at once (StallPeer)
	rx              []byte // what the peer's pending Write still offers
	rxPending       bool   // the peer has a Write pending (rx may be empty)
	rd, wr          time.Time

	// Set before the connection is handed out: a mirrored client end
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
	mu      sync.Mutex
	cond    sync.Cond
	timer   *time.Timer
	timerAt time.Time // when timer fires; zero when disarmed
	ends    [2]Conn
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
		case expired(c.rd):
			return 0, &net.OpError{Op: "read", Net: "pipe", Err: os.ErrDeadlineExceeded}
		}
		c.wait(c.rd)
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
	for c.p.cond.Broadcast(); dst.rxPending; c.wait(c.wr) {
		if c.closed || dst.closed {
			err = io.ErrClosedPipe
			break
		}
		if expired(c.wr) {
			err = &net.OpError{Op: "write", Net: "pipe", Err: os.ErrDeadlineExceeded}
			break
		}
	}
	n = len(b) - len(dst.rx)
	dst.rx, dst.rxPending = nil, false
	return n, err
}

func expired(d time.Time) bool { return !d.IsZero() && !time.Now().Before(d) }

// wait blocks until the next broadcast. With deadline d set, the pair's
// timer is armed to broadcast by d; a waiter woken early re-arms it.
func (c *Conn) wait(d time.Time) {
	p := c.p
	if !d.IsZero() && (p.timerAt.IsZero() || d.Before(p.timerAt)) {
		p.timerAt = d
		if p.timer == nil {
			p.timer = time.AfterFunc(time.Until(d), func() {
				p.mu.Lock()
				p.timerAt = time.Time{}
				p.cond.Broadcast()
				p.mu.Unlock()
			})
		} else {
			p.timer.Reset(time.Until(d))
		}
	}
	p.cond.Wait()
}

func (c *Conn) SetDeadline(t time.Time) error      { return c.setDeadline(t, &c.rd, &c.wr) }
func (c *Conn) SetReadDeadline(t time.Time) error  { return c.setDeadline(t, &c.rd, &c.rd) }
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.setDeadline(t, &c.wr, &c.wr) }

func (c *Conn) setDeadline(t time.Time, a, b *time.Time) error {
	c.p.mu.Lock()
	defer c.p.mu.Unlock()
	if c.closed || c.peer.closed {
		return io.ErrClosedPipe
	}
	*a, *b = t, t
	c.p.cond.Broadcast()
	return nil
}

// Staller is implemented by both ends of every connection. A handler
// that will never answer calls StallPeer, failing the client's reads at
// once with a timeout: a real timeout's failure class, but no outcome
// depends on wall-clock scheduling, so artifacts stay bit-identical.
type Staller interface{ StallPeer() }

func (c *Conn) StallPeer() {
	c.p.mu.Lock()
	c.peer.stalled = true
	c.p.cond.Broadcast()
	c.p.mu.Unlock()
}

// Close closes this end; closing twice returns nil, as net.Pipe does.
// No call blocks once either end is closed, so Close stops the timer
// and nothing keeps the pair live after its users drop it.
func (c *Conn) Close() error {
	c.p.mu.Lock()
	first := !c.closed
	c.closed = true
	if c.p.timer != nil {
		c.p.timer.Stop()
	}
	c.p.cond.Broadcast()
	c.p.mu.Unlock()
	if first && c.mirror != nil {
		c.mirror.CloseMirror()
		c.nw.mirrorsOpen.Add(-1)
		c.nw.tel.Histogram("netem.conn.client_bytes", telemetry.SizeBuckets).Observe(c.sent.Load())
		c.nw.tel.Histogram("netem.conn.server_bytes", telemetry.SizeBuckets).Observe(c.received.Load())
	}
	return nil
}

// hostAddr is a net.Addr naming a simulated host.
type hostAddr string

func (h hostAddr) Network() string { return "iotls" }
func (h hostAddr) String() string  { return string(h) }
