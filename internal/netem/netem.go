// Package netem provides the in-memory network substrate for the IoTLS
// testbed: hosts, dialers, listeners, DNS-style name resolution, and —
// crucially for the study — a gateway vantage point that can both
// passively mirror every byte crossing it (the paper's passive
// experiments) and actively redirect connections to an interception
// handler (the paper's mitmproxy-based active experiments).
//
// Connections are real net.Conn pairs (net.Pipe), so TLS state machines
// running on top exercise genuine blocking reads/writes, deadlines and
// close semantics.
package netem

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ConnMeta describes one connection crossing the gateway.
type ConnMeta struct {
	// SrcHost is the originating host name (a device identifier).
	SrcHost string
	// DstHost and DstPort identify the dialed destination by name.
	DstHost string
	DstPort int
	// At is the (virtual) time the connection was opened.
	At time.Time
	// Trace is the connection attempt's trace span (nil when the dial
	// is untraced). Mirrors use it to attach capture-write spans to the
	// attempt that produced the bytes.
	Trace *trace.Span

	// addr caches the rendered destination. Dial fills it once so the
	// several Addr calls along the dial path (routing, telemetry, fault
	// keying, mirroring) don't re-format the string.
	addr string
}

// Addr renders the destination as "host:port".
func (m ConnMeta) Addr() string {
	if m.addr != "" {
		return m.addr
	}
	return m.DstHost + ":" + strconv.Itoa(m.DstPort)
}

// Handler serves the server side of an accepted connection. The handler
// owns conn and must close it.
type Handler func(conn net.Conn, meta ConnMeta)

// Tap decides what happens to a new connection at the gateway. Returning
// nil lets the connection through to its real destination; returning a
// Handler hijacks it (the interception path). The paper's
// TrafficPassthrough mode is a Tap that selectively returns nil.
type Tap func(meta ConnMeta) Handler

// Mirror receives a copy of every byte crossing the gateway for one
// connection, split by direction. Implementations must tolerate calls
// from the two transfer goroutines concurrently. CloseMirror is called
// exactly once after both directions have finished.
type Mirror interface {
	// ClientBytes observes bytes flowing client -> server.
	ClientBytes(p []byte)
	// ServerBytes observes bytes flowing server -> client.
	ServerBytes(p []byte)
	// CloseMirror signals the end of the connection.
	CloseMirror()
}

// MirrorFactory creates a Mirror for each new connection, or returns nil
// to skip mirroring that connection.
type MirrorFactory func(meta ConnMeta) Mirror

// Impairment degrades the network deterministically — the testbed's
// stand-in for flaky home WiFi. Zero values disable each effect.
type Impairment struct {
	// DialDelay adds connection-setup latency to every Dial.
	DialDelay time.Duration
	// DropEveryN black-holes every Nth connection (counting from the
	// Nth): the peer accepts bytes but never answers, so clients
	// experience an incomplete handshake — the trigger for the Table 5
	// fallback behaviours in the wild.
	DropEveryN int
}

// DefaultIODeadline is the wall-clock deadline applied to
// post-handshake application reads across the testbed (driver replies,
// cloud request handling, the mitm payload read, the audit exchange,
// and the OCSP/CRL responders). It is a safety net against bugs, not a
// simulation mechanism: the deterministic stall signal (Staller) is the
// primary failure path, and this deadline only has to be long enough
// that scheduling delays on a loaded host can never flip an outcome.
const DefaultIODeadline = 5 * time.Second

// Network is the simulated smart-home network: devices on one side, a
// gateway in the middle, and cloud services on the other.
type Network struct {
	clk clock.Clock
	tel *telemetry.Registry

	mu              sync.RWMutex
	listeners       map[string]Handler
	tap             Tap
	taps            []*tapEntry
	mirror          MirrorFactory
	connCount       int
	impairment      Impairment
	dropped         int
	droppedOrdinals []int
	faults          *fault.Plan

	// handlers counts in-flight server handler goroutines, so barriers
	// can join them before the virtual clock moves.
	handlers sync.WaitGroup

	// hot caches the dial-path counter handles; Registry.Counter is a
	// lock-guarded map lookup, too heavy for once-per-dial (and
	// once-per-Read on mirrored conns).
	hot hotCounters

	// endpointCounters caches "netem.endpoint.<addr>" counters keyed by
	// addr, saving the per-dial string concat and registry lookup.
	endpointCounters sync.Map // string -> *telemetry.Counter
}

// hotCounters holds pre-resolved telemetry counters for the dial path.
type hotCounters struct {
	dials, dialsDropped, dialsTapped, dialsNoRoute *telemetry.Counter
	faultsLatency, faultsDialFail, faultsReset     *telemetry.Counter
	faultsStall, faultsTruncate, faultsCorrupt     *telemetry.Counter
	mirrorConns, mirrorFrames                      *telemetry.Counter
	mirrorClientBytes, mirrorServerBytes           *telemetry.Counter
}

// tapEntry is one AddTap registration, boxed so the remove closure can
// identify its own entry by pointer.
type tapEntry struct {
	tap Tap
}

// New creates an empty network observing time through clk. The network
// carries the testbed's telemetry registry (reading virtual time from
// the same clock); every layer that holds a *Network reaches its
// instruments through Telemetry.
func New(clk clock.Clock) *Network {
	n := &Network{clk: clk, tel: telemetry.New(clk), listeners: make(map[string]Handler)}
	n.hot = hotCounters{
		dials:             n.tel.Counter("netem.dials"),
		dialsDropped:      n.tel.Counter("netem.dials.dropped"),
		dialsTapped:       n.tel.Counter("netem.dials.tapped"),
		dialsNoRoute:      n.tel.Counter("netem.dials.no_route"),
		faultsLatency:     n.tel.Counter("netem.faults.latency"),
		faultsDialFail:    n.tel.Counter("netem.faults.dial_fail"),
		faultsReset:       n.tel.Counter("netem.faults.reset"),
		faultsStall:       n.tel.Counter("netem.faults.stall"),
		faultsTruncate:    n.tel.Counter("netem.faults.truncate"),
		faultsCorrupt:     n.tel.Counter("netem.faults.corrupt"),
		mirrorConns:       n.tel.Counter("netem.mirror.conns"),
		mirrorFrames:      n.tel.Counter("netem.mirror.frames"),
		mirrorClientBytes: n.tel.Counter("netem.mirror.client_bytes"),
		mirrorServerBytes: n.tel.Counter("netem.mirror.server_bytes"),
	}
	return n
}

// endpointCounter returns the cached per-endpoint dial counter.
func (n *Network) endpointCounter(addr string) *telemetry.Counter {
	if c, ok := n.endpointCounters.Load(addr); ok {
		return c.(*telemetry.Counter)
	}
	c := n.tel.Counter("netem.endpoint." + addr)
	n.endpointCounters.Store(addr, c)
	return c
}

// Telemetry returns the network's metrics registry, the shared
// observability surface of one testbed.
func (n *Network) Telemetry() *telemetry.Registry { return n.tel }

// ErrNoRoute is returned by Dial when no listener serves the destination.
var ErrNoRoute = errors.New("netem: no route to host")

// Listen registers h as the service at host:port, replacing any previous
// registration.
func (n *Network) Listen(host string, port int, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.listeners[fmt.Sprintf("%s:%d", host, port)] = h
}

// Unlisten removes the service at host:port.
func (n *Network) Unlisten(host string, port int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.listeners, fmt.Sprintf("%s:%d", host, port))
}

// SetTap installs the gateway interception hook (nil disables). It is
// the single designated tap slot; independent taps that must coexist —
// concurrent per-device experiments — use AddTap instead.
func (n *Network) SetTap(t Tap) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.tap = t
}

// AddTap registers an additional interception hook and returns its
// remove function. Taps are consulted in registration order (after the
// SetTap slot); the first one returning a non-nil handler hijacks the
// connection. Taps filtering on disjoint sources compose, which is what
// lets active experiments against different devices run concurrently.
func (n *Network) AddTap(t Tap) (remove func()) {
	e := &tapEntry{tap: t}
	n.mu.Lock()
	n.taps = append(n.taps, e)
	n.mu.Unlock()
	return func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		for i, x := range n.taps {
			if x == e {
				n.taps = append(n.taps[:i], n.taps[i+1:]...)
				return
			}
		}
	}
}

// SetMirror installs the passive byte-mirroring hook (nil disables).
func (n *Network) SetMirror(f MirrorFactory) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.mirror = f
}

// ConnCount reports how many connections have been opened since creation.
func (n *Network) ConnCount() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.connCount
}

// SetImpairment configures network degradation (zero value disables).
func (n *Network) SetImpairment(imp Impairment) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.impairment = imp
}

// Dropped reports how many connections the impairment has black-holed.
func (n *Network) Dropped() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.dropped
}

// DroppedOrdinals returns the global connection ordinals (1-based
// ConnCount positions) the impairment black-holed, in drop order. The
// ordinal set is a function of DropEveryN alone, so it is identical at
// any worker count even though which logical dial lands on an ordinal
// is scheduling-dependent.
func (n *Network) DroppedOrdinals() []int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return append([]int(nil), n.droppedOrdinals...)
}

// SetFaultPlan arms (or, with nil, disarms) deterministic fault
// injection at the gateway. Device runtimes read the armed plan to
// decide whether their resilience policies are in effect.
func (n *Network) SetFaultPlan(p *fault.Plan) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.faults = p
}

// FaultPlan returns the armed fault plan, or nil.
func (n *Network) FaultPlan() *fault.Plan {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.faults
}

// blackHole swallows everything the client sends and never answers.
// It declares the stall up front, so the client's read fails with a
// timeout immediately instead of waiting out its handshake deadline —
// same failure class, no wall-clock sensitivity.
func blackHole(conn net.Conn, _ ConnMeta) {
	defer conn.Close()
	if s, ok := conn.(Staller); ok {
		s.StallPeer()
	}
	buf := make([]byte, 1024)
	for {
		if _, err := conn.Read(buf); err != nil {
			return
		}
	}
}

// Dial opens a connection from srcHost to dstHost:dstPort through the
// gateway. The returned conn is the client side; the matching server side
// is passed to the interception handler (if the tap hijacks) or to the
// registered listener. Dial fails with ErrNoRoute when neither applies.
func (n *Network) Dial(srcHost, dstHost string, dstPort int) (net.Conn, error) {
	return n.DialTraced(srcHost, dstHost, dstPort, nil)
}

// DialTraced is Dial with a parent trace span: the gateway records any
// impairment drop or injected fault as a "fault" child span of the
// connection attempt, and threads the span to the mirror through
// ConnMeta so capture writes join the same subtree.
func (n *Network) DialTraced(srcHost, dstHost string, dstPort int, sp *trace.Span) (net.Conn, error) {
	meta := ConnMeta{SrcHost: srcHost, DstHost: dstHost, DstPort: dstPort, At: n.clk.Now(), Trace: sp}
	meta.addr = meta.DstHost + ":" + strconv.Itoa(meta.DstPort)

	n.mu.Lock()
	n.connCount++
	tap := n.tap
	taps := append([]*tapEntry(nil), n.taps...)
	mirror := n.mirror
	handler := n.listeners[meta.Addr()]
	imp := n.impairment
	plan := n.faults
	drop := imp.DropEveryN > 0 && n.connCount%imp.DropEveryN == 0
	if drop {
		n.dropped++
		n.droppedOrdinals = append(n.droppedOrdinals, n.connCount)
	}
	n.mu.Unlock()

	n.hot.dials.Inc()
	n.endpointCounter(meta.addr).Inc()

	// Fault decisions are keyed by (src, dst, per-key ordinal), so
	// dropped dials must not consume an ordinal — DropEveryN assignment
	// is global-scheduling-dependent at >1 workers, and letting it
	// shift the per-key sequence would desynchronize the plan.
	var dec fault.Decision
	if plan != nil && !drop {
		dec = plan.Decide(srcHost, meta.Addr(), meta.At)
	}

	// Record what the gateway is about to do to this attempt as fault
	// spans, before the effects land, so even a refused dial carries its
	// cause in the trace tree.
	if drop {
		sp.Child("fault", "drop").End("injected")
	}
	for _, detail := range dec.TraceDetails() {
		sp.Child("fault", detail).End("injected")
	}

	if imp.DialDelay > 0 {
		time.Sleep(imp.DialDelay)
	}
	if dec.Delay > 0 {
		n.hot.faultsLatency.Inc()
		time.Sleep(dec.Delay)
	}
	if drop {
		n.hot.dialsDropped.Inc()
		handler = blackHole
		tap = nil
		taps = nil
	}
	switch dec.Kind {
	case fault.KindDialFail:
		n.hot.faultsDialFail.Inc()
		return nil, fmt.Errorf("%w: connection to %s refused", fault.ErrInjected, meta.Addr())
	case fault.KindReset:
		// The reset and stall faults hijack the connection before
		// routing, like a drop: neither the destination nor any
		// interception tap sees it (the mirror still does — partial
		// handshakes are signal for the sniffer).
		n.hot.faultsReset.Inc()
		handler = resetAfterHello
		tap = nil
		taps = nil
	case fault.KindStall:
		n.hot.faultsStall.Inc()
		handler = blackHole
		tap = nil
		taps = nil
	}

	hijacked := false
	if tap != nil {
		if h := tap(meta); h != nil {
			handler = h
			hijacked = true
		}
	}
	for _, e := range taps {
		if hijacked {
			break
		}
		if h := e.tap(meta); h != nil {
			handler = h
			hijacked = true
		}
	}
	if hijacked {
		n.hot.dialsTapped.Inc()
	}
	if handler == nil {
		n.hot.dialsNoRoute.Inc()
		return nil, fmt.Errorf("%w: %s", ErrNoRoute, meta.Addr())
	}

	clientSide, serverSide := net.Pipe()
	st := &stallState{peer: clientSide}
	var client net.Conn = &stallConn{
		Conn: &addrConn{Conn: clientSide, local: hostAddr(srcHost), remote: hostAddr(meta.Addr())},
		st:   st,
	}
	server := &serverConn{
		Conn: &addrConn{Conn: serverSide, local: hostAddr(meta.Addr()), remote: hostAddr(srcHost)},
		st:   st,
	}

	if mirror != nil {
		if m := mirror(meta); m != nil {
			n.hot.mirrorConns.Inc()
			client = newMirroredConn(client, m, n)
		}
	}

	// The truncate and corrupt faults let the connection reach its real
	// handler but degrade the server's writes.
	var srv net.Conn = server
	switch dec.Kind {
	case fault.KindTruncate:
		n.hot.faultsTruncate.Inc()
		srv = &truncateConn{Conn: server, entropy: dec.Rand}
	case fault.KindCorrupt:
		n.hot.faultsCorrupt.Inc()
		srv = &corruptConn{Conn: server, entropy: dec.Rand}
	}

	n.handlers.Add(1)
	go func() {
		defer n.handlers.Done()
		handler(srv, meta)
	}()
	return client, nil
}

// WaitHandlers blocks until every server handler goroutine spawned by
// Dial has returned. Callers about to advance the virtual clock must
// wait first: a handler scheduled late would otherwise stamp its spans
// with post-advance virtual times, making telemetry histograms depend
// on goroutine scheduling. Callers must ensure no concurrent Dials —
// barriers are naturally quiescent points. With nothing in flight,
// Wait returns after a single atomic load.
func (n *Network) WaitHandlers() {
	n.handlers.Wait()
}

// hostAddr is a net.Addr naming a simulated host.
type hostAddr string

func (h hostAddr) Network() string { return "iotls" }
func (h hostAddr) String() string  { return string(h) }

// addrConn decorates a pipe conn with meaningful addresses.
type addrConn struct {
	net.Conn
	local, remote net.Addr
}

func (c *addrConn) LocalAddr() net.Addr  { return c.local }
func (c *addrConn) RemoteAddr() net.Addr { return c.remote }

// Staller is implemented by the server side of every dialed connection.
// A handler that intends never to answer again calls StallPeer, which
// fails the client's pending and future reads immediately with a
// timeout instead of making it wait out its handshake deadline. The
// failure class the client observes is identical to a real timeout
// (FailIncomplete territory), but the outcome no longer depends on
// wall-clock scheduling — the property the parallel engine's
// bit-identical-artifacts guarantee rests on.
type Staller interface{ StallPeer() }

// stallState coordinates a declared stall with the client's own
// deadline management: once stalled, the client's read deadline is
// pinned in the past and stallConn refuses to move it forward.
type stallState struct {
	mu      sync.Mutex
	stalled bool
	peer    net.Conn // raw client pipe end
}

// stallConn is the client end of a dialed connection.
type stallConn struct {
	net.Conn // addrConn
	st       *stallState
}

func (c *stallConn) SetDeadline(t time.Time) error {
	c.st.mu.Lock()
	defer c.st.mu.Unlock()
	if c.st.stalled {
		return c.Conn.SetWriteDeadline(t)
	}
	return c.Conn.SetDeadline(t)
}

func (c *stallConn) SetReadDeadline(t time.Time) error {
	c.st.mu.Lock()
	defer c.st.mu.Unlock()
	if c.st.stalled {
		return nil
	}
	return c.Conn.SetReadDeadline(t)
}

// serverConn is the server end of a dialed connection.
type serverConn struct {
	net.Conn // addrConn
	st       *stallState
}

// StallPeer implements Staller.
func (c *serverConn) StallPeer() {
	c.st.mu.Lock()
	defer c.st.mu.Unlock()
	c.st.stalled = true
	c.st.peer.SetReadDeadline(time.Unix(1, 0))
}

// mirroredConn copies all traffic through a Mirror. Reads observe
// server->client bytes; writes observe client->server bytes.
type mirroredConn struct {
	net.Conn
	mirror Mirror
	nw     *Network
	once   sync.Once

	clientBytes atomic.Int64
	serverBytes atomic.Int64
}

func newMirroredConn(c net.Conn, m Mirror, nw *Network) *mirroredConn {
	return &mirroredConn{Conn: c, mirror: m, nw: nw}
}

func (c *mirroredConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.mirror.ServerBytes(p[:n])
		c.serverBytes.Add(int64(n))
		c.nw.hot.mirrorFrames.Inc()
		c.nw.hot.mirrorServerBytes.Add(int64(n))
	}
	return n, err
}

func (c *mirroredConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.mirror.ClientBytes(p[:n])
		c.clientBytes.Add(int64(n))
		c.nw.hot.mirrorFrames.Inc()
		c.nw.hot.mirrorClientBytes.Add(int64(n))
	}
	return n, err
}

func (c *mirroredConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(func() {
		c.mirror.CloseMirror()
		c.nw.tel.Histogram("netem.conn.client_bytes", telemetry.SizeBuckets).Observe(c.clientBytes.Load())
		c.nw.tel.Histogram("netem.conn.server_bytes", telemetry.SizeBuckets).Observe(c.serverBytes.Load())
	})
	return err
}
