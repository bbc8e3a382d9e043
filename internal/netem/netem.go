// Package netem provides the in-memory network substrate for the IoTLS
// testbed: hosts, dialers, listeners, DNS-style name resolution, and —
// crucially for the study — a gateway vantage point that can both
// passively mirror every byte crossing it (the paper's passive
// experiments) and actively redirect connections to an interception
// handler (the paper's mitmproxy-based active experiments).
//
// Every connection is a Conn pair with net.Pipe's semantics, so TLS
// state machines on top exercise genuine blocking reads, writes and
// closes; the mirror and write faults live in the Conn.
package netem

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
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

	// addr caches the rendered destination, which Dial fills once for
	// the Addr calls along the dial path (routing, telemetry, faults).
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
// connection, split by direction. The client end's Read and Write feed
// it, so its two directions are called concurrently whenever a caller
// reads and writes the client end from two goroutines, as the guard's
// copy loops do. CloseMirror is called exactly once, on the client
// end's first Close.
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

// Network is the simulated smart-home network: devices on one side, a
// gateway in the middle, and cloud services on the other.
type Network struct {
	clk clock.Clock
	tel *telemetry.Registry

	mu        sync.RWMutex
	listeners map[string]Handler
	taps      []*Tap
	mirror    MirrorFactory
	faults    *fault.Plan

	// handlers counts in-flight server handler goroutines, so barriers
	// can join them before the virtual clock moves.
	handlers sync.WaitGroup
	// open holds every dialed client end, with its dial's wall time,
	// until that end's first Close: Settle lists its mirrored entries as
	// leaked, a watchdog (Overdue) its old ones as hung. Once aborted
	// (Abort), every Dial fails.
	openMu  sync.Mutex
	open    map[*Conn]time.Time
	aborted bool

	// hot caches the counter handles the dial path and mirrored conns
	// bump; Registry.Counter is a lock-guarded map lookup.
	hot hotCounters

	// endpointCounters caches "netem.endpoint.<addr>" counters keyed by
	// addr, saving the per-dial string concat and registry lookup.
	endpointCounters sync.Map // string -> *telemetry.Counter
}

// hotCounters holds pre-resolved telemetry counters for the dial path.
type hotCounters struct {
	dials, dialsTapped, dialsNoRoute           *telemetry.Counter
	faultsLatency, faultsDialFail, faultsReset *telemetry.Counter
	faultsStall, faultsTruncate, faultsCorrupt *telemetry.Counter
	mirrorConns, mirrorFrames                  *telemetry.Counter
	mirrorClientBytes, mirrorServerBytes       *telemetry.Counter
}

// New creates an empty network observing time through clk. The network
// carries the testbed's telemetry registry (reading virtual time from
// the same clock); every layer that holds a *Network reaches its
// instruments through Telemetry.
func New(clk clock.Clock) *Network {
	n := &Network{clk: clk, tel: telemetry.New(clk), listeners: make(map[string]Handler), open: make(map[*Conn]time.Time)}
	n.hot = hotCounters{
		dials:             n.tel.Counter("netem.dials"),
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

// ErrAborted is returned by Dial once the network has been aborted.
var ErrAborted = errors.New("netem: network aborted")

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

// AddTap registers a gateway interception hook and returns its remove
// function. Taps are consulted in registration order; the first one
// returning a non-nil handler hijacks the connection. Taps filtering on disjoint sources compose, which is what
// lets active experiments against different devices run concurrently.
func (n *Network) AddTap(t Tap) (remove func()) {
	e := &t // boxed, so the remove closure finds its own entry by pointer
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

// Dial opens a connection from srcHost to dstHost:dstPort through the
// gateway. The returned conn is the client side; the matching server side
// is passed to the interception handler (if the tap hijacks) or to the
// registered listener. Dial fails with ErrNoRoute when neither applies.
func (n *Network) Dial(srcHost, dstHost string, dstPort int) (net.Conn, error) {
	return n.DialTraced(srcHost, dstHost, dstPort, nil)
}

// DialTraced is Dial with a parent trace span: the gateway records any
// injected fault as a "fault" child span of the connection attempt, and
// threads the span to the mirror through ConnMeta so capture writes
// join the same subtree.
func (n *Network) DialTraced(srcHost, dstHost string, dstPort int, sp *trace.Span) (net.Conn, error) {
	meta := ConnMeta{SrcHost: srcHost, DstHost: dstHost, DstPort: dstPort, At: n.clk.Now(), Trace: sp}
	meta.addr = meta.DstHost + ":" + strconv.Itoa(meta.DstPort)

	n.mu.RLock()
	taps := append([]*Tap(nil), n.taps...)
	mirror := n.mirror
	handler := n.listeners[meta.Addr()]
	plan := n.faults
	n.mu.RUnlock()

	n.hot.dials.Inc()
	n.endpointCounter(meta.addr).Inc()

	var dec fault.Decision
	if plan != nil {
		dec = plan.Decide(srcHost, meta.Addr(), meta.At)
	}

	// Record what the gateway is about to do to this attempt as fault
	// spans, before the effects land, so even a refused dial carries its
	// cause in the trace tree.
	for _, detail := range dec.TraceDetails() {
		sp.Child("fault", detail).End("injected")
	}

	if dec.Delay > 0 {
		n.hot.faultsLatency.Inc()
		time.Sleep(dec.Delay)
	}
	switch dec.Kind {
	case fault.KindDialFail:
		n.hot.faultsDialFail.Inc()
		return nil, fmt.Errorf("%w: connection to %s refused", fault.ErrInjected, meta.Addr())
	case fault.KindReset:
		// The reset and stall faults hijack the connection before
		// routing: neither the destination nor any interception tap
		// sees it (the mirror still does — partial handshakes are
		// signal for the sniffer).
		n.hot.faultsReset.Inc()
		handler = resetAfterHello
		taps = nil
	case fault.KindStall:
		n.hot.faultsStall.Inc()
		handler = blackHole
		taps = nil
	}

	// Join the open set before any tap sees the dial: a hijacking tap
	// counts on its handler running, which Abort then ends at once.
	client, server := NewPair(srcHost, meta.addr)
	client.nw = n
	n.openMu.Lock()
	aborted := n.aborted
	if !aborted {
		n.open[client] = time.Now()
	}
	n.openMu.Unlock()
	if aborted {
		return nil, ErrAborted
	}

	for _, e := range taps {
		if h := (*e)(meta); h != nil {
			handler = h
			n.hot.dialsTapped.Inc()
			break
		}
	}
	if handler == nil {
		client.Close()
		n.hot.dialsNoRoute.Inc()
		return nil, fmt.Errorf("%w: %s", ErrNoRoute, meta.Addr())
	}

	if mirror != nil {
		if m := mirror(meta); m != nil {
			n.hot.mirrorConns.Inc()
			client.mirror = m
		}
	}

	// The truncate and corrupt faults let the connection reach its real
	// handler but degrade the server's writes (Conn.degradedWrite).
	server.fault, server.entropy = dec.Kind, dec.Rand
	switch dec.Kind {
	case fault.KindTruncate:
		n.hot.faultsTruncate.Inc()
	case fault.KindCorrupt:
		n.hot.faultsCorrupt.Inc()
	}

	n.handlers.Add(1)
	go func() {
		defer n.handlers.Done()
		handler(server, meta)
	}()
	return client, nil
}

// WaitHandlers blocks until every server handler goroutine spawned by
// Dial has returned. Callers about to advance the virtual clock must
// wait first: a handler scheduled late would otherwise stamp its spans
// with post-advance virtual times, making telemetry histograms depend
// on goroutine scheduling. Callers must ensure no concurrent Dials —
// barriers are naturally quiescent points.
func (n *Network) WaitHandlers() {
	n.handlers.Wait()
}

// Settle is the completion barrier of a mirrored phase: it joins every
// server handler (WaitHandlers), then fails at once, without waiting,
// naming each mirrored connection still open. Every dialer closes its
// client end before it returns, and the close publishes the mirror, so
// once a phase's dialers have returned no mirror is open; an open one
// is a leaked connection whose observation would otherwise be lost.
// Same quiescence contract as WaitHandlers.
func (n *Network) Settle() error {
	n.WaitHandlers()
	if open := n.list(func(c *Conn, _ time.Time) bool { return c.mirror != nil }); open != nil {
		return fmt.Errorf("netem: %d mirrored connection(s) still open: %s", len(open), strings.Join(open, ", "))
	}
	return nil
}

// Overdue lists the connections whose client end has been open for
// longer than d of wall time, as sorted "src → host:port" strings. A
// healthy connection lives for milliseconds, so an overdue one is hung.
func (n *Network) Overdue(d time.Duration) []string {
	return n.list(func(_ *Conn, since time.Time) bool { return time.Since(since) > d })
}

// Abort ends the network: every later Dial fails with ErrAborted, and
// the server end of every open connection closes, failing every call
// blocked on either end; each dialer then closes its own end.
func (n *Network) Abort() {
	n.openMu.Lock()
	defer n.openMu.Unlock()
	n.aborted = true
	for c := range n.open {
		c.peer.Close()
	}
}

// list renders the open connections keep selects, sorted.
func (n *Network) list(keep func(c *Conn, since time.Time) bool) (out []string) {
	n.openMu.Lock()
	for c, since := range n.open {
		if keep(c, since) {
			out = append(out, string(c.local)+" → "+string(c.remote))
		}
	}
	n.openMu.Unlock()
	sort.Strings(out)
	return out
}
