// Package guard implements the paper's §6 user-side mitigation (after
// Hesselman et al.'s SPIN): a trusted in-network component between the
// IoT devices and the Internet that relays TLS connections while
// inspecting their security parameters inline, and cuts connections
// that violate policy — e.g. negotiation of a deprecated protocol
// version or an insecure ciphersuite — reporting each incident to the
// user instead of silently letting weak traffic through.
//
// Unlike the interception proxy, the guard never terminates TLS: it is
// a transparent relay that reads the same plaintext handshake metadata
// any on-path observer can.
package guard

import (
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/ciphers"
	"repro/internal/netem"
	"repro/internal/wire"
)

// Policy states what the guard allows.
type Policy struct {
	// MinVersion is the lowest negotiated protocol version allowed.
	MinVersion ciphers.Version
	// BlockInsecureSuites cuts connections negotiating DES/3DES/RC4/
	// EXPORT suites.
	BlockInsecureSuites bool
	// RequireForwardSecrecy cuts connections without (EC)DHE.
	RequireForwardSecrecy bool
}

// DefaultPolicy matches the paper's 2021 guidance: TLS 1.2 minimum, no
// insecure suites.
var DefaultPolicy = Policy{
	MinVersion:          ciphers.TLS12,
	BlockInsecureSuites: true,
}

// violation checks a negotiated (version, suite) pair.
func (p Policy) violation(v ciphers.Version, s ciphers.Suite) (string, bool) {
	if v < p.MinVersion {
		return fmt.Sprintf("negotiated %s below policy minimum %s", v, p.MinVersion), true
	}
	if p.BlockInsecureSuites && s.Insecure() {
		return fmt.Sprintf("negotiated insecure ciphersuite %s", s), true
	}
	if p.RequireForwardSecrecy && !s.ForwardSecret() {
		return fmt.Sprintf("negotiated non-PFS ciphersuite %s", s), true
	}
	return "", false
}

// Incident is one blocked connection.
type Incident struct {
	Device string
	Host   string
	Reason string
	At     time.Time
}

// Guard is the in-network component.
type Guard struct {
	nw     *netem.Network
	policy Policy

	mu        sync.Mutex
	incidents []Incident
	relayed   int
	blocked   int
}

// guardSource is the source host name the guard uses for its upstream
// legs; the tap passes these through so relaying does not recurse.
const guardSource = "gateway-guard"

// New creates a guard for the network with the given policy.
func New(nw *netem.Network, policy Policy) *Guard {
	return &Guard{nw: nw, policy: policy}
}

// Install arms the guard as a network tap. Returns an uninstall
// function.
func (g *Guard) Install() func() {
	return g.nw.AddTap(func(meta netem.ConnMeta) netem.Handler {
		if meta.SrcHost == guardSource || meta.DstPort != 443 {
			return nil
		}
		return g.relay
	})
}

// Incidents returns the blocked-connection log.
func (g *Guard) Incidents() []Incident {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]Incident(nil), g.incidents...)
}

// Stats reports (relayed, blocked) connection counts.
func (g *Guard) Stats() (relayed, blocked int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.relayed, g.blocked
}

// Report renders the incident log.
func (g *Guard) Report() string {
	incidents := g.Incidents()
	sort.Slice(incidents, func(i, j int) bool {
		if incidents[i].Device != incidents[j].Device {
			return incidents[i].Device < incidents[j].Device
		}
		return incidents[i].Host < incidents[j].Host
	})
	var b strings.Builder
	relayed, blocked := g.Stats()
	fmt.Fprintf(&b, "== gateway guard report: %d relayed, %d blocked ==\n", relayed, blocked)
	for _, in := range incidents {
		fmt.Fprintf(&b, "  BLOCKED %s -> %s: %s\n", in.Device, in.Host, in.Reason)
	}
	return b.String()
}

// relay forwards the connection to its real destination while
// inspecting the handshake inline.
func (g *Guard) relay(deviceConn net.Conn, meta netem.ConnMeta) {
	defer deviceConn.Close()
	g.mu.Lock()
	g.relayed++
	g.mu.Unlock()
	g.nw.Telemetry().Counter("guard.relayed").Inc()
	upstream, err := g.nw.Dial(guardSource, meta.DstHost, meta.DstPort)
	if err != nil {
		return
	}
	defer upstream.Close()

	// cut closes both legs; the inspection goroutine calls it on a
	// policy violation.
	var once sync.Once
	cut := func(reason string) {
		once.Do(func() {
			g.mu.Lock()
			g.incidents = append(g.incidents, Incident{
				Device: meta.SrcHost, Host: meta.DstHost, Reason: reason, At: meta.At,
			})
			g.blocked++
			g.mu.Unlock()
			g.nw.Telemetry().Counter("guard.blocked").Inc()
			deviceConn.Close()
			upstream.Close()
		})
	}

	var wg sync.WaitGroup
	wg.Add(2)
	// Client -> server: no inspection needed (policy is about the
	// negotiated outcome), plain copy.
	go func() {
		defer wg.Done()
		pipeCopy(upstream, deviceConn, nil)
	}()
	// Server -> client: watch for the ServerHello.
	go func() {
		defer wg.Done()
		insp := &inspector{policy: g.policy, cut: cut}
		pipeCopy(deviceConn, upstream, insp.feed)
	}()
	wg.Wait()
}

// pipeCopy copies src to dst chunk by chunk, invoking observe on each
// chunk before forwarding.
func pipeCopy(dst io.WriteCloser, src io.Reader, observe func([]byte)) {
	buf := make([]byte, 4096)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if observe != nil {
				observe(buf[:n])
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			if c, ok := dst.(interface{ CloseWrite() error }); ok {
				c.CloseWrite()
			} else {
				dst.Close()
			}
			return
		}
	}
}

// inspector frames server->client records until the ServerHello
// decides the connection's fate. A malformed handshake decides it too,
// uncut: nothing after it can be trusted.
type inspector struct {
	policy  Policy
	cut     func(string)
	records wire.Framer
	decided bool
}

func (in *inspector) feed(p []byte) {
	if !in.decided {
		in.records.Feed(p, in.onRecord)
	}
}

func (in *inspector) onRecord(rec wire.Record) {
	if in.decided || rec.Type != wire.TypeHandshake {
		return
	}
	err := wire.EachHandshake(rec.Payload, func(msg wire.Handshake) bool {
		if msg.Type != wire.TypeServerHello {
			return true
		}
		in.decided = true
		if sh, err := wire.ParseServerHello(msg.Body); err == nil {
			if reason, bad := in.policy.violation(sh.Version, sh.CipherSuite); bad {
				in.cut(reason)
			}
		}
		return false
	})
	if err != nil {
		in.decided = true
	}
}
