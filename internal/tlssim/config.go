package tlssim

import (
	"crypto/sha256"
	"encoding/binary"
	"net"
	"sync/atomic"

	"repro/internal/certs"
	"repro/internal/ciphers"
	"repro/internal/clock"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

// ValidationMode selects how a client validates server certificates.
// The modes correspond directly to the vulnerability classes of Table 7.
type ValidationMode int

const (
	// ValidateFull performs complete validation: chain, expiry,
	// hostname and BasicConstraints.
	ValidateFull ValidationMode = iota
	// ValidateNoHostname validates the chain but skips RFC 2818
	// hostname matching (the Amazon-family flaw in Table 7).
	ValidateNoHostname
	// ValidateNone accepts any certificate (seven devices in Table 7).
	ValidateNone
)

// String implements fmt.Stringer.
func (m ValidationMode) String() string {
	switch m {
	case ValidateFull:
		return "full"
	case ValidateNoHostname:
		return "no-hostname"
	case ValidateNone:
		return "none"
	default:
		return "unknown"
	}
}

// RevocationMode describes which revocation machinery a client exercises
// (Table 8).
type RevocationMode struct {
	// CheckCRL fetches the certificate's CRL distribution point.
	CheckCRL bool
	// CheckOCSP queries the certificate's OCSP responder.
	CheckOCSP bool
	// RequestStaple adds status_request to the ClientHello.
	RequestStaple bool
}

// Any reports whether any revocation mechanism is enabled.
func (r RevocationMode) Any() bool { return r.CheckCRL || r.CheckOCSP || r.RequestStaple }

// Dialer opens auxiliary connections (OCSP/CRL fetches) on behalf of a
// client. It matches netem.Network.Dial's shape.
type Dialer func(srcHost, dstHost string, dstPort int) (net.Conn, error)

// ClientConfig describes one TLS instance on a device: its library, its
// protocol configuration (the fingerprintable surface), its trust
// anchors, and its validation behaviour.
type ClientConfig struct {
	// Library selects the alert profile. Required.
	Library *LibraryProfile

	// MinVersion and MaxVersion bound the versions this instance will
	// negotiate. MaxVersion governs the ClientHello; MinVersion governs
	// which ServerHello versions are accepted.
	MinVersion ciphers.Version
	MaxVersion ciphers.Version

	// CipherSuites is the advertised suite list, in preference order.
	CipherSuites []ciphers.Suite

	// SignatureAlgorithms, SupportedGroups and ECPointFormats populate
	// the corresponding extensions when non-empty.
	SignatureAlgorithms []ciphers.SignatureAlgorithm
	SupportedGroups     []uint16
	ECPointFormats      []uint8

	// ALPNProtocols populates the ALPN extension when non-empty.
	ALPNProtocols []string

	// SendSessionTicket and SendRenegotiationInfo toggle the presence of
	// those (empty) extensions — fingerprint-relevant only.
	SendSessionTicket     bool
	SendRenegotiationInfo bool

	// SendSNI controls the server_name extension (virtually all devices
	// send it; some old stacks do not).
	SendSNI bool

	// Roots is the trusted root store consulted during validation.
	Roots *certs.Pool

	// Validation selects the certificate validation mode.
	Validation ValidationMode

	// DisableValidationAfter, when positive, models the Yi Camera
	// behaviour from §5.2: after this many consecutive validation
	// failures the instance stops validating entirely. The counter is
	// shared across handshakes through the instance state.
	DisableValidationAfter int

	// Revocation selects revocation checking behaviour.
	Revocation RevocationMode

	// PinnedLeaf, when non-empty, requires the server's leaf
	// certificate fingerprint to match exactly (certificate pinning,
	// the §6 mitigation: leaf pinning defeats every interception attack
	// in Table 2, including compromised-root-store attacks).
	PinnedLeaf string
	// PinnedRoot, when non-empty, requires the fingerprint of the root
	// the chain anchored at to match. Weaker than leaf pinning: it does
	// not protect against a compromised root key.
	PinnedRoot string

	// AuxDialer, when set, opens the auxiliary connections revocation
	// checking needs (OCSP/CRL fetches). SrcHost names this client on
	// those connections.
	AuxDialer Dialer
	SrcHost   string

	// Clock provides verification time. Defaults to clock.Real.
	Clock clock.Clock

	// Telemetry, when set, receives handshake outcome counters, the
	// per-library alert taxonomy, and a span tracing the handshake
	// phases. Nil disables instrumentation (a nil registry is a no-op,
	// so the field may also be left nil-safe by callers).
	Telemetry *telemetry.Registry

	// Trace is the connection attempt's causal trace span; chain
	// verification is recorded as a child. The driver sets it per
	// attempt; nil (the zero value) disables trace instrumentation.
	Trace *trace.Span

	// instance state shared across handshakes (failure counter).
	state *instanceState
}

// instanceState carries mutable per-instance state across handshakes.
type instanceState struct {
	consecutiveFailures atomic.Int32
	validationDisabled  atomic.Bool
}

// State returns (creating on first use) the shared instance state, so
// that repeated handshakes from the same configured instance observe the
// failure counter.
func (c *ClientConfig) State() *instanceState {
	if c.state == nil {
		c.state = &instanceState{}
	}
	return c.state
}

// ResetState clears the shared failure counter (a fresh boot).
func (c *ClientConfig) ResetState() {
	if c.state != nil {
		c.state.consecutiveFailures.Store(0)
		c.state.validationDisabled.Store(false)
	}
}

// ValidationCurrentlyDisabled reports whether the give-up behaviour has
// tripped.
func (c *ClientConfig) ValidationCurrentlyDisabled() bool {
	return c.state != nil && c.state.validationDisabled.Load()
}

// clockOrReal returns the configured clock or the wall clock.
func (c *ClientConfig) clockOrReal() clock.Clock {
	if c.Clock != nil {
		return c.Clock
	}
	return clock.Real{}
}

// offersTLS13 reports whether the configuration can negotiate TLS 1.3.
func (c *ClientConfig) offersTLS13() bool { return c.MaxVersion >= ciphers.TLS13 }

// BuildClientHello constructs the ClientHello this configuration sends
// for serverName. The layout is deterministic given the configuration
// and seq, so fingerprints are stable across handshakes.
func (c *ClientConfig) BuildClientHello(serverName string, seq uint64) *wire.ClientHello {
	ch := &wire.ClientHello{
		LegacyVersion:      ciphers.MinVersion(c.MaxVersion, ciphers.TLS12),
		CipherSuites:       append([]ciphers.Suite(nil), c.CipherSuites...),
		CompressionMethods: []byte{0},
	}
	ch.Random = deterministicRandom(c.Library.Name, serverName, seq)

	if c.SendSNI && serverName != "" {
		ch.Extensions = append(ch.Extensions, wire.SNIExtension(serverName))
	}
	if c.Revocation.RequestStaple {
		ch.Extensions = append(ch.Extensions, wire.StatusRequestExtension())
	}
	if len(c.SupportedGroups) > 0 {
		ch.Extensions = append(ch.Extensions, wire.SupportedGroupsExtension(c.SupportedGroups))
	}
	if len(c.ECPointFormats) > 0 {
		ch.Extensions = append(ch.Extensions, wire.ECPointFormatsExtension(c.ECPointFormats))
	}
	if len(c.SignatureAlgorithms) > 0 {
		ch.Extensions = append(ch.Extensions, wire.SignatureAlgorithmsExtension(c.SignatureAlgorithms))
	}
	if len(c.ALPNProtocols) > 0 {
		ch.Extensions = append(ch.Extensions, wire.ALPNExtension(c.ALPNProtocols))
	}
	if c.SendSessionTicket {
		ch.Extensions = append(ch.Extensions, wire.SessionTicketExtension())
	}
	if c.offersTLS13() {
		var vs []ciphers.Version
		for v := c.MaxVersion; v >= c.MinVersion && v >= ciphers.SSL30; v-- {
			vs = append(vs, v)
		}
		ch.Extensions = append(ch.Extensions, wire.SupportedVersionsExtension(vs))
	}
	if c.SendRenegotiationInfo {
		ch.Extensions = append(ch.Extensions, wire.RenegotiationInfoExtension())
	}
	return ch
}

// deterministicRandom derives the 32-byte hello random from stable
// inputs, keeping every simulation run reproducible.
func deterministicRandom(parts ...interface{}) [32]byte {
	h := sha256.New()
	for _, p := range parts {
		switch v := p.(type) {
		case string:
			h.Write([]byte(v))
			h.Write([]byte{0})
		case uint64:
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// ServerBehavior selects how a server (or interceptor) treats incoming
// handshakes — the active-experiment knobs from §4.2 and §5.1.
type ServerBehavior int

const (
	// ServeNormal completes handshakes normally.
	ServeNormal ServerBehavior = iota
	// ServeIncompleteHandshake reads the ClientHello and never responds
	// (the paper's IncompleteHandshake downgrade trigger).
	ServeIncompleteHandshake
	// ServeReject reads the ClientHello and answers with a fatal
	// handshake_failure alert (the FailedHandshake trigger, without
	// presenting any certificate).
	ServeReject
)

// ServerConfig describes the server side of a handshake.
type ServerConfig struct {
	// Chain is the certificate chain to present, leaf first. The leaf's
	// key must be Key.
	Chain []*certs.Certificate
	// Key is the leaf key pair, which proves possession with a MAC over
	// the transcript (certs.KeyPair.Prove).
	Key certs.KeyPair

	// MinVersion and MaxVersion bound what the server negotiates.
	MinVersion ciphers.Version
	MaxVersion ciphers.Version

	// CipherSuites is the server preference order.
	CipherSuites []ciphers.Suite

	// ForceVersion, when non-zero, is used in the ServerHello regardless
	// of negotiation (the old-version probing experiment for Table 6).
	ForceVersion ciphers.Version

	// Behavior selects normal service or a failure mode.
	Behavior ServerBehavior

	// OCSPStaple indicates the server staples an OCSP response when the
	// client requests one (observable in passive data, Table 8).
	OCSPStaple bool

	// Telemetry, when set, receives server-side handshake outcome
	// counters and spans. Nil disables instrumentation.
	Telemetry *telemetry.Registry
}
