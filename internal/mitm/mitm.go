// Package mitm implements the study's interception proxy — the
// mitmproxy stand-in — and the active attack experiments built on it:
// the three certificate-validation attacks of Table 2, the two
// downgrade triggers behind Table 5, the forced-old-version experiment
// behind Table 6, the spoofed-CA interception the root-store probe
// uses (§4.2), and the TrafficPassthrough control.
package mitm

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/certs"
	"repro/internal/ciphers"
	"repro/internal/device"
	"repro/internal/netem"
	"repro/internal/rootstore"
	"repro/internal/telemetry"
	"repro/internal/tlssim"
	"repro/internal/wire"
)

// Attack identifies an interception mode.
type Attack int

const (
	// AttackNoValidation presents a self-signed chain (Table 2).
	AttackNoValidation Attack = iota
	// AttackWrongHostname presents a valid chain for a domain the
	// attacker controls (Table 2).
	AttackWrongHostname
	// AttackInvalidBasicConstraints signs the target host's certificate
	// with a leaf (non-CA) certificate from a valid chain (Table 2).
	AttackInvalidBasicConstraints
	// AttackSpoofedCA presents a chain anchored at a spoofed copy of a
	// chosen CA certificate (the root-store probe, §4.2).
	AttackSpoofedCA
	// AttackIncompleteHandshake withholds the ServerHello (Table 5).
	AttackIncompleteHandshake
	// AttackFailedHandshake causes a certificate-validation failure via
	// a self-signed chain, for downgrade triggering (Table 5).
	AttackFailedHandshake
)

// String implements fmt.Stringer.
func (a Attack) String() string {
	switch a {
	case AttackNoValidation:
		return "NoValidation"
	case AttackWrongHostname:
		return "WrongHostname"
	case AttackInvalidBasicConstraints:
		return "InvalidBasicConstraints"
	case AttackSpoofedCA:
		return "SpoofedCA"
	case AttackIncompleteHandshake:
		return "IncompleteHandshake"
	case AttackFailedHandshake:
		return "FailedHandshake"
	default:
		return "Unknown"
	}
}

// AttackerDomain is the domain the attacker legitimately controls for
// the WrongHostname attack (the paper used a free ZeroSSL certificate).
const AttackerDomain = "attacker-owned.example.net"

// Proxy is the interception proxy. It owns the attacker PKI material:
// a private root CA, a legitimate certificate for AttackerDomain
// chaining to a universally trusted root, and the forged chains, which
// it caches.
type Proxy struct {
	nw *netem.Network

	attackerRoot certs.KeyPair // self-signed, untrusted
	legitLeaf    certs.KeyPair // valid chain for AttackerDomain
	trustedCA    certs.KeyPair // the operational CA that signed legitLeaf

	mu     sync.Mutex
	forged map[chainKey]certs.KeyPair
}

// chainKey names one forged key pair in the proxy's chain cache: the
// attack class that forges it, the fingerprint of the CA it spoofs
// (SpoofedCA only) and the host it is issued for — empty for a spoofed
// root, which every host attacked with one target shares.
type chainKey struct {
	attack Attack
	target string
	host   string
}

// attackValidity must cover the 2021 active experiment window.
var (
	attackNotBefore = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	attackNotAfter  = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
)

// NewProxy builds the proxy against the testbed's CA universe.
func NewProxy(nw *netem.Network, u *rootstore.Universe) *Proxy {
	trusted := device.OperationalCAs(u)[0].Pair
	p := &Proxy{
		nw:           nw,
		trustedCA:    trusted,
		attackerRoot: certs.NewRootCA(certs.Name{CommonName: "mitm attacker root", Organization: "IoTLS", Country: "US"}, 6666, attackNotBefore, attackNotAfter, "mitm-attacker-root"),
		forged:       make(map[chainKey]certs.KeyPair),
	}
	p.legitLeaf = trusted.Issue(certs.Template{
		SerialNumber: 6667,
		Subject:      certs.Name{CommonName: AttackerDomain, Organization: "IoTLS", Country: "US"},
		NotBefore:    attackNotBefore, NotAfter: attackNotAfter,
		DNSNames: []string{AttackerDomain},
	}, "mitm-legit-leaf")
	return p
}

// Telemetry exposes the testbed registry the proxy reports into (the
// network's), for the experiment layers built on the proxy.
func (p *Proxy) Telemetry() *telemetry.Registry { return p.nw.Telemetry() }

// chainFor builds the presented chain and key for an attack on host.
// spoofTarget is used only by AttackSpoofedCA.
func (p *Proxy) chainFor(attack Attack, host string, spoofTarget *certs.Certificate) ([]*certs.Certificate, certs.KeyPair) {
	switch attack {
	case AttackNoValidation, AttackFailedHandshake:
		leaf := p.forge(chainKey{attack: AttackNoValidation, host: host}, func() certs.KeyPair {
			return p.attackerRoot.Issue(leafTemplate(host, serial(host)), "mitm-leaf-"+host)
		})
		return []*certs.Certificate{leaf.Cert, p.attackerRoot.Cert}, leaf
	case AttackWrongHostname:
		// Full valid chain, wrong name.
		return []*certs.Certificate{p.legitLeaf.Cert, p.trustedCA.Cert}, p.legitLeaf
	case AttackInvalidBasicConstraints:
		// The legit leaf (CA=false) misused as an issuer for host.
		leaf := p.forge(chainKey{attack: attack, host: host}, func() certs.KeyPair {
			return p.legitLeaf.Issue(leafTemplate(host, serial(host)+1), "mitm-bc-leaf-"+host)
		})
		return []*certs.Certificate{leaf.Cert, p.legitLeaf.Cert, p.trustedCA.Cert}, leaf
	case AttackSpoofedCA:
		target := spoofTarget.Fingerprint()
		spoof := p.forge(chainKey{attack: attack, target: target}, func() certs.KeyPair {
			return certs.Spoof(spoofTarget, "mitm-spoof-"+spoofTarget.SubjectKey())
		})
		leaf := p.forge(chainKey{attack: attack, target: target, host: host}, func() certs.KeyPair {
			return spoof.Issue(leafTemplate(host, serial(host)+2), "mitm-spoof-leaf-"+host)
		})
		return []*certs.Certificate{leaf.Cert, spoof.Cert}, leaf
	default:
		return nil, certs.KeyPair{}
	}
}

// forge returns the cached key pair for k, issuing it on first use.
// Forging is deterministic (seeded keys, deterministic signatures), so
// the cache only removes repeated Ed25519 signing, which the probe
// suite otherwise pays once per device for each of the ~200 CAs.
func (p *Proxy) forge(k chainKey, issue func() certs.KeyPair) certs.KeyPair {
	p.mu.Lock()
	defer p.mu.Unlock()
	kp, ok := p.forged[k]
	if !ok {
		kp = issue()
		p.forged[k] = kp
	}
	return kp
}

// leafTemplate is a forged leaf for host.
func leafTemplate(host string, serial uint64) certs.Template {
	return certs.Template{
		SerialNumber: serial,
		Subject:      certs.Name{CommonName: host},
		NotBefore:    attackNotBefore, NotAfter: attackNotAfter,
		DNSNames: []string{host},
	}
}

func serial(host string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(host); i++ {
		h ^= uint64(host[i])
		h *= 1099511628211
	}
	return h&0x7fffffffffffffff | 0x4000000000000000
}

// ConnRecord is what the interceptor observed on one hijacked
// connection.
type ConnRecord struct {
	Attack Attack
	Host   string
	// Hello is the ClientHello, nil if none.
	Hello *wire.ClientHello
	// Intercepted means the handshake completed under attack.
	Intercepted bool
	// Payload is the decrypted application data read after completion.
	Payload string
	// ClientAlert is the client's alert, if any (the probe observable).
	ClientAlert *wire.Alert
	// FailureClass is the server-side failure class when not
	// intercepted.
	FailureClass tlssim.FailureClass
}

// session is one interception run against one device: the proxy's
// only tap. It hijacks the device's port-443 dials to the hosts its
// selector picks, serves each the attack's chain, and records every
// dial it saw, hijacked or passed through to the real server. Every
// experiment opens a session, dials, drains and stops it.
type session struct {
	remove func()
	wg     sync.WaitGroup

	mu sync.Mutex
	// dials is indexed by dial ordinal. The tap runs synchronously
	// inside netem.Dial, so the order is the client's dial order even
	// though handler goroutines finish in scheduling order.
	dials []tappedDial
	next  int // first dial the next drain returns
}

// tappedDial is one dial the session's tap saw.
type tappedDial struct {
	host     string
	hijacked bool
	rec      ConnRecord // set by the handler of a hijacked dial
}

// everyHost and onlyHost are session selectors.
func everyHost(string) bool { return true }

func onlyHost(host string) func(string) bool {
	return func(h string) bool { return h == host }
}

// intercept reboots dev (per-instance failure counters reset) and
// opens a session on its port-443 dials: those to a host pick selects
// are hijacked with the attack's chain for that host, built through the
// chain cache when the dial is tapped; the rest pass through. The tap
// filters on the source device, so sessions against different devices
// stack and run concurrently.
func (p *Proxy) intercept(attack Attack, dev *device.Device, pick func(host string) bool, spoofTarget *certs.Certificate) *session {
	dev.Reset(device.ActiveSnapshot)
	s := &session{}
	s.remove = p.nw.AddTap(func(meta netem.ConnMeta) netem.Handler {
		if meta.SrcHost != dev.ID || meta.DstPort != 443 {
			return nil
		}
		host := meta.DstHost
		hijack := pick(host)
		s.mu.Lock()
		idx := len(s.dials)
		s.dials = append(s.dials, tappedDial{host: host, hijacked: hijack})
		s.mu.Unlock()
		if !hijack {
			return nil
		}
		chain, key := p.chainFor(attack, host, spoofTarget)
		s.wg.Add(1)
		return func(conn net.Conn, _ netem.ConnMeta) {
			defer s.wg.Done()
			rec := p.serveAttack(attack, host, chain, key, conn)
			s.mu.Lock()
			s.dials[idx].rec = rec
			s.mu.Unlock()
		}
	})
	return s
}

// drain waits for the handlers of every hijacked dial, then returns the
// records of the hijacked dials since the previous drain, in dial
// order. Callers must have finished dialing (the client side of every
// tapped connection has returned), so no handler starts during the
// wait; every dialer has closed its client end, which fails any read
// serveAttack still has pending, so the wait always ends.
func (s *session) drain() []ConnRecord {
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []ConnRecord
	for _, d := range s.dials[s.next:] {
		if d.hijacked {
			out = append(out, d.rec)
		}
	}
	s.next = len(s.dials)
	return out
}

// hosts returns the distinct hosts of every dial the session saw,
// hijacked or passed through, sorted: the reports built from them are
// serialized into dataset shards.
func (s *session) hosts() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[string]bool, len(s.dials))
	var out []string
	for _, d := range s.dials {
		if !seen[d.host] {
			seen[d.host] = true
			out = append(out, d.host)
		}
	}
	sort.Strings(out)
	return out
}

// stop deregisters the session's tap.
func (s *session) stop() { s.remove() }

// serveAttack terminates one hijacked connection.
func (p *Proxy) serveAttack(attack Attack, host string, chain []*certs.Certificate, key certs.KeyPair, conn net.Conn) ConnRecord {
	tel := p.nw.Telemetry()
	tel.Counter("mitm.attacks").Inc()
	tel.Counter("mitm.attacks." + attack.String()).Inc()
	cfg := &tlssim.ServerConfig{
		Chain:      chain,
		Key:        key,
		Telemetry:  tel,
		MinVersion: ciphers.SSL30,
		MaxVersion: ciphers.TLS13,
		CipherSuites: []ciphers.Suite{
			ciphers.TLS_AES_128_GCM_SHA256,
			ciphers.TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
			ciphers.TLS_RSA_WITH_AES_128_GCM_SHA256,
			ciphers.TLS_RSA_WITH_AES_128_CBC_SHA,
			ciphers.TLS_RSA_WITH_3DES_EDE_CBC_SHA,
			ciphers.TLS_RSA_WITH_RC4_128_SHA,
			ciphers.TLS_RSA_WITH_RC4_128_MD5,
		},
	}
	if attack == AttackIncompleteHandshake {
		cfg.Behavior = tlssim.ServeIncompleteHandshake
	}
	res := tlssim.Serve(conn, cfg)
	rec := ConnRecord{Attack: attack, Host: host, Hello: res.ClientHello, ClientAlert: res.ClientAlert}
	if res.Err != nil {
		rec.FailureClass = res.Err.Class
		tel.Counter("mitm.defended").Inc()
		tel.Counter("mitm.defended." + res.Err.Class.String()).Inc()
		return rec
	}
	rec.Intercepted = true
	tel.Counter("mitm.intercepted").Inc()
	sess := res.Session
	defer sess.Close()
	buf := make([]byte, 1024)
	n, err := sess.Conn.Read(buf)
	if err == nil {
		rec.Payload = string(buf[:n])
		if SensitivePayload(rec.Payload) {
			tel.Counter("mitm.payload.sensitive").Inc()
		}
		// Answer so the device finishes its exchange cleanly.
		fmt.Fprintf(sess.Conn, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
	}
	return rec
}

// SensitivePayload reports whether an intercepted payload contains
// authentication material (the §5.2 manual-inspection criterion).
func SensitivePayload(payload string) bool {
	for _, marker := range []string{"Authorization:", "Bearer ", "encrypt_key", "deviceSecret", "credential"} {
		if strings.Contains(payload, marker) {
			return true
		}
	}
	return false
}
