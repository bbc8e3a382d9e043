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
	"sync/atomic"
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
// chaining to a universally trusted root, and per-host forged leaves.
type Proxy struct {
	nw *netem.Network

	attackerRoot certs.KeyPair // self-signed, untrusted
	legitLeaf    certs.KeyPair // valid chain for AttackerDomain
	trustedCA    certs.KeyPair // the operational CA that signed legitLeaf

	mu         sync.Mutex
	leaves     map[string]certs.KeyPair // forged per-host leaves (self-signed root)
	bcLeaves   map[string]certs.KeyPair // per-host leaves issued by the CA=false legitLeaf
	spoofs     map[string]spoofChain    // per-(target, host) spoofed-CA chains
	spoofRoots map[string]certs.KeyPair // per-target spoofed roots, shared across hosts
}

// spoofChain is a memoized SpoofedCA attack chain: the spoofed copy of
// the target root plus the per-host leaf it issued. Spoof and Issue are
// deterministic (seeded keys, deterministic signatures), so rebuilding
// the chain for the same (target, host) reproduces it bit for bit —
// memoizing only removes the repeated Ed25519 signing, which the probe
// suite otherwise pays once per device for each of the ~200 CAs.
type spoofChain struct {
	spoof certs.KeyPair
	leaf  certs.KeyPair
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
		leaves:       make(map[string]certs.KeyPair),
		bcLeaves:     make(map[string]certs.KeyPair),
		spoofs:       make(map[string]spoofChain),
		spoofRoots:   make(map[string]certs.KeyPair),
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
		leaf := p.selfSignedLeaf(host)
		return []*certs.Certificate{leaf.Cert, p.attackerRoot.Cert}, leaf
	case AttackWrongHostname:
		// Full valid chain, wrong name.
		return []*certs.Certificate{p.legitLeaf.Cert, p.trustedCA.Cert}, p.legitLeaf
	case AttackInvalidBasicConstraints:
		// The legit leaf (CA=false) misused as an issuer for host.
		leaf := p.bcLeaf(host)
		return []*certs.Certificate{leaf.Cert, p.legitLeaf.Cert, p.trustedCA.Cert}, leaf
	case AttackSpoofedCA:
		sc := p.spoofChain(spoofTarget, host)
		return []*certs.Certificate{sc.leaf.Cert, sc.spoof.Cert}, sc.leaf
	default:
		return nil, certs.KeyPair{}
	}
}

func (p *Proxy) selfSignedLeaf(host string) certs.KeyPair {
	p.mu.Lock()
	defer p.mu.Unlock()
	if leaf, ok := p.leaves[host]; ok {
		return leaf
	}
	leaf := p.attackerRoot.Issue(certs.Template{
		SerialNumber: serial(host),
		Subject:      certs.Name{CommonName: host},
		NotBefore:    attackNotBefore, NotAfter: attackNotAfter,
		DNSNames: []string{host},
	}, "mitm-leaf-"+host)
	p.leaves[host] = leaf
	return leaf
}

// bcLeaf memoizes the per-host InvalidBasicConstraints leaf.
func (p *Proxy) bcLeaf(host string) certs.KeyPair {
	p.mu.Lock()
	defer p.mu.Unlock()
	if leaf, ok := p.bcLeaves[host]; ok {
		return leaf
	}
	leaf := p.legitLeaf.Issue(certs.Template{
		SerialNumber: serial(host) + 1,
		Subject:      certs.Name{CommonName: host},
		NotBefore:    attackNotBefore, NotAfter: attackNotAfter,
		DNSNames: []string{host},
	}, "mitm-bc-leaf-"+host)
	p.bcLeaves[host] = leaf
	return leaf
}

// spoofChain memoizes the SpoofedCA chain for one (target, host) pair.
// The spoofed root depends only on the target, so every host attacked
// with one target shares it; the leaf is per host.
func (p *Proxy) spoofChain(spoofTarget *certs.Certificate, host string) spoofChain {
	target := spoofTarget.Fingerprint()
	key := target + "|" + host
	p.mu.Lock()
	defer p.mu.Unlock()
	if sc, ok := p.spoofs[key]; ok {
		return sc
	}
	spoof, ok := p.spoofRoots[target]
	if !ok {
		spoof = certs.Spoof(spoofTarget, "mitm-spoof-"+spoofTarget.SubjectKey())
		p.spoofRoots[target] = spoof
	}
	leaf := spoof.Issue(certs.Template{
		SerialNumber: serial(host) + 2,
		Subject:      certs.Name{CommonName: host},
		NotBefore:    attackNotBefore, NotAfter: attackNotAfter,
		DNSNames: []string{host},
	}, "mitm-spoof-leaf-"+host)
	sc := spoofChain{spoof: spoof, leaf: leaf}
	p.spoofs[key] = sc
	return sc
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

// interceptHandle is a live interception tap. Its drain method is the
// deterministic way to read results: it waits for every handler whose
// connection has already been dialed to finish publishing, then returns
// the records. Handler lifetimes are bounded (every read in serveAttack
// carries a deadline), so the wait always terminates.
type interceptHandle struct {
	records chan indexedRecord
	dials   atomic.Int64
	wg      sync.WaitGroup
	remove  func()
}

// indexedRecord carries the dial ordinal assigned when the tap matched
// the connection. Tap selectors run synchronously inside netem.Dial, so
// the ordinal reflects the client's dial order even though handler
// goroutines publish in scheduling order.
type indexedRecord struct {
	idx int64
	rec ConnRecord
}

// drain waits for all in-flight handlers, then returns their records in
// dial order. Callers must have finished dialing (the client side of
// every tapped connection has returned) before calling, so no new
// handlers can start during the wait.
func (h *interceptHandle) drain() []ConnRecord {
	h.wg.Wait()
	var got []indexedRecord
	for {
		select {
		case r := <-h.records:
			got = append(got, r)
		default:
			sort.Slice(got, func(i, j int) bool { return got[i].idx < got[j].idx })
			out := make([]ConnRecord, len(got))
			for i, r := range got {
				out[i] = r.rec
			}
			return out
		}
	}
}

// stop deregisters the tap.
func (h *interceptHandle) stop() { h.remove() }

// intercept registers a tap hijacking connections from srcHost to
// dstHost. The tap filters on the source device, so intercepts against
// different devices stack and run concurrently.
func (p *Proxy) intercept(attack Attack, srcHost, dstHost string, spoofTarget *certs.Certificate) *interceptHandle {
	h := &interceptHandle{records: make(chan indexedRecord, 64)}
	chain, key := p.chainFor(attack, dstHost, spoofTarget)
	h.remove = p.nw.AddTap(func(meta netem.ConnMeta) netem.Handler {
		if meta.SrcHost != srcHost || meta.DstHost != dstHost || meta.DstPort != 443 {
			return nil
		}
		idx := h.dials.Add(1)
		h.wg.Add(1)
		return func(conn net.Conn, meta netem.ConnMeta) {
			defer h.wg.Done()
			h.records <- indexedRecord{idx: idx, rec: p.serveAttack(attack, dstHost, chain, key, conn)}
		}
	})
	return h
}

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
	sess.Conn.Conn.SetDeadline(time.Now().Add(netem.DefaultIODeadline))
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
