// Package audit implements the §6 "auditing service" recommendation of
// the paper: a TLS endpoint that IoT devices contact at regular
// intervals (e.g. once per reboot); the service grades the security of
// the connection the device offers — protocol versions, ciphersuites,
// signature algorithms, revocation posture — and produces advisories a
// manufacturer (or user) can act on as new attacks are published.
//
// The server never needs to complete the handshake maliciously; it
// simply terminates TLS with a legitimate certificate and inspects the
// ClientHello, the same observable the study's fingerprinting uses.
package audit

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/certs"
	"repro/internal/ciphers"
	"repro/internal/netem"
	"repro/internal/tlssim"
	"repro/internal/wire"
)

// Severity grades a finding.
type Severity int

const (
	// Info findings are observations, not problems.
	Info Severity = iota
	// Warn findings should be fixed at the next update.
	Warn
	// Critical findings demand immediate remediation (the NSA/OWASP
	// "immediate" class the paper cites for DES/3DES/RC4/EXPORT).
	Critical
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	switch s {
	case Critical:
		return "CRITICAL"
	case Warn:
		return "WARN"
	default:
		return "INFO"
	}
}

// Finding is one graded observation about a device's TLS offer.
type Finding struct {
	Severity Severity
	Code     string
	Detail   string
}

// Advisory is the audit result for one device connection.
type Advisory struct {
	Device   string
	Findings []Finding
	// Grade summarises: "A" (no findings above Info) to "F" (critical).
	Grade string
}

// worstSeverity returns the maximum severity present.
func (a *Advisory) worstSeverity() Severity {
	worst := Info
	for _, f := range a.Findings {
		if f.Severity > worst {
			worst = f.Severity
		}
	}
	return worst
}

// HasCode reports whether a finding with the code exists.
func (a *Advisory) HasCode(code string) bool {
	for _, f := range a.Findings {
		if f.Code == code {
			return true
		}
	}
	return false
}

// Render draws the advisory.
func (a *Advisory) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "audit %s: grade %s\n", a.Device, a.Grade)
	for _, f := range a.Findings {
		fmt.Fprintf(&b, "  [%s] %s: %s\n", f.Severity, f.Code, f.Detail)
	}
	return b.String()
}

// Grade converts a ClientHello into an advisory, applying the paper's
// §2 security criteria.
func Grade(device string, ch *wire.ClientHello) *Advisory {
	adv := &Advisory{Device: device}
	add := func(sev Severity, code, detail string) {
		adv.Findings = append(adv.Findings, Finding{Severity: sev, Code: code, Detail: detail})
	}

	// Protocol versions.
	maxV := ch.MaxVersion()
	minV := maxV
	for _, v := range ch.SupportedVersions() {
		if v < minV {
			minV = v
		}
	}
	if maxV < ciphers.TLS12 {
		add(Critical, "max-version-deprecated",
			fmt.Sprintf("maximum offered version %s is deprecated", maxV))
	} else if maxV == ciphers.TLS12 {
		add(Info, "no-tls13", "TLS 1.3 not offered")
	}
	if minV < ciphers.TLS12 {
		add(Warn, "old-versions-enabled",
			fmt.Sprintf("accepts connections down to %s; active attackers can force old versions", minV))
	}

	// Ciphersuites.
	var insecure, nullAnon []string
	hasStrong := false
	for _, s := range ch.CipherSuites {
		switch {
		case s.NullOrAnon():
			nullAnon = append(nullAnon, s.String())
		case s.Insecure():
			insecure = append(insecure, s.String())
		case s.Strong():
			hasStrong = true
		}
	}
	if len(nullAnon) > 0 {
		add(Critical, "null-anon-suites", strings.Join(nullAnon, ", "))
	}
	if len(insecure) > 0 {
		add(Critical, "insecure-suites",
			fmt.Sprintf("%d insecure suites offered: %s", len(insecure), strings.Join(first3(insecure), ", ")))
	}
	if !hasStrong {
		add(Warn, "no-forward-secrecy", "no (EC)DHE suite offered")
	}

	// Signature algorithms.
	for _, alg := range ch.SignatureAlgorithms() {
		if alg.Weak() {
			add(Warn, "weak-signature-algorithms", alg.String())
			break
		}
	}

	// Revocation posture.
	if !ch.RequestsOCSPStaple() {
		add(Info, "no-ocsp-staple-request", "client does not request stapled OCSP responses")
	}

	switch adv.worstSeverity() {
	case Critical:
		adv.Grade = "F"
	case Warn:
		adv.Grade = "C"
	default:
		adv.Grade = "A"
	}
	return adv
}

func first3(xs []string) []string {
	if len(xs) > 3 {
		return xs[:3]
	}
	return xs
}

// Service is the network-facing audit endpoint.
type Service struct {
	Host string

	mu         sync.Mutex
	advisories map[string]*Advisory // device -> latest advisory
}

// NewService registers the audit endpoint on the network at host:443,
// terminating TLS with a certificate issued by the given CA (which the
// devices must trust).
func NewService(nw *netem.Network, host string, ca certs.KeyPair) *Service {
	svc := &Service{Host: host, advisories: make(map[string]*Advisory)}
	leaf := ca.Issue(certs.Template{
		SerialNumber: 424242,
		Subject:      certs.Name{CommonName: host, Organization: "IoTLS Audit", Country: "US"},
		NotBefore:    ca.Cert.NotBefore,
		NotAfter:     ca.Cert.NotAfter,
		DNSNames:     []string{host},
	}, "audit-leaf-"+host)
	cfg := &tlssim.ServerConfig{
		Chain:            []*certs.Certificate{leaf.Cert, ca.Cert},
		Key:              leaf,
		HandshakeTimeout: 5 * time.Second,
		MinVersion:       ciphers.SSL30, // accept anything: the point is to observe
		MaxVersion:       ciphers.TLS13,
		CipherSuites: []ciphers.Suite{
			ciphers.TLS_AES_128_GCM_SHA256,
			ciphers.TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
			ciphers.TLS_RSA_WITH_AES_128_GCM_SHA256,
			ciphers.TLS_RSA_WITH_AES_128_CBC_SHA,
			ciphers.TLS_RSA_WITH_3DES_EDE_CBC_SHA,
			ciphers.TLS_RSA_WITH_RC4_128_SHA,
		},
		OCSPStaple: true,
		Telemetry:  nw.Telemetry(),
	}
	nw.Listen(host, 443, func(conn net.Conn, meta netem.ConnMeta) {
		res := tlssim.Serve(conn, cfg)
		if res.ClientHello == nil {
			return
		}
		nw.Telemetry().Counter("audit.grades").Inc()
		adv := Grade(meta.SrcHost, res.ClientHello)
		svc.mu.Lock()
		svc.advisories[meta.SrcHost] = adv
		svc.mu.Unlock()
		if res.Session != nil {
			// Read the device's request (the transport is unbuffered;
			// the client writes first), then answer with its grade.
			res.Session.Conn.Conn.SetDeadline(time.Now().Add(nw.IODeadline()))
			buf := make([]byte, 1024)
			res.Session.Conn.Read(buf)
			fmt.Fprintf(res.Session.Conn, "AUDIT %s\n", adv.Grade)
			res.Session.Close()
		}
	})
	return svc
}

// AdvisoryFor returns the latest advisory for a device.
func (s *Service) AdvisoryFor(device string) (*Advisory, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	adv, ok := s.advisories[device]
	return adv, ok
}

// Summary renders all advisories, worst grades first.
func (s *Service) Summary() string {
	s.mu.Lock()
	advs := make([]*Advisory, 0, len(s.advisories))
	for _, a := range s.advisories {
		advs = append(advs, a)
	}
	s.mu.Unlock()
	sort.Slice(advs, func(i, j int) bool {
		if advs[i].Grade != advs[j].Grade {
			return advs[i].Grade > advs[j].Grade
		}
		return advs[i].Device < advs[j].Device
	})
	var b strings.Builder
	b.WriteString("== audit service summary ==\n")
	for _, a := range advs {
		b.WriteString(a.Render())
	}
	return b.String()
}
