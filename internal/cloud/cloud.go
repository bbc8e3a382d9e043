// Package cloud stands up the server side of the IoT ecosystem: one TLS
// endpoint per device destination, with a capability profile that models
// how much of the clients' security the real-world servers supported
// (§5.1 found server support, not device support, limiting many
// connections), plus the OCSP/CRL responder endpoints revocation-
// checking devices contact (Table 8).
package cloud

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/certs"
	"repro/internal/ciphers"
	"repro/internal/clock"
	"repro/internal/device"
	"repro/internal/netem"
	"repro/internal/tlssim"
)

// Responder host names for the simulated CA infrastructure.
const (
	OCSPHost = "ocsp.sim-ca.com"
	CRLHost  = "crl.sim-ca.com"
)

// Cloud is the collection of simulated cloud services.
type Cloud struct {
	Network *netem.Network
	CA      certs.KeyPair

	mu      sync.Mutex
	servers map[string]*tlssim.ServerConfig // host -> config

	// RevocationHits counts OCSP/CRL fetches by source host.
	revMu          sync.Mutex
	ocspHits       map[string]int
	crlHits        map[string]int
	handshakeCount int
}

// certValidity is the validity window for cloud leaf certificates: wide
// enough to span the passive study and the 2021 active snapshot.
var (
	certNotBefore = time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	certNotAfter  = time.Date(2031, 1, 1, 0, 0, 0, 0, time.UTC)
)

// New builds the cloud for every destination in the registry and
// registers all listeners on the network. The PKI chains to the first
// operational CA of the registry's universe, which every device trusts.
func New(nw *netem.Network, reg *device.Registry) *Cloud {
	ops := device.OperationalCAs(reg.Universe)
	c := &Cloud{
		Network:  nw,
		CA:       ops[0].Pair,
		servers:  make(map[string]*tlssim.ServerConfig),
		ocspHits: make(map[string]int),
		crlHits:  make(map[string]int),
	}

	seen := map[string]bool{}
	for _, dev := range reg.Devices {
		for _, dst := range dev.Destinations {
			if seen[dst.Host] {
				continue
			}
			seen[dst.Host] = true
			c.addServer(dst.Host, dst.Server)
		}
	}
	c.registerResponders()
	return c
}

// addServer creates the endpoint's certificate and listener.
func (c *Cloud) addServer(host string, profile device.ServerProfile) {
	leaf := c.CA.Issue(certs.Template{
		SerialNumber: serialFor(host),
		Subject:      certs.Name{CommonName: host, Organization: "Cloud Services", Country: "US"},
		NotBefore:    certNotBefore,
		NotAfter:     certNotAfter,
		DNSNames:     []string{host},
		OCSPServer:   OCSPHost,
		CRLServer:    CRLHost,
	}, "cloud-leaf-"+host)

	cfg := &tlssim.ServerConfig{
		Chain:      []*certs.Certificate{leaf.Cert, c.CA.Cert},
		Key:        leaf,
		OCSPStaple: true,
		Telemetry:  c.Network.Telemetry(),
	}
	switch profile {
	case device.SrvModernPFS:
		cfg.MinVersion, cfg.MaxVersion = ciphers.TLS10, ciphers.TLS13
		cfg.CipherSuites = []ciphers.Suite{
			ciphers.TLS_AES_128_GCM_SHA256,
			ciphers.TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
			ciphers.TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384,
			ciphers.TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA,
			ciphers.TLS_RSA_WITH_AES_128_GCM_SHA256,
			ciphers.TLS_RSA_WITH_AES_128_CBC_SHA,
		}
	case device.SrvModern12:
		cfg.MinVersion, cfg.MaxVersion = ciphers.TLS10, ciphers.TLS12
		cfg.CipherSuites = []ciphers.Suite{
			ciphers.TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
			ciphers.TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA,
			ciphers.TLS_RSA_WITH_AES_128_GCM_SHA256,
			ciphers.TLS_RSA_WITH_AES_128_CBC_SHA,
		}
	case device.SrvRSAOnly:
		cfg.MinVersion, cfg.MaxVersion = ciphers.TLS10, ciphers.TLS12
		cfg.CipherSuites = []ciphers.Suite{
			ciphers.TLS_RSA_WITH_AES_128_GCM_SHA256,
			ciphers.TLS_RSA_WITH_AES_128_CBC_SHA,
			ciphers.TLS_RSA_WITH_AES_256_CBC_SHA,
			ciphers.TLS_RSA_WITH_3DES_EDE_CBC_SHA,
		}
	case device.SrvLegacy11:
		cfg.MinVersion, cfg.MaxVersion = ciphers.SSL30, ciphers.TLS11
		cfg.CipherSuites = []ciphers.Suite{
			ciphers.TLS_RSA_WITH_AES_128_CBC_SHA,
			ciphers.TLS_RSA_WITH_AES_256_CBC_SHA,
			ciphers.TLS_RSA_WITH_3DES_EDE_CBC_SHA,
		}
	case device.SrvLegacy10:
		cfg.MinVersion, cfg.MaxVersion = ciphers.SSL30, ciphers.TLS10
		cfg.CipherSuites = []ciphers.Suite{
			ciphers.TLS_RSA_WITH_AES_128_CBC_SHA,
			ciphers.TLS_RSA_WITH_3DES_EDE_CBC_SHA,
			ciphers.TLS_RSA_WITH_RC4_128_SHA,
		}
	case device.SrvLegacyRC4:
		cfg.MinVersion, cfg.MaxVersion = ciphers.SSL30, ciphers.TLS10
		cfg.CipherSuites = []ciphers.Suite{
			ciphers.TLS_RSA_WITH_RC4_128_SHA,
			ciphers.TLS_RSA_WITH_3DES_EDE_CBC_SHA,
			ciphers.TLS_RSA_WITH_AES_128_CBC_SHA,
		}
	}

	c.mu.Lock()
	c.servers[host] = cfg
	c.mu.Unlock()
	c.Network.Listen(host, 443, c.serveTLS(host))
}

// serveTLS returns the connection handler for host.
func (c *Cloud) serveTLS(host string) netem.Handler {
	return func(conn net.Conn, meta netem.ConnMeta) {
		c.mu.Lock()
		cfg := c.servers[host]
		c.mu.Unlock()
		res := tlssim.Serve(conn, cfg)
		if res.Err != nil {
			return
		}
		c.revMu.Lock()
		c.handshakeCount++
		c.revMu.Unlock()
		sess := res.Session
		defer sess.Close()
		// Read the device's request and answer it.
		buf := make([]byte, 1024)
		if _, err := sess.Conn.Read(buf); err != nil {
			return
		}
		fmt.Fprintf(sess.Conn, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
	}
}

// ServerConfigFor exposes the config for host (testing and the Table 6
// force-version experiment).
func (c *Cloud) ServerConfigFor(host string) (*tlssim.ServerConfig, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cfg, ok := c.servers[host]
	return cfg, ok
}

// SetForceVersion temporarily forces the version the host's server
// negotiates (0 restores normal negotiation). Used by the Table 6
// old-version establishment experiment.
func (c *Cloud) SetForceVersion(host string, v ciphers.Version) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	cfg, ok := c.servers[host]
	if !ok {
		return false
	}
	cfg.ForceVersion = v
	if v != 0 && v < cfg.MinVersion {
		cfg.MinVersion = v
	}
	return true
}

// registerResponders installs the OCSP and CRL endpoints (plain TCP,
// port 80) whose traffic Table 8 counts.
func (c *Cloud) registerResponders() {
	c.respond(OCSPHost, "OCSP-CHECK", "OCSP-GOOD\n", "cloud.ocsp_hits", c.ocspHits)
	c.respond(CRLHost, "CRL-FETCH", "CRL-EMPTY\n", "cloud.crl_hits", c.crlHits)
}

// respond serves one revocation endpoint: a request opening with verb
// counts a hit for its source in hits and gets reply.
func (c *Cloud) respond(host, verb, reply, counter string, hits map[string]int) {
	c.Network.Listen(host, 80, func(conn net.Conn, meta netem.ConnMeta) {
		defer conn.Close()
		buf := make([]byte, 256)
		n, err := conn.Read(buf)
		if err != nil || !strings.HasPrefix(string(buf[:n]), verb) {
			return
		}
		c.revMu.Lock()
		hits[meta.SrcHost]++
		c.revMu.Unlock()
		c.Network.Telemetry().Counter(counter).Inc()
		conn.Write([]byte(reply))
	})
}

// OCSPHits returns per-device OCSP fetch counts.
func (c *Cloud) OCSPHits() map[string]int {
	c.revMu.Lock()
	defer c.revMu.Unlock()
	out := make(map[string]int, len(c.ocspHits))
	for k, v := range c.ocspHits {
		out[k] = v
	}
	return out
}

// CRLHits returns per-device CRL fetch counts.
func (c *Cloud) CRLHits() map[string]int {
	c.revMu.Lock()
	defer c.revMu.Unlock()
	out := make(map[string]int, len(c.crlHits))
	for k, v := range c.crlHits {
		out[k] = v
	}
	return out
}

// Handshakes reports completed server-side handshakes.
func (c *Cloud) Handshakes() int {
	c.revMu.Lock()
	defer c.revMu.Unlock()
	return c.handshakeCount
}

// serialFor derives a stable serial number for a host certificate.
func serialFor(host string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(host); i++ {
		h ^= uint64(host[i])
		h *= 1099511628211
	}
	return h | 0x8000000000000000
}

// ValidAtStudyTime reports whether the cloud PKI is valid across the
// whole simulated window (a sanity helper for tests).
func ValidAtStudyTime() bool {
	start := clock.Month{Year: 2018, Mon: 1}.Start()
	end := clock.Month{Year: 2021, Mon: 12}.Start()
	return certNotBefore.Before(start) && certNotAfter.After(end)
}
