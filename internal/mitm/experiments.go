package mitm

import (
	"net"
	"sort"
	"sync"

	"repro/internal/certs"
	"repro/internal/ciphers"
	"repro/internal/device"
	"repro/internal/driver"
	"repro/internal/netem"
	"repro/internal/trace"
	"repro/internal/wire"
)

// InterceptionAttempts is how many connection attempts each
// device/destination/attack combination gets. Four attempts are enough
// to trip the Yi Camera's give-up-after-3 behaviour, the way the
// paper's repeated reboots did.
const InterceptionAttempts = 4

// HostResult records the outcome of one attack against one destination.
type HostResult struct {
	Host        string
	Vulnerable  bool
	Payload     string
	Sensitive   bool
	ClientAlert *wire.Alert
}

// InterceptionReport aggregates the Table 7 evidence for one device.
type InterceptionReport struct {
	Device string
	// PerAttack maps each Table 2 attack to per-host results.
	PerAttack map[Attack][]HostResult
	// TotalHosts is the device's destination count (Table 7 column 5
	// denominator).
	TotalHosts int
}

// VulnerableTo reports whether any destination fell to the attack.
func (r *InterceptionReport) VulnerableTo(a Attack) bool {
	for _, h := range r.PerAttack[a] {
		if h.Vulnerable {
			return true
		}
	}
	return false
}

// VulnerableHosts returns the hosts vulnerable to at least one attack
// (Table 7 column 5 numerator).
func (r *InterceptionReport) VulnerableHosts() []string {
	set := map[string]bool{}
	for _, hs := range r.PerAttack {
		for _, h := range hs {
			if h.Vulnerable {
				set[h.Host] = true
			}
		}
	}
	var out []string
	for h := range set {
		out = append(out, h)
	}
	return out
}

// LeakedSensitive reports whether any intercepted connection carried
// sensitive data (§5.2's 7/11 devices).
func (r *InterceptionReport) LeakedSensitive() bool {
	for _, hs := range r.PerAttack {
		for _, h := range hs {
			if h.Vulnerable && h.Sensitive {
				return true
			}
		}
	}
	return false
}

// Vulnerable reports whether the device fell to any attack.
func (r *InterceptionReport) Vulnerable() bool {
	return len(r.VulnerableHosts()) > 0
}

// interceptionTargets lists the destinations exercised by the
// interception suite: everything the device contacts in the active
// window except post-login extras.
func interceptionTargets(dev *device.Device) []device.Destination {
	var out []device.Destination
	for _, dst := range dev.Destinations {
		if dst.AfterLogin {
			continue
		}
		out = append(out, dst)
	}
	return out
}

// RunInterception executes the three Table 2 attacks against every
// destination of the device and reports the Table 7 evidence. Every
// connection is traced under the device's span sp, which may be nil.
func (p *Proxy) RunInterception(dev *device.Device, sp *trace.Span) *InterceptionReport {
	report := &InterceptionReport{
		Device:    dev.ID,
		PerAttack: make(map[Attack][]HostResult),
	}
	targets := interceptionTargets(dev)
	report.TotalHosts = len(targets)
	for _, attack := range []Attack{AttackNoValidation, AttackInvalidBasicConstraints, AttackWrongHostname} {
		for _, dst := range targets {
			report.PerAttack[attack] = append(report.PerAttack[attack], p.attackHost(dev, dst, attack, sp))
		}
	}
	return report
}

// attackHost runs one attack against one destination, rebooting the
// device first and allowing repeated attempts within the session.
func (p *Proxy) attackHost(dev *device.Device, dst device.Destination, attack Attack, sp *trace.Span) HostResult {
	h := p.intercept(attack, dev.ID, dst.Host, nil)
	defer h.stop()

	// A fresh boot: per-instance failure counters reset.
	for i := range dev.Slots {
		dev.ConfigAt(i, device.ActiveSnapshot).ResetState()
	}

	res := HostResult{Host: dst.Host}
	for attempt := 0; attempt < InterceptionAttempts; attempt++ {
		driver.ConnectTraced(p.nw, dev, dst, device.ActiveSnapshot, uint64(attempt)+1, sp)
		for _, rec := range h.drain() {
			if rec.ClientAlert != nil {
				res.ClientAlert = rec.ClientAlert
			}
			if rec.Intercepted {
				res.Vulnerable = true
				if rec.Payload != "" {
					res.Payload = rec.Payload
					res.Sensitive = SensitivePayload(rec.Payload)
				}
			}
		}
		if res.Vulnerable {
			break
		}
	}
	return res
}

// AttackOne runs a single attack against one destination — used by the
// passthrough control to re-test newly discovered hosts for validation
// failures (§4.2's negative result).
func (p *Proxy) AttackOne(dev *device.Device, dst device.Destination, attack Attack) HostResult {
	return p.attackHost(dev, dst, attack, nil)
}

// DowngradeReport records the Table 5 evidence for one device.
type DowngradeReport struct {
	Device string
	// OnFailed / OnIncomplete report whether each trigger caused a
	// downgrade on any destination.
	OnFailed     bool
	OnIncomplete bool
	// DowngradedHosts / TotalHosts form the Table 5 ratio.
	DowngradedHosts int
	TotalHosts      int
	// Description summarises the observed downgrade.
	Description string
}

// Downgraded reports whether any downgrade was observed.
func (r *DowngradeReport) Downgraded() bool { return r.DowngradedHosts > 0 }

// RunDowngrade probes each boot destination with both failure triggers
// and inspects whether the retry ClientHello is weaker (Table 5). Every
// connection is traced under the device's span sp, which may be nil.
func (p *Proxy) RunDowngrade(dev *device.Device, sp *trace.Span) *DowngradeReport {
	report := &DowngradeReport{Device: dev.ID}
	boot := dev.BootDestinations()
	report.TotalHosts = len(boot)
	downgraded := map[string]bool{}

	for _, trigger := range []Attack{AttackFailedHandshake, AttackIncompleteHandshake} {
		for _, dst := range boot {
			h := p.intercept(trigger, dev.ID, dst.Host, nil)
			for i := range dev.Slots {
				dev.ConfigAt(i, device.ActiveSnapshot).ResetState()
			}
			driver.ConnectTraced(p.nw, dev, dst, device.ActiveSnapshot, 1, sp)
			recs := h.drain()
			h.stop()
			if len(recs) < 2 {
				continue // no retry observed
			}
			first, second := recs[0].Hello, recs[1].Hello
			if first == nil || second == nil {
				continue
			}
			desc, weaker := compareHellos(first, second)
			if !weaker {
				continue
			}
			downgraded[dst.Host] = true
			report.Description = desc
			if trigger == AttackFailedHandshake {
				report.OnFailed = true
			} else {
				report.OnIncomplete = true
			}
		}
	}
	report.DowngradedHosts = len(downgraded)
	return report
}

// compareHellos decides whether the retry hello is weaker than the
// original, and describes the dominant aspect the way Table 5 does:
// a fall to a *deprecated* protocol version is the headline; otherwise
// a collapsed ciphersuite list; otherwise weakened signature
// algorithms; otherwise any version decrease.
func compareHellos(first, second *wire.ClientHello) (string, bool) {
	f, s := first.MaxVersion(), second.MaxVersion()
	if s < f && s.Deprecated() {
		return "falls back to using " + s.String(), true
	}
	if len(second.CipherSuites) < len(first.CipherSuites) {
		if len(second.CipherSuites) == 1 {
			return "falls back to a single ciphersuite (" + second.CipherSuites[0].String() + ")", true
		}
		return "falls back to a weaker ciphersuite set (" + second.CipherSuites[0].String() + ")", true
	}
	if weakerSigalgs(first.SignatureAlgorithms(), second.SignatureAlgorithms()) {
		return "falls back to weaker signature algorithms (rsa_pkcs1_sha1)", true
	}
	if s < f {
		return "falls back to using " + s.String(), true
	}
	return "", false
}

func weakerSigalgs(first, second []ciphers.SignatureAlgorithm) bool {
	strong := func(algs []ciphers.SignatureAlgorithm) int {
		n := 0
		for _, a := range algs {
			if !a.Weak() {
				n++
			}
		}
		return n
	}
	return len(second) > 0 && strong(second) < strong(first)
}

// OldVersionReport records Table 6 evidence: whether the device will
// complete a handshake at each deprecated version when the server
// insists on it.
type OldVersionReport struct {
	Device  string
	TLS10OK bool
	TLS11OK bool
}

// VersionForcer abstracts the ability to force a destination's server
// to a protocol version (implemented by cloud.Cloud).
type VersionForcer interface {
	SetForceVersion(host string, v ciphers.Version) bool
}

// RunOldVersionCheck forces each boot destination's real server to
// TLS 1.0 and 1.1 in turn and records whether any connection
// establishes (Table 6). Every connection is traced under the device's
// span sp, which may be nil.
func RunOldVersionCheck(nw *netem.Network, forcer VersionForcer, dev *device.Device, sp *trace.Span) *OldVersionReport {
	report := &OldVersionReport{Device: dev.ID}
	check := func(v ciphers.Version) bool {
		for _, dst := range dev.BootDestinations() {
			if !forcer.SetForceVersion(dst.Host, v) {
				continue
			}
			for i := range dev.Slots {
				dev.ConfigAt(i, device.ActiveSnapshot).ResetState()
			}
			out := driver.ConnectTraced(nw, dev, dst, device.ActiveSnapshot, uint64(v), sp)
			forcer.SetForceVersion(dst.Host, 0)
			if out.Established && out.Version == v {
				return true
			}
		}
		return false
	}
	report.TLS10OK = check(ciphers.TLS10)
	report.TLS11OK = check(ciphers.TLS11)
	return report
}

// ProbeOnce intercepts a single connection to dst with a chain anchored
// at a spoofed copy of target, returning what the interceptor observed.
// This is the unit step of the root-store exploration technique (§4.2):
// the client's alert distinguishes "unknown CA" from "known CA, bad
// signature". The connection is traced under the device's span sp,
// which may be nil.
func (p *Proxy) ProbeOnce(dev *device.Device, dst device.Destination, target *certs.Certificate, sp *trace.Span) ConnRecord {
	h := p.intercept(AttackSpoofedCA, dev.ID, dst.Host, target)
	defer h.stop()
	for i := range dev.Slots {
		dev.ConfigAt(i, device.ActiveSnapshot).ResetState()
	}
	driver.ConnectTraced(p.nw, dev, dst, device.ActiveSnapshot, 1, sp)
	recs := h.drain()
	if len(recs) == 0 {
		return ConnRecord{Attack: AttackSpoofedCA, Host: dst.Host}
	}
	return recs[0]
}

// ProbeArbitraryCA intercepts with an arbitrary self-signed CA (the
// unknown-issuer control of §4.2), tracing the connection under the
// device's span sp, which may be nil.
func (p *Proxy) ProbeArbitraryCA(dev *device.Device, dst device.Destination, sp *trace.Span) ConnRecord {
	h := p.intercept(AttackNoValidation, dev.ID, dst.Host, nil)
	defer h.stop()
	for i := range dev.Slots {
		dev.ConfigAt(i, device.ActiveSnapshot).ResetState()
	}
	driver.ConnectTraced(p.nw, dev, dst, device.ActiveSnapshot, 1, sp)
	recs := h.drain()
	if len(recs) == 0 {
		return ConnRecord{Attack: AttackNoValidation, Host: dst.Host}
	}
	return recs[0]
}

// PassthroughReport compares the hostnames observed under full
// interception against TrafficPassthrough (§4.2).
type PassthroughReport struct {
	Device           string
	AttackHosts      []string
	PassthroughHosts []string
	NewHosts         []string
}

// NewHostFraction is the per-device fraction of additional hostnames.
func (r *PassthroughReport) NewHostFraction() float64 {
	if len(r.AttackHosts) == 0 {
		return 0
	}
	return float64(len(r.NewHosts)) / float64(len(r.AttackHosts))
}

// RunPassthrough runs a full-interception boot, then a passthrough boot
// where previously-failed connections are not intercepted, and reports
// the hostname delta. Both boots are traced under the device's span sp,
// which may be nil.
func (p *Proxy) RunPassthrough(dev *device.Device, sp *trace.Span) *PassthroughReport {
	report := &PassthroughReport{Device: dev.ID}

	// Phase 1: intercept everything from the device with self-signed
	// certificates; note which hosts failed. The maps are shared between
	// the tap selector (the dialer's goroutine) and the per-connection
	// handler goroutines, which can outlive the client side of a failed
	// handshake — so every access takes the mutex, and each phase waits
	// for its handlers before reading results: phase 2's passthrough
	// decisions depend on a complete `failed` set.
	var mu sync.Mutex
	var handlers sync.WaitGroup
	seen := make(map[string]bool)
	failed := make(map[string]bool)
	removeTap := p.nw.AddTap(func(meta netem.ConnMeta) netem.Handler {
		if meta.SrcHost != dev.ID || meta.DstPort != 443 {
			return nil
		}
		host := meta.DstHost
		mu.Lock()
		seen[host] = true
		mu.Unlock()
		chain, key := p.chainFor(AttackNoValidation, host, nil)
		handlers.Add(1)
		return func(conn net.Conn, meta netem.ConnMeta) {
			defer handlers.Done()
			rec := p.serveAttack(AttackNoValidation, host, chain, key, conn)
			if !rec.Intercepted {
				mu.Lock()
				failed[host] = true
				mu.Unlock()
			}
		}
	})
	driver.Boot(p.nw, dev, device.ActiveSnapshot, 1, sp)
	handlers.Wait()
	removeTap()
	for h := range seen {
		report.AttackHosts = append(report.AttackHosts, h)
	}
	// Map iteration order is randomized; the report is serialized into
	// dataset shards, so the host lists must be deterministic.
	sort.Strings(report.AttackHosts)

	// Phase 2: passthrough — previously-failed hosts go to the real
	// servers; others stay intercepted.
	seen2 := make(map[string]bool)
	removeTap = p.nw.AddTap(func(meta netem.ConnMeta) netem.Handler {
		if meta.SrcHost != dev.ID || meta.DstPort != 443 {
			return nil
		}
		host := meta.DstHost
		mu.Lock()
		seen2[host] = true
		mu.Unlock()
		if failed[host] {
			return nil // pass through
		}
		chain, key := p.chainFor(AttackNoValidation, host, nil)
		handlers.Add(1)
		return func(conn net.Conn, meta netem.ConnMeta) {
			defer handlers.Done()
			p.serveAttack(AttackNoValidation, host, chain, key, conn)
		}
	})
	driver.Boot(p.nw, dev, device.ActiveSnapshot, 2, sp)
	handlers.Wait()
	removeTap()

	mu.Lock()
	for h := range seen2 {
		report.PassthroughHosts = append(report.PassthroughHosts, h)
		if !seen[h] {
			report.NewHosts = append(report.NewHosts, h)
		}
	}
	mu.Unlock()
	sort.Strings(report.PassthroughHosts)
	sort.Strings(report.NewHosts)
	return report
}
