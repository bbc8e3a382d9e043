package mitm

import (
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/certs"
	"repro/internal/ciphers"
	"repro/internal/clock"
	"repro/internal/cloud"
	"repro/internal/device"
	"repro/internal/driver"
	"repro/internal/netem"
	"repro/internal/wire"
)

// testbed builds network + registry + cloud + proxy.
func testbed(t *testing.T) (*netem.Network, *device.Registry, *cloud.Cloud, *Proxy) {
	t.Helper()
	clk := clock.NewSimulated(device.ActiveSnapshot.Start())
	nw := netem.New(clk)
	reg := device.NewRegistry(clk)
	cl := cloud.New(nw, reg)
	return nw, reg, cl, NewProxy(nw, reg.Universe)
}

func get(t *testing.T, reg *device.Registry, id string) *device.Device {
	t.Helper()
	d, ok := reg.Get(id)
	if !ok {
		t.Fatalf("missing device %s", id)
	}
	return d
}

func TestAttackStrings(t *testing.T) {
	names := map[Attack]string{
		AttackNoValidation:            "NoValidation",
		AttackWrongHostname:           "WrongHostname",
		AttackInvalidBasicConstraints: "InvalidBasicConstraints",
		AttackSpoofedCA:               "SpoofedCA",
		AttackIncompleteHandshake:     "IncompleteHandshake",
		AttackFailedHandshake:         "FailedHandshake",
		Attack(99):                    "Unknown",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q", a, a.String())
		}
	}
}

func TestInterceptionNoValidationDevice(t *testing.T) {
	_, reg, _, p := testbed(t)
	rep := p.RunInterception(get(t, reg, "zmodo-doorbell"), nil)
	for _, a := range []Attack{AttackNoValidation, AttackInvalidBasicConstraints, AttackWrongHostname} {
		if !rep.VulnerableTo(a) {
			t.Errorf("zmodo not vulnerable to %s", a)
		}
	}
	if got := len(rep.VulnerableHosts()); got != 6 || rep.TotalHosts != 6 {
		t.Errorf("vulnerable/total = %d/%d, want 6/6", got, rep.TotalHosts)
	}
	if !rep.LeakedSensitive() {
		t.Error("zmodo payload should be sensitive (encrypt_key)")
	}
}

func TestInterceptionAmazonWrongHostnameOnly(t *testing.T) {
	_, reg, _, p := testbed(t)
	rep := p.RunInterception(get(t, reg, "amazon-echo-dot"), nil)
	if rep.VulnerableTo(AttackNoValidation) {
		t.Error("echo dot should reject self-signed certs")
	}
	if rep.VulnerableTo(AttackInvalidBasicConstraints) {
		t.Error("echo dot should reject invalid basic constraints")
	}
	if !rep.VulnerableTo(AttackWrongHostname) {
		t.Error("echo dot should accept wrong-hostname certs on one destination")
	}
	if got := len(rep.VulnerableHosts()); got != 1 || rep.TotalHosts != 9 {
		t.Errorf("vulnerable/total = %d/%d, want 1/9", got, rep.TotalHosts)
	}
	if !rep.LeakedSensitive() {
		t.Error("echo dot leaks bearer tokens")
	}
}

func TestInterceptionYiGiveUp(t *testing.T) {
	_, reg, _, p := testbed(t)
	rep := p.RunInterception(get(t, reg, "yi-camera"), nil)
	if !rep.Vulnerable() {
		t.Fatal("yi camera should fall after repeated attempts")
	}
	if got := len(rep.VulnerableHosts()); got != 1 || rep.TotalHosts != 1 {
		t.Errorf("vulnerable/total = %d/%d, want 1/1", got, rep.TotalHosts)
	}
}

func TestInterceptionSecureDeviceResists(t *testing.T) {
	_, reg, _, p := testbed(t)
	rep := p.RunInterception(get(t, reg, "nest-thermostat"), nil)
	if rep.Vulnerable() {
		t.Fatalf("nest thermostat intercepted: %v", rep.VulnerableHosts())
	}
}

func TestInterceptionPartialDevice(t *testing.T) {
	// Wink Hub 2: 1 of 2 destinations vulnerable.
	_, reg, _, p := testbed(t)
	rep := p.RunInterception(get(t, reg, "wink-hub-2"), nil)
	if got := len(rep.VulnerableHosts()); got != 1 || rep.TotalHosts != 2 {
		t.Errorf("vulnerable/total = %d/%d, want 1/2", got, rep.TotalHosts)
	}
	if rep.VulnerableHosts()[0] != "hooks.wink.com" {
		t.Errorf("vulnerable host = %v", rep.VulnerableHosts())
	}
}

func TestDowngradeAmazonSSL3(t *testing.T) {
	_, reg, _, p := testbed(t)
	rep := p.RunDowngrade(get(t, reg, "amazon-echo-plus"), nil)
	if !rep.OnIncomplete || rep.OnFailed {
		t.Errorf("triggers = failed:%v incomplete:%v, want incomplete only", rep.OnFailed, rep.OnIncomplete)
	}
	if rep.DowngradedHosts != 6 || rep.TotalHosts != 7 {
		t.Errorf("downgraded/total = %d/%d, want 6/7", rep.DowngradedHosts, rep.TotalHosts)
	}
	if !strings.Contains(rep.Description, "SSL 3.0") {
		t.Errorf("description = %q, want SSL 3.0 fallback", rep.Description)
	}
}

func TestDowngradeHomeMiniCipher(t *testing.T) {
	_, reg, _, p := testbed(t)
	rep := p.RunDowngrade(get(t, reg, "google-home-mini"), nil)
	if rep.DowngradedHosts != 5 || rep.TotalHosts != 5 {
		t.Errorf("downgraded/total = %d/%d, want 5/5", rep.DowngradedHosts, rep.TotalHosts)
	}
	if !strings.Contains(rep.Description, "ciphersuite") {
		t.Errorf("description = %q, want ciphersuite downgrade", rep.Description)
	}
}

func TestDowngradeRokuBothTriggers(t *testing.T) {
	_, reg, _, p := testbed(t)
	rep := p.RunDowngrade(get(t, reg, "roku-tv"), nil)
	if !rep.OnIncomplete || !rep.OnFailed {
		t.Errorf("roku triggers = failed:%v incomplete:%v, want both", rep.OnFailed, rep.OnIncomplete)
	}
	if rep.DowngradedHosts != 8 || rep.TotalHosts != 15 {
		t.Errorf("downgraded/total = %d/%d, want 8/15", rep.DowngradedHosts, rep.TotalHosts)
	}
}

func TestNoDowngradeForStableDevice(t *testing.T) {
	_, reg, _, p := testbed(t)
	rep := p.RunDowngrade(get(t, reg, "amazon-echo-dot-3"), nil)
	if rep.Downgraded() {
		t.Fatalf("echo dot 3 downgraded: %+v", rep)
	}
}

func TestOldVersionCheck(t *testing.T) {
	nw, reg, cl, _ := testbed(t)
	cases := map[string][2]bool{
		"zmodo-doorbell":  {true, true},
		"wemo-plug":       {true, false},
		"samsung-fridge":  {false, true},
		"nest-thermostat": {false, false},
	}
	for id, want := range cases {
		rep := RunOldVersionCheck(nw, cl, get(t, reg, id), nil)
		if rep.TLS10OK != want[0] || rep.TLS11OK != want[1] {
			t.Errorf("%s: (1.0, 1.1) = (%v, %v), want (%v, %v)",
				id, rep.TLS10OK, rep.TLS11OK, want[0], want[1])
		}
	}
}

func TestPassthroughFindsNewHosts(t *testing.T) {
	_, reg, _, p := testbed(t)
	rep := p.RunPassthrough(get(t, reg, "philips-hub"), nil)
	if len(rep.NewHosts) != 1 || rep.NewHosts[0] != "portal.meethue.com" {
		t.Fatalf("new hosts = %v, want portal.meethue.com", rep.NewHosts)
	}
	if rep.NewHostFraction() <= 0 {
		t.Fatal("fraction should be positive")
	}
}

func TestPassthroughNoNewHostsForVulnerable(t *testing.T) {
	// A no-validation device succeeds under attack; passthrough adds
	// nothing.
	_, reg, _, p := testbed(t)
	rep := p.RunPassthrough(get(t, reg, "zmodo-doorbell"), nil)
	if len(rep.NewHosts) != 0 {
		t.Fatalf("new hosts = %v, want none", rep.NewHosts)
	}
}

func TestSpoofedCAAlertSideChannel(t *testing.T) {
	// The probe primitive: against an OpenSSL-profile device, a spoofed
	// in-store CA yields decrypt_error, an unknown CA yields unknown_ca.
	_, reg, _, p := testbed(t)
	dev := get(t, reg, "google-home-mini")
	dst, _ := dev.ProbeDestination()

	inStore := device.OperationalCAs(reg.Universe)[0].Pair.Cert
	res := p.ProbeOnce(dev, dst, inStore, nil)
	if res.ClientAlert == nil || res.ClientAlert.Description != wire.AlertDecryptError {
		t.Fatalf("spoofed in-store CA alert = %v, want decrypt_error", res.ClientAlert)
	}

	// A deprecated CA NOT in the Mini's store (it holds only 4 of 87).
	var absent *certs.Certificate
	for _, ca := range reg.Universe.Deprecated {
		if !dev.Roots.Contains(ca.Cert()) {
			absent = ca.Cert()
			break
		}
	}
	if absent == nil {
		t.Fatal("no absent deprecated CA found")
	}
	res = p.ProbeOnce(dev, dst, absent, nil)
	if res.ClientAlert == nil || res.ClientAlert.Description != wire.AlertUnknownCA {
		t.Fatalf("spoofed absent CA alert = %v, want unknown_ca", res.ClientAlert)
	}
}

func TestProbeWithoutTargetPresentsSelfSignedChain(t *testing.T) {
	// A nil target is the unknown-issuer control: the NoValidation
	// chain, counted as a NoValidation attack.
	nw, reg, _, p := testbed(t)
	dev := get(t, reg, "google-home-mini")
	dst, _ := dev.ProbeDestination()
	rec := p.ProbeOnce(dev, dst, nil, nil)
	if rec.Attack != AttackNoValidation || rec.Host != dst.Host {
		t.Fatalf("record = %s on %s, want NoValidation on %s", rec.Attack, rec.Host, dst.Host)
	}
	if rec.ClientAlert == nil || rec.ClientAlert.Description != wire.AlertUnknownCA {
		t.Fatalf("self-signed chain alert = %v, want unknown_ca", rec.ClientAlert)
	}
	tel := nw.Telemetry()
	if got := tel.Counter("mitm.attacks.NoValidation").Value(); got != 1 {
		t.Errorf("mitm.attacks.NoValidation = %d, want 1", got)
	}
	if got := tel.Counter("mitm.attacks.SpoofedCA").Value(); got != 0 {
		t.Errorf("mitm.attacks.SpoofedCA = %d, want 0", got)
	}
}

// wantDials lists the hosts boots dialed, in order: each outcome's host,
// twice when the device retried with its fallback configuration.
func wantDials(outs []driver.Outcome) []string {
	var hosts []string
	for _, o := range outs {
		hosts = append(hosts, o.Host)
		if o.UsedFallback {
			hosts = append(hosts, o.Host)
		}
	}
	return hosts
}

func TestSessionKeepsEveryRecordPastOneDrain(t *testing.T) {
	// A device-wide session tapping far more dials than a fixed record
	// buffer would hold before its first drain still returns every
	// record, in dial order.
	nw, reg, _, p := testbed(t)
	dev := get(t, reg, "amazon-fire-tv")
	s := p.intercept(AttackNoValidation, dev, everyHost, nil)
	defer s.stop()
	var want []string
	for seq := uint64(1); len(want) <= 64; seq++ {
		want = append(want, wantDials(driver.Boot(nw, dev, device.ActiveSnapshot, seq*1000, nil))...)
	}
	done := make(chan []ConnRecord, 1)
	go func() { done <- s.drain() }()
	var recs []ConnRecord
	select {
	case recs = <-done:
	case <-time.After(time.Minute):
		t.Fatalf("drain of %d tapped dials did not return", len(want))
	}
	if len(recs) != len(want) {
		t.Fatalf("drain returned %d records for %d dials", len(recs), len(want))
	}
	for i, rec := range recs {
		if rec.Host != want[i] || rec.Attack != AttackNoValidation {
			t.Fatalf("record %d = %s on %s, want NoValidation on %s", i, rec.Attack, rec.Host, want[i])
		}
	}
	if again := s.drain(); len(again) != 0 {
		t.Fatalf("second drain returned %d records, want none", len(again))
	}
}

func TestSessionListsPassedThroughHosts(t *testing.T) {
	// Dials the selector passes through reach the real server: the
	// session lists their hosts but holds no record for them.
	nw, reg, _, p := testbed(t)
	dev := get(t, reg, "amazon-fire-tv")
	passed := dev.BootDestinations()[0].Host
	s := p.intercept(AttackNoValidation, dev, func(h string) bool { return h != passed }, nil)
	defer s.stop()
	outs := driver.Boot(nw, dev, device.ActiveSnapshot, 1, nil)
	if !outs[0].Established || outs[0].Host != passed {
		t.Fatalf("passed-through dial to %s: established=%v", outs[0].Host, outs[0].Established)
	}
	recs := s.drain()
	for _, rec := range recs {
		if rec.Host == passed {
			t.Fatalf("passed-through host %s has a record", passed)
		}
	}
	var hijacked int
	for _, h := range wantDials(outs) {
		if h != passed {
			hijacked++
		}
	}
	if len(recs) != hijacked {
		t.Fatalf("drain returned %d records, want %d", len(recs), hijacked)
	}
	hosts := s.hosts()
	if i := sort.SearchStrings(hosts, passed); i == len(hosts) || hosts[i] != passed {
		t.Fatalf("session hosts %v miss the passed-through %s", hosts, passed)
	}
	if len(hosts) < 2 {
		t.Fatalf("session hosts = %v, want the hijacked hosts too", hosts)
	}
}

func TestSpoofedRootSharedAcrossHosts(t *testing.T) {
	// The spoofed root depends only on the target, so two hosts attacked
	// with one target share it; each host still gets its own leaf, and
	// each leaf chains to the shared root.
	_, reg, _, p := testbed(t)
	target := device.OperationalCAs(reg.Universe)[0].Pair.Cert
	a, _ := p.chainFor(AttackSpoofedCA, "a.example.com", target)
	b, _ := p.chainFor(AttackSpoofedCA, "b.example.com", target)
	if a[1] != b[1] {
		t.Fatal("hosts attacked with one target got distinct spoofed roots")
	}
	if a[0] == b[0] || a[0].Fingerprint() == b[0].Fingerprint() {
		t.Fatal("hosts attacked with one target share a leaf")
	}
	for _, chain := range [][]*certs.Certificate{a, b} {
		if err := chain[0].CheckSignatureFrom(chain[1]); err != nil {
			t.Fatalf("leaf %s does not chain to the shared spoofed root: %v", chain[0].Subject, err)
		}
	}
	if a[1].SubjectKey() != target.SubjectKey() || a[1].Fingerprint() == target.Fingerprint() {
		t.Fatal("shared root is not a spoof of the target")
	}
	if again, _ := p.chainFor(AttackSpoofedCA, "a.example.com", target); again[0] != a[0] {
		t.Fatal("repeated (target, host) rebuilt its chain")
	}
}

func TestInterceptedTrafficIsDecryptable(t *testing.T) {
	// The whole point of interception: the proxy reads plaintext.
	_, reg, _, p := testbed(t)
	rep := p.RunInterception(get(t, reg, "lg-tv"), nil)
	found := false
	for _, hs := range rep.PerAttack {
		for _, h := range hs {
			if h.Vulnerable && strings.Contains(h.Payload, "deviceSecret=lgtv-7b21") {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("deviceSecret not recovered from intercepted traffic")
	}
}

func TestSensitivePayloadClassifier(t *testing.T) {
	if !SensitivePayload("Authorization: Bearer xyz") {
		t.Error("bearer not flagged")
	}
	if !SensitivePayload("body encrypt_key=111") {
		t.Error("encrypt_key not flagged")
	}
	if SensitivePayload("GET /v1/status HTTP/1.1") {
		t.Error("plain status flagged")
	}
}

func TestForcedVersionRestores(t *testing.T) {
	nw, reg, cl, _ := testbed(t)
	dev := get(t, reg, "zmodo-doorbell")
	RunOldVersionCheck(nw, cl, dev, nil)
	// After the check, normal traffic negotiates normally again.
	cfg, ok := cl.ServerConfigFor(dev.Destinations[0].Host)
	if !ok || cfg.ForceVersion != 0 {
		t.Fatalf("force version not restored: %+v", cfg)
	}
}

var _ = ciphers.TLS10 // keep import when cases shrink
