package mitm

import (
	"strings"
	"testing"

	"repro/internal/certs"
	"repro/internal/ciphers"
	"repro/internal/clock"
	"repro/internal/cloud"
	"repro/internal/device"
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
	rep := p.RunInterception(get(t, reg, "zmodo-doorbell"))
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
	rep := p.RunInterception(get(t, reg, "amazon-echo-dot"))
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
	rep := p.RunInterception(get(t, reg, "yi-camera"))
	if !rep.Vulnerable() {
		t.Fatal("yi camera should fall after repeated attempts")
	}
	if got := len(rep.VulnerableHosts()); got != 1 || rep.TotalHosts != 1 {
		t.Errorf("vulnerable/total = %d/%d, want 1/1", got, rep.TotalHosts)
	}
}

func TestInterceptionSecureDeviceResists(t *testing.T) {
	_, reg, _, p := testbed(t)
	rep := p.RunInterception(get(t, reg, "nest-thermostat"))
	if rep.Vulnerable() {
		t.Fatalf("nest thermostat intercepted: %v", rep.VulnerableHosts())
	}
}

func TestInterceptionPartialDevice(t *testing.T) {
	// Wink Hub 2: 1 of 2 destinations vulnerable.
	_, reg, _, p := testbed(t)
	rep := p.RunInterception(get(t, reg, "wink-hub-2"))
	if got := len(rep.VulnerableHosts()); got != 1 || rep.TotalHosts != 2 {
		t.Errorf("vulnerable/total = %d/%d, want 1/2", got, rep.TotalHosts)
	}
	if rep.VulnerableHosts()[0] != "hooks.wink.com" {
		t.Errorf("vulnerable host = %v", rep.VulnerableHosts())
	}
}

func TestDowngradeAmazonSSL3(t *testing.T) {
	_, reg, _, p := testbed(t)
	rep := p.RunDowngrade(get(t, reg, "amazon-echo-plus"))
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
	rep := p.RunDowngrade(get(t, reg, "google-home-mini"))
	if rep.DowngradedHosts != 5 || rep.TotalHosts != 5 {
		t.Errorf("downgraded/total = %d/%d, want 5/5", rep.DowngradedHosts, rep.TotalHosts)
	}
	if !strings.Contains(rep.Description, "ciphersuite") {
		t.Errorf("description = %q, want ciphersuite downgrade", rep.Description)
	}
}

func TestDowngradeRokuBothTriggers(t *testing.T) {
	_, reg, _, p := testbed(t)
	rep := p.RunDowngrade(get(t, reg, "roku-tv"))
	if !rep.OnIncomplete || !rep.OnFailed {
		t.Errorf("roku triggers = failed:%v incomplete:%v, want both", rep.OnFailed, rep.OnIncomplete)
	}
	if rep.DowngradedHosts != 8 || rep.TotalHosts != 15 {
		t.Errorf("downgraded/total = %d/%d, want 8/15", rep.DowngradedHosts, rep.TotalHosts)
	}
}

func TestNoDowngradeForStableDevice(t *testing.T) {
	_, reg, _, p := testbed(t)
	rep := p.RunDowngrade(get(t, reg, "amazon-echo-dot-3"))
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
		rep := RunOldVersionCheck(nw, cl, get(t, reg, id))
		if rep.TLS10OK != want[0] || rep.TLS11OK != want[1] {
			t.Errorf("%s: (1.0, 1.1) = (%v, %v), want (%v, %v)",
				id, rep.TLS10OK, rep.TLS11OK, want[0], want[1])
		}
	}
}

func TestPassthroughFindsNewHosts(t *testing.T) {
	_, reg, _, p := testbed(t)
	rep := p.RunPassthrough(get(t, reg, "philips-hub"))
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
	rep := p.RunPassthrough(get(t, reg, "zmodo-doorbell"))
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
	res := p.ProbeOnce(dev, dst, inStore)
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
	res = p.ProbeOnce(dev, dst, absent)
	if res.ClientAlert == nil || res.ClientAlert.Description != wire.AlertUnknownCA {
		t.Fatalf("spoofed absent CA alert = %v, want unknown_ca", res.ClientAlert)
	}
}

func TestSpoofedRootSharedAcrossHosts(t *testing.T) {
	// The spoofed root depends only on the target, so two hosts attacked
	// with one target share it; each host still gets its own leaf, and
	// each leaf chains to the shared root.
	_, reg, _, p := testbed(t)
	target := device.OperationalCAs(reg.Universe)[0].Pair.Cert
	a := p.spoofChain(target, "a.example.com")
	b := p.spoofChain(target, "b.example.com")
	if a.spoof.Cert != b.spoof.Cert {
		t.Fatal("hosts attacked with one target got distinct spoofed roots")
	}
	if a.leaf.Cert == b.leaf.Cert || a.leaf.Cert.Fingerprint() == b.leaf.Cert.Fingerprint() {
		t.Fatal("hosts attacked with one target share a leaf")
	}
	for _, sc := range []spoofChain{a, b} {
		if err := sc.leaf.Cert.CheckSignatureFrom(sc.spoof.Cert); err != nil {
			t.Fatalf("leaf %s does not chain to the shared spoofed root: %v", sc.leaf.Cert.Subject, err)
		}
	}
	if a.spoof.Cert.SubjectKey() != target.SubjectKey() || a.spoof.Cert.Fingerprint() == target.Fingerprint() {
		t.Fatal("shared root is not a spoof of the target")
	}
	if again := p.spoofChain(target, "a.example.com"); again.leaf.Cert != a.leaf.Cert {
		t.Fatal("repeated (target, host) rebuilt its chain")
	}
}

func TestInterceptedTrafficIsDecryptable(t *testing.T) {
	// The whole point of interception: the proxy reads plaintext.
	_, reg, _, p := testbed(t)
	rep := p.RunInterception(get(t, reg, "lg-tv"))
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
	RunOldVersionCheck(nw, cl, dev)
	// After the check, normal traffic negotiates normally again.
	cfg, ok := cl.ServerConfigFor(dev.Destinations[0].Host)
	if !ok || cfg.ForceVersion != 0 {
		t.Fatalf("force version not restored: %+v", cfg)
	}
}

var _ = ciphers.TLS10 // keep import when cases shrink
