package driver

import (
	"strings"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/ciphers"
	"repro/internal/clock"
	"repro/internal/cloud"
	"repro/internal/device"
	"repro/internal/netem"
)

// testbed assembles network + devices + cloud + passive capture.
func testbed(t *testing.T) (*netem.Network, *device.Registry, *cloud.Cloud, *capture.Store, *clock.Simulated) {
	t.Helper()
	clk := clock.NewSimulated(device.StudyStart.Start())
	nw := netem.New(clk)
	reg := device.NewRegistry(clk)
	cl := cloud.New(nw, reg)
	store := capture.NewStore()
	col := capture.NewCollector(store)
	nw.SetMirror(col.Mirror)
	return nw, reg, cl, store, clk
}

func TestBootEstablishesAllDestinations(t *testing.T) {
	nw, reg, _, store, _ := testbed(t)
	dev, _ := reg.Get("google-home-mini")
	outs := Boot(nw, dev, device.StudyStart, 1, nil)
	if len(outs) != 5 {
		t.Fatalf("boot outcomes = %d, want 5", len(outs))
	}
	for _, o := range outs {
		if !o.Established {
			t.Errorf("%s -> %s failed: %v", o.Device, o.Host, o.Err)
		}
		if o.Reply == "" || !strings.Contains(o.Reply, "200 OK") {
			t.Errorf("%s -> %s reply = %q", o.Device, o.Host, o.Reply)
		}
	}
	// The gateway mirror observed every connection.
	obs := store.ByDevice("google-home-mini")
	if len(obs) != 5 {
		t.Fatalf("captured observations = %d, want 5", len(obs))
	}
	for _, o := range obs {
		if !o.Established || !o.SawClientHello || !o.SawServerHello {
			t.Errorf("observation incomplete: %+v", o)
		}
		if o.SNI != o.Host {
			t.Errorf("SNI %q != host %q", o.SNI, o.Host)
		}
		if o.NegotiatedVersion != ciphers.TLS12 {
			t.Errorf("negotiated %v, want TLS 1.2 in 2018", o.NegotiatedVersion)
		}
		if o.AppDataRecords == 0 {
			t.Error("no application data observed")
		}
		if !o.RequestedOCSPStaple {
			t.Error("home mini should request staples")
		}
	}
}

func TestServerLimitedEstablishment(t *testing.T) {
	// Samsung Fridge advertises TLS 1.2 but its servers cap at 1.1
	// (Figure 1's advertise-vs-establish gap).
	nw, reg, _, store, _ := testbed(t)
	dev, _ := reg.Get("samsung-fridge")
	outs := Boot(nw, dev, device.StudyStart, 1, nil)
	for _, o := range outs {
		if !o.Established {
			t.Fatalf("fridge -> %s failed: %v", o.Host, o.Err)
		}
	}
	for _, o := range store.ByDevice("samsung-fridge") {
		if o.AdvertisedMax != ciphers.TLS12 {
			t.Errorf("advertised max = %v, want 1.2", o.AdvertisedMax)
		}
		if o.NegotiatedVersion != ciphers.TLS11 {
			t.Errorf("negotiated = %v, want 1.1", o.NegotiatedVersion)
		}
	}
}

func TestLegacyRC4ServerEstablishesInsecure(t *testing.T) {
	// Wink Hub 2's hooks destination establishes RC4 (one of only two
	// devices that ever established insecure suites, Figure 2).
	nw, reg, _, store, _ := testbed(t)
	dev, _ := reg.Get("wink-hub-2")
	outs := Boot(nw, dev, device.StudyStart, 1, nil)
	for _, o := range outs {
		if !o.Established {
			t.Fatalf("wink -> %s failed: %v", o.Host, o.Err)
		}
	}
	sawInsecure := false
	for _, o := range store.ByDevice("wink-hub-2") {
		if o.Host == "hooks.wink.com" {
			if !o.EstablishedInsecure() {
				t.Errorf("hooks.wink.com suite = %v, want insecure", o.NegotiatedSuite)
			}
			sawInsecure = true
		} else if o.EstablishedInsecure() {
			t.Errorf("%s unexpectedly insecure", o.Host)
		}
	}
	if !sawInsecure {
		t.Fatal("hooks.wink.com not observed")
	}
}

func TestTLS13DeviceAgainstTLS13Server(t *testing.T) {
	nw, reg, _, store, _ := testbed(t)
	dev, _ := reg.Get("google-home-mini")
	m := clock.Month{Year: 2019, Mon: 6} // after the 5/2019 transition
	outs := Boot(nw, dev, m, 50, nil)
	for _, o := range outs {
		if !o.Established {
			t.Fatalf("%s failed: %v", o.Host, o.Err)
		}
	}
	for _, o := range store.ByDevice("google-home-mini") {
		if o.AdvertisedMax != ciphers.TLS13 {
			t.Errorf("advertised max = %v, want 1.3", o.AdvertisedMax)
		}
		if o.NegotiatedVersion != ciphers.TLS13 {
			t.Errorf("negotiated = %v, want 1.3 (PFS servers support it)", o.NegotiatedVersion)
		}
	}
}

func TestAppleTVEstablishesBelowAdvertised(t *testing.T) {
	// Apple TV advertises 1.3 after 5/2019 but its servers stop at 1.2.
	nw, reg, _, store, _ := testbed(t)
	dev, _ := reg.Get("apple-tv")
	m := clock.Month{Year: 2019, Mon: 7}
	for _, o := range Boot(nw, dev, m, 9, nil) {
		if !o.Established {
			t.Fatalf("%s failed: %v", o.Host, o.Err)
		}
	}
	for _, o := range store.ByDevice("apple-tv") {
		if o.AdvertisedMax != ciphers.TLS13 {
			t.Errorf("advertised = %v, want 1.3", o.AdvertisedMax)
		}
		if o.NegotiatedVersion != ciphers.TLS12 {
			t.Errorf("negotiated = %v, want 1.2", o.NegotiatedVersion)
		}
	}
}

func TestRevocationTrafficReachesResponders(t *testing.T) {
	nw, reg, cl, _, _ := testbed(t)
	// Samsung TV checks CRL + OCSP.
	tv, _ := reg.Get("samsung-tv")
	for _, o := range Boot(nw, tv, device.StudyStart, 3, nil) {
		if !o.Established {
			t.Fatalf("%s failed: %v", o.Host, o.Err)
		}
	}
	if cl.OCSPHits()["samsung-tv"] == 0 {
		t.Error("no OCSP fetches from samsung-tv")
	}
	if cl.CRLHits()["samsung-tv"] == 0 {
		t.Error("no CRL fetches from samsung-tv")
	}
	// A stapling-only device contacts no responder.
	mini, _ := reg.Get("google-home-mini")
	Boot(nw, mini, device.StudyStart, 4, nil)
	if cl.OCSPHits()["google-home-mini"] != 0 || cl.CRLHits()["google-home-mini"] != 0 {
		t.Error("stapling-only device contacted responders")
	}
}

func TestNoValidationDeviceWorksAgainstRealCloud(t *testing.T) {
	nw, reg, _, _, _ := testbed(t)
	dev, _ := reg.Get("zmodo-doorbell")
	for _, o := range Boot(nw, dev, device.StudyStart, 5, nil) {
		if !o.Established {
			t.Fatalf("%s failed: %v", o.Host, o.Err)
		}
		if !o.ValidationBypassed {
			t.Errorf("%s: validation not bypassed", o.Host)
		}
	}
}

func TestConnectOutcomeOnMissingHost(t *testing.T) {
	nw, reg, _, _, _ := testbed(t)
	dev, _ := reg.Get("yi-camera")
	dst := device.Destination{Host: "unreachable.example.com", Slot: 0, Boot: true, MonthlyConns: 1}
	out := Connect(nw, dev, dst, device.StudyStart, 1)
	if out.Established || out.Err == nil {
		t.Fatalf("outcome = %+v, want failure", out)
	}
}

func TestWeightedCapture(t *testing.T) {
	nw, reg, _, store, _ := testbed(t)
	col := capture.NewCollector(store)
	nw.SetMirror(col.Mirror)
	dev, _ := reg.Get("behmor-brewer")
	dst := dev.Destinations[0]
	col.WillDial(dev.ID, dst.Host, 443, 1234)
	out := Connect(nw, dev, dst, device.StudyStart, 7)
	if !out.Established {
		t.Fatalf("connect failed: %v", out.Err)
	}
	// Wait for the mirror close to publish.
	deadline := time.Now().Add(time.Second)
	for store.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	obs := store.ByDevice("behmor-brewer")
	if len(obs) != 1 || obs[0].Weight != 1234 {
		t.Fatalf("weighted observation = %+v", obs)
	}
	if store.TotalWeight() != 1234 {
		t.Fatalf("TotalWeight = %d", store.TotalWeight())
	}
}
