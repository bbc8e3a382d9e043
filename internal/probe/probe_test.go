package probe

import (
	"io"
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/clock"
	"repro/internal/cloud"
	"repro/internal/device"
	"repro/internal/mitm"
	"repro/internal/netem"
	"repro/internal/wire"
)

func newProber(t *testing.T) (*Prober, *device.Registry) {
	t.Helper()
	clk := clock.NewSimulated(device.ActiveSnapshot.Start())
	nw := netem.New(clk)
	reg := device.NewRegistry(clk)
	cloud.New(nw, reg)
	return New(mitm.NewProxy(nw, reg.Universe), reg), reg
}

func TestCalibrateAmenableDevice(t *testing.T) {
	p, reg := newProber(t)
	dev, _ := reg.Get("google-home-mini")
	amenable, badSig, unknown, err := p.Calibrate(dev)
	if err != nil {
		t.Fatal(err)
	}
	if !amenable {
		t.Fatal("home mini (OpenSSL profile) should be amenable")
	}
	if badSig != wire.AlertDecryptError || unknown != wire.AlertUnknownCA {
		t.Fatalf("alerts = %s / %s, want decrypt_error / unknown_ca", badSig, unknown)
	}
}

func TestCalibrateMbedTLSDevice(t *testing.T) {
	p, reg := newProber(t)
	dev, _ := reg.Get("amazon-echo-dot-3")
	amenable, badSig, unknown, err := p.Calibrate(dev)
	if err != nil {
		t.Fatal(err)
	}
	if !amenable {
		t.Fatal("echo dot 3 (MbedTLS profile) should be amenable")
	}
	if badSig != wire.AlertBadCertificate || unknown != wire.AlertUnknownCA {
		t.Fatalf("alerts = %s / %s, want bad_certificate / unknown_ca", badSig, unknown)
	}
}

func TestCalibrateNonAmenableDevices(t *testing.T) {
	p, reg := newProber(t)
	for _, id := range []string{"apple-tv", "amazon-fire-tv", "tplink-plug", "behmor-brewer"} {
		dev, _ := reg.Get(id)
		amenable, _, _, err := p.Calibrate(dev)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if amenable {
			t.Errorf("%s should not be amenable", id)
		}
	}
}

func TestExploreMatchesTable9Row(t *testing.T) {
	p, reg := newProber(t)
	dev, _ := reg.Get("google-home-mini")
	rep, err := p.Explore(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Amenable {
		t.Fatal("not amenable")
	}
	ci, cc := rep.CommonStats()
	if ci != 119 || cc != 119 {
		t.Errorf("common = %d/%d, want 119/119", ci, cc)
	}
	di, dc := rep.DeprecatedStats()
	if di != 4 || dc != 71 {
		t.Errorf("deprecated = %d/%d, want 4/71", di, dc)
	}
	if len(rep.TrustedDistrusted()) == 0 {
		t.Error("no distrusted CA recovered (paper: at least one per device)")
	}
	if len(rep.Common) != 122 || len(rep.Deprecated) != 87 {
		t.Errorf("trial counts = %d/%d, want 122/87", len(rep.Common), len(rep.Deprecated))
	}
}

func TestExploreNonAmenableShortCircuits(t *testing.T) {
	p, reg := newProber(t)
	dev, _ := reg.Get("apple-tv")
	rep, err := p.Explore(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Amenable || len(rep.Common) != 0 {
		t.Fatalf("non-amenable device explored: %+v", rep)
	}
}

func TestStaleIncludedYears(t *testing.T) {
	p, reg := newProber(t)
	dev, _ := reg.Get("lg-tv")
	rep, err := p.Explore(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	hist := rep.StaleIncluded()
	total := 0
	for year, n := range hist {
		if year < 2013 || year > 2020 {
			t.Errorf("stale year %d out of range", year)
		}
		total += n
	}
	if total != 48 {
		t.Errorf("stale certs = %d, want 48 (LG TV row)", total)
	}
	// The LG TV holds certificates deprecated as early as 2013 (§5.2).
	early := hist[2013] + hist[2014]
	if early == 0 {
		t.Error("LG TV should hold early-deprecated certificates")
	}
}

func TestVerdictString(t *testing.T) {
	if VerdictIncluded.String() != "included" || VerdictExcluded.String() != "excluded" ||
		VerdictInconclusive.String() != "inconclusive" {
		t.Fatal("verdict names wrong")
	}
}

// dropEveryN models packet loss: a tap that black-holes every nth dial
// counted from its registration, so the probe sees no alert and the
// trial stays inconclusive. Register it before the interceptor's taps
// so it sees every dial. It returns the tap's remove function.
func dropEveryN(nw *netem.Network, n int64) (remove func()) {
	var dials atomic.Int64
	return nw.AddTap(func(netem.ConnMeta) netem.Handler {
		if dials.Add(1)%n != 0 {
			return nil
		}
		return func(conn net.Conn, _ netem.ConnMeta) {
			defer conn.Close()
			conn.(netem.Staller).StallPeer()
			io.Copy(io.Discard, conn)
		}
	})
}

func TestMajorityVotingSurvivesPacketLoss(t *testing.T) {
	// Under packet loss some probe attempts are black-holed (no alert,
	// inconclusive); with three repeats per CA the majority vote still
	// recovers the exact Table 9 row.
	clk := clock.NewSimulated(device.ActiveSnapshot.Start())
	nw := netem.New(clk)
	reg := device.NewRegistry(clk)
	cloud.New(nw, reg)
	p := New(mitm.NewProxy(nw, reg.Universe), reg)
	p.Repeats = 3
	// The Echo Dot 3 has no fallback retry to rescue dropped probes, so
	// loss hits it directly; voting must still recover the exact row.
	dev, _ := reg.Get("amazon-echo-dot-3")

	// Drop roughly every 5th connection.
	defer dropEveryN(nw, 5)()

	rep, err := p.Explore(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Amenable {
		t.Skip("calibration itself was dropped; acceptable under loss")
	}
	ci, cc := rep.CommonStats()
	if ci != 86 || cc != 96 {
		t.Errorf("lossy common = %d/%d, want 86/96", ci, cc)
	}
	di, dc := rep.DeprecatedStats()
	if di != 17 || dc != 72 {
		t.Errorf("lossy deprecated = %d/%d, want 17/72", di, dc)
	}
}

func TestSingleTrialUnderLossDegrades(t *testing.T) {
	// The ablation: without repeats, the same loss rate costs
	// conclusive trials (every dropped probe stays inconclusive).
	clk := clock.NewSimulated(device.ActiveSnapshot.Start())
	nw := netem.New(clk)
	reg := device.NewRegistry(clk)
	cloud.New(nw, reg)
	p := New(mitm.NewProxy(nw, reg.Universe), reg)
	dev, _ := reg.Get("amazon-echo-dot-3")
	defer dropEveryN(nw, 5)()
	rep, err := p.Explore(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Amenable {
		t.Skip("calibration dropped")
	}
	_, cc := rep.CommonStats()
	if cc >= 96 {
		t.Errorf("lossy single-trial conclusive common = %d, expected < 96", cc)
	}
}

func TestFallbackRetryRescuesDroppedProbes(t *testing.T) {
	// A device with a downgrade-on-incomplete fallback (Home Mini)
	// retries through the interceptor when its first attempt is
	// black-holed — and the retry carries the same alert signal, so the
	// probe loses nothing even at a single trial per CA.
	clk := clock.NewSimulated(device.ActiveSnapshot.Start())
	nw := netem.New(clk)
	reg := device.NewRegistry(clk)
	cloud.New(nw, reg)
	p := New(mitm.NewProxy(nw, reg.Universe), reg)
	dev, _ := reg.Get("google-home-mini")
	defer dropEveryN(nw, 5)()
	rep, err := p.Explore(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Amenable {
		t.Skip("calibration dropped")
	}
	ci, cc := rep.CommonStats()
	if ci != 119 || cc != 119 {
		t.Errorf("fallback-rescued common = %d/%d, want 119/119", ci, cc)
	}
}
