package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ciphers"
	"repro/internal/clock"
	"repro/internal/mitm"
	"repro/internal/probe"
)

// The full study is expensive (~1 minute); run it once and share the
// results across assertions.
var (
	once      sync.Once
	gStudy    *Study
	gReport   *Report
	gRunError error
)

func fullReport(t *testing.T) (*Study, *Report) {
	t.Helper()
	if testing.Short() {
		t.Skip("full study skipped in -short mode")
	}
	once.Do(func() {
		gStudy = NewStudy()
		gReport, gRunError = gStudy.RunAll()
	})
	if gRunError != nil {
		t.Fatalf("RunAll: %v", gRunError)
	}
	return gStudy, gReport
}

func TestPassiveDatasetShape(t *testing.T) {
	_, rep := fullReport(t)
	if rep.PassiveStats.Months != 27 {
		t.Errorf("months = %d, want 27", rep.PassiveStats.Months)
	}
	if rep.PassiveStats.FailedConnects != 0 {
		t.Errorf("failed connects = %d", rep.PassiveStats.FailedConnects)
	}
	// The corpus represents millions of connections (paper: ≈17M).
	if rep.Dataset.TotalConnections < 5_000_000 {
		t.Errorf("weighted connections = %d, want millions", rep.Dataset.TotalConnections)
	}
	if rep.Dataset.Devices != 40 {
		t.Errorf("devices in passive data = %d, want 40", rep.Dataset.Devices)
	}
	if rep.Dataset.PerDeviceMedian >= rep.Dataset.PerDeviceMean {
		t.Errorf("median %f >= mean %f; paper has a skewed distribution",
			rep.Dataset.PerDeviceMedian, rep.Dataset.PerDeviceMean)
	}
}

// TestStoreHoldsOnlyPassiveWindow pins that the gateway mirrors into
// the passive store during the passive run only: after the full study,
// with every active suite and the probe run, the store holds exactly
// one observation per passive handshake, all inside the window.
func TestStoreHoldsOnlyPassiveWindow(t *testing.T) {
	s, rep := fullReport(t)
	if got, want := s.Store.Len(), rep.PassiveStats.Handshakes; got != want {
		t.Errorf("store holds %d observations, want %d (one per passive handshake)", got, want)
	}
	from, to := s.Window()
	for _, o := range s.Store.All() {
		if o.Month.Before(from) || to.Before(o.Month) {
			t.Fatalf("%s -> %s observed in %s, outside the %s..%s window", o.Device, o.Host, o.Month, from, to)
		}
	}
	for _, ev := range s.Store.Revocations() {
		if m := clock.MonthOf(ev.Time); m.Before(from) || to.Before(m) {
			t.Fatalf("%s -> %s revocation in %s, outside the %s..%s window", ev.Device, ev.Host, m, from, to)
		}
	}
}

func TestFigure1Shape(t *testing.T) {
	_, rep := fullReport(t)
	// Paper: 28 devices use TLS 1.2 essentially exclusively; 12 shown.
	if n := len(rep.Figure1.Pure12Devices); n < 26 || n > 30 {
		t.Errorf("pure-1.2 devices = %d, want ~28", n)
	}
	if n := len(rep.Figure1.MixedDevices); n < 10 || n > 14 {
		t.Errorf("mixed devices = %d, want ~12: %v", n, rep.Figure1.MixedDevices)
	}
	// Wemo advertises only old versions throughout.
	adv := rep.Figure1.Advertised[ciphers.BandOld]
	if f := adv.Get("Wemo Plug", clock.Month{Year: 2019, Mon: time.June}); f < 0.99 {
		t.Errorf("Wemo old-version advertised fraction = %f, want 1.0", f)
	}
	// Apple TV advertises 1.3 from 5/2019 but establishes 1.2.
	adv13 := rep.Figure1.Advertised[ciphers.Band13]
	est13 := rep.Figure1.Established[ciphers.Band13]
	m := clock.Month{Year: 2019, Mon: time.July}
	if f := adv13.Get("Apple TV", m); f < 0.99 {
		t.Errorf("Apple TV 1.3 advertised = %f, want 1.0", f)
	}
	if f := est13.Get("Apple TV", m); f > 0.01 {
		t.Errorf("Apple TV 1.3 established = %f, want 0 (server limited)", f)
	}
	// Google Home Mini establishes 1.3 after transition (servers
	// support it).
	if f := est13.Get("Google Home Mini", m); f < 0.99 {
		t.Errorf("Home Mini 1.3 established = %f, want 1.0", f)
	}
	// Samsung appliances advertise 1.2 but establish old.
	estOld := rep.Figure1.Established[ciphers.BandOld]
	if f := estOld.Get("Samsung Fridge", m); f < 0.99 {
		t.Errorf("Samsung Fridge old established = %f, want 1.0", f)
	}
	adv12 := rep.Figure1.Advertised[ciphers.Band12]
	if f := adv12.Get("Samsung Fridge", m); f < 0.99 {
		t.Errorf("Samsung Fridge 1.2 advertised = %f, want 1.0", f)
	}
	// Blink Hub transitioned to 1.2 in 7/2018.
	if f := adv12.Get("Blink Hub", clock.Month{Year: 2018, Mon: time.June}); f > 0.01 {
		t.Errorf("Blink Hub 1.2 advertised pre-transition = %f", f)
	}
	if f := adv12.Get("Blink Hub", clock.Month{Year: 2018, Mon: time.July}); f < 0.99 {
		t.Errorf("Blink Hub 1.2 advertised post-transition = %f", f)
	}
	// Gray cells: a broken device has no traffic after leaving.
	if f := adv12.Get("Sengled Hub", clock.Month{Year: 2019, Mon: time.January}); f >= 0 {
		t.Errorf("Sengled Hub has traffic after 2018-09: %f", f)
	}
}

func TestFigure2Shape(t *testing.T) {
	_, rep := fullReport(t)
	// Paper: 34 devices advertise insecure suites, 6 rarely.
	if n := len(rep.Figure2.Shown); n < 32 || n > 35 {
		t.Errorf("weak-advertising devices = %d, want ~34 (%v)", n, rep.Figure2.Shown)
	}
	if n := len(rep.Figure2.Omitted); n < 5 || n > 8 {
		t.Errorf("clean devices = %d, want ~6 (%v)", n, rep.Figure2.Omitted)
	}
	// Blink Hub stopped advertising weak suites 5/2019; SmartThings
	// 3/2020.
	if m, ok := rep.Figure2.Transitions["Blink Hub"]; !ok || m != (clock.Month{Year: 2019, Mon: time.May}) {
		t.Errorf("Blink Hub weak-suite transition = %v (%v), want 2019-05", m, ok)
	}
	if m, ok := rep.Figure2.Transitions["Smartthings Hub"]; !ok || m != (clock.Month{Year: 2020, Mon: time.March}) {
		t.Errorf("SmartThings transition = %v (%v), want 2020-03", m, ok)
	}
	// Apple TV increased weak-suite advertising 10/2018.
	pre := rep.Figure2.Heatmap.Get("Apple TV", clock.Month{Year: 2018, Mon: time.September})
	post := rep.Figure2.Heatmap.Get("Apple TV", clock.Month{Year: 2018, Mon: time.October})
	if !(pre < 0.01 && post > 0.9) {
		t.Errorf("Apple TV weak advertising pre/post 10/2018 = %f/%f", pre, post)
	}
}

func TestFigure3Shape(t *testing.T) {
	_, rep := fullReport(t)
	// Paper: 18 devices establish mostly strong (omitted), 22 shown.
	if n := len(rep.Figure3.Omitted); n < 14 || n > 20 {
		t.Errorf("mostly-strong devices = %d, want ~18 (%v)", n, rep.Figure3.Omitted)
	}
	// PFS adoptions: Ring 4/2018, Apple TV 3/2019, Blink Hub 10/2019,
	// HomePod 1/2020.
	want := map[string]clock.Month{
		"Ring Doorbell": {Year: 2018, Mon: time.April},
		"Apple TV":      {Year: 2019, Mon: time.March},
		"Blink Hub":     {Year: 2019, Mon: time.October},
		"Apple HomePod": {Year: 2020, Mon: time.January},
	}
	for dev, wantM := range want {
		if m, ok := rep.Figure3.Transitions[dev]; !ok || m != wantM {
			t.Errorf("%s PFS adoption = %v (%v), want %v", dev, m, ok, wantM)
		}
	}
}

func TestTable4Shape(t *testing.T) {
	_, rep := fullReport(t)
	if len(rep.Table4Rows) != 6 {
		t.Fatalf("table 4 rows = %d", len(rep.Table4Rows))
	}
	amenable := map[string]bool{}
	for _, r := range rep.Table4Rows {
		amenable[r.Library] = r.Amenable
	}
	if !amenable["mbedtls-2.21.0"] || !amenable["openssl-1.1.1i"] {
		t.Error("mbedtls/openssl should be amenable")
	}
	if amenable["wolfssl-4.1.0"] || amenable["oracle-java-18"] ||
		amenable["gnutls-3.6.15"] || amenable["securetransport-macos-11.3"] {
		t.Error("non-amenable library misclassified")
	}
	for _, r := range rep.Table4Rows {
		if strings.Contains(r.Library, "gnutls") || strings.Contains(r.Library, "securetransport") {
			if r.BadSignature != "No Alert" || r.UnknownCA != "No Alert" {
				t.Errorf("%s alerts = %s/%s, want No Alert", r.Library, r.BadSignature, r.UnknownCA)
			}
		}
	}
}

func TestTable5Shape(t *testing.T) {
	_, rep := fullReport(t)
	byDev := map[string]*mitm.DowngradeReport{}
	downgrading := 0
	for _, r := range rep.Downgrades {
		byDev[r.Device] = r
		if r.Downgraded() {
			downgrading++
		}
	}
	if downgrading != 7 {
		t.Errorf("downgrading devices = %d, want 7", downgrading)
	}
	want := map[string][2]int{
		"amazon-echo-dot":  {7, 9},
		"amazon-echo-plus": {6, 7},
		"amazon-echo-spot": {11, 15},
		"amazon-fire-tv":   {13, 21},
		"apple-homepod":    {7, 9},
		"google-home-mini": {5, 5},
		"roku-tv":          {8, 15},
	}
	for id, w := range want {
		r := byDev[id]
		if r == nil || r.DowngradedHosts != w[0] || r.TotalHosts != w[1] {
			t.Errorf("%s downgrade = %+v, want %d/%d", id, r, w[0], w[1])
		}
	}
	// Four Amazon devices fall to SSL 3.0.
	ssl3 := 0
	for _, id := range []string{"amazon-echo-dot", "amazon-echo-plus", "amazon-echo-spot", "amazon-fire-tv"} {
		if r := byDev[id]; r != nil && strings.Contains(r.Description, "SSL 3.0") {
			ssl3++
		}
	}
	if ssl3 != 4 {
		t.Errorf("SSL 3.0 fallback devices = %d, want 4", ssl3)
	}
	// Roku is the only device triggered by failed handshakes too.
	for id, r := range byDev {
		if r.OnFailed && id != "roku-tv" {
			t.Errorf("%s downgrades on failed handshake", id)
		}
	}
}

func TestTable6Shape(t *testing.T) {
	_, rep := fullReport(t)
	supporting := 0
	byDev := map[string]*mitm.OldVersionReport{}
	for _, r := range rep.OldVersions {
		byDev[r.Device] = r
		if r.TLS10OK || r.TLS11OK {
			supporting++
		}
	}
	if supporting != 18 {
		var ids []string
		for id, r := range byDev {
			if r.TLS10OK || r.TLS11OK {
				ids = append(ids, id)
			}
		}
		t.Errorf("old-version devices = %d, want 18 (Table 6): %v", supporting, ids)
	}
	if r := byDev["wemo-plug"]; r == nil || !r.TLS10OK || r.TLS11OK {
		t.Errorf("wemo = %+v, want 1.0 only", byDev["wemo-plug"])
	}
	if r := byDev["samsung-dryer"]; r == nil || r.TLS10OK || !r.TLS11OK {
		t.Errorf("dryer = %+v, want 1.1 only", byDev["samsung-dryer"])
	}
}

func TestTable7Shape(t *testing.T) {
	_, rep := fullReport(t)
	byDev := map[string]*mitm.InterceptionReport{}
	vulnerable, sensitive := 0, 0
	for _, r := range rep.Interceptions {
		byDev[r.Device] = r
		if r.Vulnerable() {
			vulnerable++
			if r.LeakedSensitive() {
				sensitive++
			}
		}
	}
	// Paper: 11 vulnerable devices, 7 leaking sensitive data.
	if vulnerable != 11 {
		var ids []string
		for id, r := range byDev {
			if r.Vulnerable() {
				ids = append(ids, id)
			}
		}
		t.Errorf("vulnerable devices = %d, want 11: %v", vulnerable, ids)
	}
	if sensitive != 7 {
		t.Errorf("sensitive-leaking devices = %d, want 7", sensitive)
	}
	// Full three-attack vulnerability for the seven no-validation
	// devices; WrongHostname-only for the four Amazon devices.
	full := []string{"zmodo-doorbell", "amcrest-camera", "smarter-ikettle", "yi-camera", "wink-hub-2", "lg-tv", "smartthings-hub"}
	for _, id := range full {
		r := byDev[id]
		if r == nil || !r.VulnerableTo(mitm.AttackNoValidation) ||
			!r.VulnerableTo(mitm.AttackInvalidBasicConstraints) ||
			!r.VulnerableTo(mitm.AttackWrongHostname) {
			t.Errorf("%s should be vulnerable to all three attacks", id)
		}
	}
	amazon := []string{"amazon-echo-plus", "amazon-echo-dot", "amazon-echo-spot", "amazon-fire-tv"}
	for _, id := range amazon {
		r := byDev[id]
		if r == nil || r.VulnerableTo(mitm.AttackNoValidation) || r.VulnerableTo(mitm.AttackInvalidBasicConstraints) {
			t.Errorf("%s should resist NoValidation and InvalidBasicConstraints", id)
		}
		if r != nil && !r.VulnerableTo(mitm.AttackWrongHostname) {
			t.Errorf("%s should fall to WrongHostname", id)
		}
	}
	// Ratio spot checks (Table 7 column 5).
	ratios := map[string][2]int{
		"zmodo-doorbell":   {6, 6},
		"amcrest-camera":   {2, 2},
		"smarter-ikettle":  {1, 1},
		"yi-camera":        {1, 1},
		"wink-hub-2":       {1, 2},
		"lg-tv":            {1, 2},
		"smartthings-hub":  {1, 3},
		"amazon-echo-plus": {1, 8},
		"amazon-echo-dot":  {1, 9},
		"amazon-echo-spot": {1, 17},
		"amazon-fire-tv":   {1, 21},
	}
	for id, w := range ratios {
		r := byDev[id]
		if r == nil {
			t.Errorf("%s missing", id)
			continue
		}
		if got := len(r.VulnerableHosts()); got != w[0] || r.TotalHosts != w[1] {
			t.Errorf("%s = %d/%d, want %d/%d", id, got, r.TotalHosts, w[0], w[1])
		}
	}
}

func TestTable8Shape(t *testing.T) {
	_, rep := fullReport(t)
	if len(rep.Table8.CRL) != 1 || rep.Table8.CRL[0] != "Samsung TV" {
		t.Errorf("CRL devices = %v, want [Samsung TV]", rep.Table8.CRL)
	}
	if len(rep.Table8.OCSP) != 3 {
		t.Errorf("OCSP devices = %v, want 3", rep.Table8.OCSP)
	}
	if len(rep.Table8.Stapling) != 12 {
		t.Errorf("stapling devices = %v (%d), want 12", rep.Table8.Stapling, len(rep.Table8.Stapling))
	}
	if rep.Table8.NoRevocation != 28 {
		t.Errorf("no-revocation devices = %d, want 28", rep.Table8.NoRevocation)
	}
}

func TestTable9Shape(t *testing.T) {
	_, rep := fullReport(t)
	if len(rep.ProbeReports) != 8 {
		t.Fatalf("amenable probed devices = %d, want 8", len(rep.ProbeReports))
	}
	want := map[string][4]int{
		"google-home-mini":  {119, 119, 4, 71},
		"amazon-echo-plus":  {103, 105, 13, 72},
		"amazon-echo-dot":   {117, 119, 14, 72},
		"amazon-echo-dot-3": {86, 96, 17, 72},
		"wink-hub-2":        {109, 119, 27, 72},
		"roku-tv":           {96, 106, 33, 81},
		"lg-tv":             {96, 103, 48, 82},
		"harman-invoke":     {67, 82, 41, 70},
	}
	for _, r := range rep.ProbeReports {
		w, ok := want[r.Device]
		if !ok {
			t.Errorf("unexpected probed device %s", r.Device)
			continue
		}
		ci, cc := r.CommonStats()
		di, dc := r.DeprecatedStats()
		if ci != w[0] || cc != w[1] || di != w[2] || dc != w[3] {
			t.Errorf("%s = common %d/%d deprecated %d/%d, want %d/%d %d/%d",
				r.Device, ci, cc, di, dc, w[0], w[1], w[2], w[3])
		}
		if len(r.TrustedDistrusted()) == 0 {
			t.Errorf("%s trusts no distrusted CA; paper found at least one everywhere", r.Device)
		}
	}
}

func TestFigure4Shape(t *testing.T) {
	_, rep := fullReport(t)
	// Majority of stale roots removed in 2018-2019.
	recent := rep.Figure4.TotalStale(2018) + rep.Figure4.TotalStale(2019)
	early := rep.Figure4.TotalStale(2013) + rep.Figure4.TotalStale(2014) + rep.Figure4.TotalStale(2015)
	if recent <= early {
		t.Errorf("stale years: 2018-19=%d, 2013-15=%d; want recent majority", recent, early)
	}
	// LG TV holds certificates deprecated as early as 2013.
	lg := rep.Figure4.Years["LG TV"]
	if lg[2013]+lg[2014] == 0 {
		t.Errorf("LG TV early stale certs = 0, want some: %v", lg)
	}
}

func TestFigure5Shape(t *testing.T) {
	_, rep := fullReport(t)
	total := len(rep.Figure5.SingleInstance) + len(rep.Figure5.MultiInstance)
	if total != 32 {
		t.Errorf("fingerprinted devices = %d, want 32", total)
	}
	// Paper: 14/32 multi-instance, 18 single.
	if n := len(rep.Figure5.MultiInstance); n < 8 || n > 15 {
		t.Errorf("multi-instance devices = %d, want ~14: %v", n, rep.Figure5.MultiInstance)
	}
	// Paper: 19 devices share a fingerprint with another device or app.
	if n := len(rep.Figure5.SharedWithOthers); n < 14 || n > 25 {
		t.Errorf("sharing devices = %d, want ~19: %v", n, rep.Figure5.SharedWithOthers)
	}
	// The OpenSSL explanation: Invoke, LG TV and Wink Hub 2 share a
	// fingerprint with the openssl database entry.
	for _, dev := range []string{"Harman Invoke", "LG TV", "Wink Hub 2"} {
		peers := rep.Figure5.Graph.SharedWith(dev)
		found := false
		for _, p := range peers {
			if p == "openssl" {
				found = true
			}
		}
		if !found {
			t.Errorf("%s does not share with openssl: %v", dev, peers)
		}
	}
	// Fire TV's dominant fingerprint matches android-sdk.
	peers := rep.Figure5.Graph.SharedWith("Amazon Fire TV")
	foundAndroid := false
	for _, p := range peers {
		if p == "android-sdk" {
			foundAndroid = true
		}
	}
	if !foundAndroid {
		t.Errorf("Fire TV does not share with android-sdk: %v", peers)
	}
	// Amazon cluster: Echo Dot shares with Echo Plus.
	peers = rep.Figure5.Graph.SharedWith("Amazon Echo Dot")
	foundPlus := false
	for _, p := range peers {
		if p == "Amazon Echo Plus" {
			foundPlus = true
		}
	}
	if !foundPlus {
		t.Errorf("Echo Dot does not share with Echo Plus: %v", peers)
	}
}

func TestPriorWorkComparisonShape(t *testing.T) {
	_, rep := fullReport(t)
	// Paper: ~17% of IoT connections advertise TLS 1.3 in 11/2019.
	if f := rep.Comparison.TLS13AdvertiseNov2019; f < 0.08 || f > 0.30 {
		t.Errorf("TLS 1.3 advertise fraction = %.3f, want ~0.17", f)
	}
	// Paper: ~60% of connections advertise RC4.
	if f := rep.Comparison.RC4AdvertiseOverall; f < 0.40 || f > 0.85 {
		t.Errorf("RC4 advertise fraction = %.3f, want ~0.60", f)
	}
}

func TestPassthroughShape(t *testing.T) {
	_, rep := fullReport(t)
	// Paper: ≈20.4% more hostnames on average.
	if f := rep.Passthrough.MeanNewHostFraction; f < 0.05 || f > 0.40 {
		t.Errorf("mean new-host fraction = %.3f, want ~0.20", f)
	}
	// Paper's negative result: no new validation failures under
	// passthrough.
	if !rep.Passthrough.NoNewValidationFailures {
		t.Error("passthrough revealed new validation failures; paper found none")
	}
}

func TestVersionDiversityShape(t *testing.T) {
	_, rep := fullReport(t)
	// The paper counts 20 multi-max-version devices; our model keeps
	// instance maxima aligned except where the paper documents a
	// transition, so the measured count is lower (see EXPERIMENTS.md).
	if n := len(rep.Diversity.MultiVersionDevices); n < 4 || n > 10 {
		t.Errorf("multi-version devices = %d (%v)", n, rep.Diversity.MultiVersionDevices)
	}
	if n := len(rep.Diversity.SameDestinationDevices); n < 3 {
		t.Errorf("same-destination multi-version devices = %d", n)
	}
	// The documented transitions must appear.
	want := map[string]bool{"Apple TV": true, "Google Home Mini": true, "Blink Hub": true, "Insteon Hub": true}
	for _, d := range rep.Diversity.MultiVersionDevices {
		delete(want, d)
	}
	if len(want) > 0 {
		t.Errorf("missing expected multi-version devices: %v", want)
	}
}

func TestProbeCandidatesCount(t *testing.T) {
	s, _ := fullReport(t)
	if n := len(s.Registry.ProbeCandidates()); n != 24 {
		t.Errorf("probe candidates = %d, want 24", n)
	}
}

func TestFullRender(t *testing.T) {
	s, rep := fullReport(t)
	out := rep.Render(s)
	for _, want := range []string{
		"Table 1", "Table 2", "Table 3", "Table 4", "Table 5", "Table 6",
		"Table 7", "Table 8", "Table 9",
		"Figure 1", "Figure 2", "Figure 3", "Figure 4", "Figure 5",
		"prior-work comparison", "TrafficPassthrough", "dataset summary",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if len(out) < 5000 {
		t.Errorf("report suspiciously short: %d bytes", len(out))
	}
}

var _ = probe.VerdictIncluded // keep probe import used if assertions shrink
