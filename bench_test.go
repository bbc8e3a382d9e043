// Package repro's benchmark harness regenerates every table and figure
// of the IoTLS paper (see DESIGN.md §4 for the experiment index).
//
// The full study — 27 months of passive collection plus all active
// experiments — runs once and is shared; each benchmark then measures
// regenerating its artifact from the measurement data, plus, for the
// active experiments, re-running a representative live experiment.
//
// Run with: go test -bench=. -benchmem
package repro

import (
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/capture"
	"repro/internal/certs"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fingerprint"
	"repro/internal/mitm"
	"repro/internal/rootstore"
	"repro/internal/tlssim"
	"repro/internal/wire"
)

var (
	benchOnce   sync.Once
	benchStudy  *core.Study
	benchReport *core.Report
	benchActive *capture.Store
	benchErr    error
)

// studyFixture runs the complete study once for all benchmarks.
func studyFixture(b *testing.B) (*core.Study, *core.Report) {
	b.Helper()
	benchOnce.Do(func() {
		benchStudy = core.NewStudy()
		benchReport, benchErr = benchStudy.RunAll()
		if benchErr == nil {
			benchActive, benchErr = benchStudy.CaptureActiveSnapshot()
		}
	})
	if benchErr != nil {
		b.Fatalf("study fixture: %v", benchErr)
	}
	return benchStudy, benchReport
}

// --- Tables -------------------------------------------------------------

func BenchmarkTable1_DeviceInventory(b *testing.B) {
	s, _ := studyFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := analysis.RenderTable1(s.Registry); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2_AttackSuite(b *testing.B) {
	s, _ := studyFixture(b)
	dev, _ := s.Registry.Get("zmodo-doorbell")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := s.Proxy.RunInterception(dev, nil)
		if !rep.Vulnerable() {
			b.Fatal("zmodo should be vulnerable")
		}
	}
}

func BenchmarkTable3_PlatformStores(b *testing.B) {
	u := rootstore.NewUniverse()
	at := device.ActiveSnapshot.Start()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(u.CommonCertificates(at)) != rootstore.NumCommon {
			b.Fatal("common set size wrong")
		}
		if len(u.DeprecatedCertificates(at)) != rootstore.NumDeprecated {
			b.Fatal("deprecated set size wrong")
		}
	}
}

func BenchmarkTable4_LibraryAlerts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := analysis.BuildTable4()
		if len(rows) != 6 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkTable5_Downgrades(b *testing.B) {
	s, _ := studyFixture(b)
	dev, _ := s.Registry.Get("amazon-echo-plus")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := s.Proxy.RunDowngrade(dev, nil)
		if rep.DowngradedHosts != 6 {
			b.Fatalf("downgraded = %d", rep.DowngradedHosts)
		}
	}
}

func BenchmarkTable6_OldVersions(b *testing.B) {
	s, _ := studyFixture(b)
	dev, _ := s.Registry.Get("zmodo-doorbell")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := mitm.RunOldVersionCheck(s.Network, s.Cloud, dev, nil)
		if !rep.TLS10OK || !rep.TLS11OK {
			b.Fatal("zmodo should establish old versions")
		}
	}
}

func BenchmarkTable7_Interception(b *testing.B) {
	s, rep := studyFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := analysis.RenderTable7(rep.Interceptions, s.NameOf); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable8_Revocation(b *testing.B) {
	s, _ := studyFixture(b)
	var ids []string
	for _, d := range s.Registry.Devices {
		ids = append(ids, d.ID)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t8 := analysis.BuildTable8(s.Store, ids, s.NameOf)
		if len(t8.Stapling) != 12 {
			b.Fatalf("stapling = %d", len(t8.Stapling))
		}
	}
}

func BenchmarkTable9_RootStores(b *testing.B) {
	s, _ := studyFixture(b)
	dev, _ := s.Registry.Get("google-home-mini")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := s.Prober.Explore(dev, nil)
		if err != nil || !rep.Amenable {
			b.Fatalf("explore: %v amenable=%v", err, rep != nil && rep.Amenable)
		}
	}
}

// --- Figures ------------------------------------------------------------

func BenchmarkFigure1_VersionHeatmap(b *testing.B) {
	s, _ := studyFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig := analysis.BuildFigure1(s.Store, s.NameOf)
		if len(fig.MixedDevices) == 0 {
			b.Fatal("no mixed devices")
		}
	}
}

func BenchmarkFigure2_InsecureCiphers(b *testing.B) {
	s, _ := studyFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig := analysis.BuildFigure2(s.Store, s.NameOf)
		if len(fig.Shown) == 0 {
			b.Fatal("no weak advertisers")
		}
	}
}

func BenchmarkFigure3_StrongCiphers(b *testing.B) {
	s, _ := studyFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig := analysis.BuildFigure3(s.Store, s.NameOf)
		if len(fig.Shown) == 0 {
			b.Fatal("no weak establishers")
		}
	}
}

func BenchmarkFigure4_Staleness(b *testing.B) {
	s, rep := studyFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig := analysis.BuildFigure4(rep.ProbeReports, s.NameOf)
		if fig.TotalStale(2018)+fig.TotalStale(2019) == 0 {
			b.Fatal("no stale roots")
		}
	}
}

func BenchmarkFigure5_FingerprintGraph(b *testing.B) {
	s, _ := studyFixture(b)
	db := device.ReferenceDB()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig := analysis.BuildFigure5(benchActive, db, s.NameOf)
		if len(fig.SharedWithOthers) == 0 {
			b.Fatal("no sharing")
		}
	}
}

// --- §4/§5 statistics -----------------------------------------------------

func BenchmarkStat_Passthrough(b *testing.B) {
	s, _ := studyFixture(b)
	dev, _ := s.Registry.Get("philips-hub")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := s.Proxy.RunPassthrough(dev, nil)
		if len(rep.NewHosts) == 0 {
			b.Fatal("no new hosts")
		}
	}
}

func BenchmarkStat_PriorWorkComparison(b *testing.B) {
	s, _ := studyFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := analysis.BuildPriorWorkComparison(s.Store)
		if c.RC4AdvertiseOverall == 0 {
			b.Fatal("no RC4 stat")
		}
	}
}

// --- core-operation microbenchmarks ---------------------------------------

func BenchmarkHandshakeRoundTrip(b *testing.B) {
	s, _ := studyFixture(b)
	dev, _ := s.Registry.Get("nest-thermostat")
	dst := dev.Destinations[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := s.Network.Dial(dev.ID, dst.Host, 443)
		if err != nil {
			b.Fatal(err)
		}
		cfg := dev.ConfigAt(0, device.ActiveSnapshot)
		sess, err := tlssim.Client(conn, cfg, dst.Host, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		sess.Close()
	}
}

func BenchmarkClientHelloMarshalParse(b *testing.B) {
	s, _ := studyFixture(b)
	dev, _ := s.Registry.Get("roku-tv") // largest suite list
	ch := dev.ConfigAt(0, device.ActiveSnapshot).BuildClientHello("bench.example.com", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := ch.Marshal()
		if _, err := wire.ParseClientHello(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCertificateChainVerify(b *testing.B) {
	s, _ := studyFixture(b)
	dev, _ := s.Registry.Get("nest-thermostat")
	// Build a chain against the device's roots.
	ops := device.OperationalCAs(s.Registry.Universe)
	leaf := ops[0].Pair.Issue(certs.Template{
		SerialNumber: 999,
		Subject:      certs.Name{CommonName: "bench.example.com"},
		NotBefore:    device.StudyStart.Start(),
		NotAfter:     device.ActiveSnapshot.Start().AddDate(5, 0, 0),
		DNSNames:     []string{"bench.example.com"},
	}, "bench-leaf")
	chain := []*certs.Certificate{leaf.Cert, ops[0].Pair.Cert}
	opts := certs.VerifyOptions{
		Roots:    dev.Roots,
		Hostname: "bench.example.com",
		At:       device.ActiveSnapshot.Start(),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := certs.Verify(chain, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFingerprintExtraction(b *testing.B) {
	s, _ := studyFixture(b)
	dev, _ := s.Registry.Get("amazon-echo-dot")
	ch := dev.ConfigAt(0, device.ActiveSnapshot).BuildClientHello("bench.example.com", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp := fingerprint.FromClientHello(ch)
		if fp.ID() == "" {
			b.Fatal("empty fingerprint")
		}
	}
}

func BenchmarkSpoofedCAProbe(b *testing.B) {
	s, _ := studyFixture(b)
	dev, _ := s.Registry.Get("google-home-mini")
	dst, _ := dev.ProbeDestination()
	target := device.OperationalCAs(s.Registry.Universe)[0].Pair.Cert
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := s.Proxy.ProbeOnce(dev, dst, target, nil)
		if rec.ClientAlert == nil {
			b.Fatal("no alert")
		}
	}
}
