// Ablation benchmarks for the design choices DESIGN.md calls out:
//
//   - pinning vs plain validation under interception (the §6 defence);
//   - the gateway guard's relay overhead on clean traffic;
//   - probe cost with and without the amenability calibration step;
//   - weighted single-handshake sampling vs literal per-connection
//     simulation for passive months.
package repro

import (
	"testing"

	"repro/internal/capture"
	"repro/internal/clock"
	"repro/internal/cloud"
	"repro/internal/device"
	"repro/internal/driver"
	"repro/internal/guard"
	"repro/internal/netem"
	"repro/internal/traffic"
)

func BenchmarkAblation_InterceptionUnpinned(b *testing.B) {
	s, _ := studyFixture(b)
	dev, _ := s.Registry.Get("nest-thermostat")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := s.Proxy.RunInterception(dev, nil)
		if rep.Vulnerable() {
			b.Fatal("nest should resist")
		}
	}
}

func BenchmarkAblation_InterceptionPinned(b *testing.B) {
	s, _ := studyFixture(b)
	dev, _ := s.Registry.Get("nest-thermostat")
	cfg := dev.ConfigAt(0, device.ActiveSnapshot)
	real, _ := s.Cloud.ServerConfigFor(dev.Destinations[0].Host)
	old := cfg.PinnedLeaf
	cfg.PinnedLeaf = real.Chain[0].Fingerprint()
	defer func() { cfg.PinnedLeaf = old }()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := s.Proxy.RunInterception(dev, nil)
		if rep.Vulnerable() {
			b.Fatal("pinned nest should resist")
		}
	}
}

func BenchmarkAblation_HandshakeDirect(b *testing.B) {
	s, _ := studyFixture(b)
	dev, _ := s.Registry.Get("nest-thermostat")
	dst := dev.Destinations[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := driver.Connect(s.Network, dev, dst, device.ActiveSnapshot, uint64(i))
		if !out.Established {
			b.Fatal(out.Err)
		}
	}
}

func BenchmarkAblation_HandshakeThroughGuard(b *testing.B) {
	s, _ := studyFixture(b)
	dev, _ := s.Registry.Get("nest-thermostat")
	dst := dev.Destinations[0]
	g := guard.New(s.Network, guard.DefaultPolicy)
	uninstall := g.Install()
	defer uninstall()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := driver.Connect(s.Network, dev, dst, device.ActiveSnapshot, uint64(i))
		if !out.Established {
			b.Fatal(out.Err)
		}
	}
}

func BenchmarkAblation_ProbeWithCalibration(b *testing.B) {
	s, _ := studyFixture(b)
	dev, _ := s.Registry.Get("amazon-echo-dot-3")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Prober.Explore(dev, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_ProbeCalibrationOnly(b *testing.B) {
	s, _ := studyFixture(b)
	dev, _ := s.Registry.Get("amazon-echo-dot-3")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		amenable, _, _, err := s.Prober.Calibrate(dev)
		if err != nil || !amenable {
			b.Fatalf("calibrate: %v %v", amenable, err)
		}
	}
}

func BenchmarkAblation_PassiveMonthWeighted(b *testing.B) {
	// The shipped design: one handshake per (device, destination) per
	// month, weighted by volume — the whole 40-device month in one run.
	clk := clock.NewSimulated(device.StudyStart.Start())
	s := newPassiveBed(clk)
	gen := traffic.New(s.nw, s.reg, s.col, clk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.Run(device.StudyStart, device.StudyStart); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_PassiveConnLiteral(b *testing.B) {
	// The rejected design simulates every connection literally: this
	// benchmark measures one literal connection; multiply by the
	// ≈630,000 connections/month the weighted design folds into ≈130
	// handshakes to see why it was rejected.
	clk := clock.NewSimulated(device.StudyStart.Start())
	s := newPassiveBed(clk)
	dev, _ := s.reg.Get("behmor-brewer")
	dst := dev.Destinations[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := driver.Connect(s.nw, dev, dst, device.StudyStart, uint64(i))
		if !out.Established {
			b.Fatal(out.Err)
		}
	}
}

// passiveBed is a minimal testbed for the passive ablations.
type passiveBed struct {
	nw  *netem.Network
	reg *device.Registry
	col *capture.Collector
}

func newPassiveBed(clk *clock.Simulated) *passiveBed {
	nw := netem.New(clk)
	reg := device.NewRegistry(clk)
	cloud.New(nw, reg)
	store := capture.NewStore()
	col := capture.NewCollector(store)
	nw.SetMirror(col.Mirror)
	return &passiveBed{nw: nw, reg: reg, col: col}
}
