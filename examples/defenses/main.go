// Defenses: demonstrate the paper's §6 mitigations working against the
// very attacks the study found — certificate pinning defeating the
// interception attacks of Table 2, the gateway guard (after SPIN)
// blocking weak negotiated connections, and the auditing service
// grading every device's TLS offer.
//
// Run with: go run ./examples/defenses
package main

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/driver"
	"repro/internal/guard"
)

func main() {
	study := core.NewStudy()

	// --- 1. Certificate pinning vs the interception proxy -------------
	fmt.Println("--- certificate pinning vs interception ---")
	lgtv, _ := study.Registry.Get("lg-tv")
	before := study.Proxy.RunInterception(lgtv, nil)
	fmt.Printf("LG TV without pinning: vulnerable on %d/%d destinations\n",
		len(before.VulnerableHosts()), before.TotalHosts)

	// Pin the vulnerable apps instance (the one with no CA validation)
	// to the real server's certificate: pinning binds even clients that
	// never validate chains — the common IoT deployment pattern.
	cfg := lgtv.ConfigAt(1, device.ActiveSnapshot)
	realCfg, _ := study.Cloud.ServerConfigFor("smartshare.lgappstv.com")
	cfg.PinnedLeaf = realCfg.Chain[0].Fingerprint()
	after := study.Proxy.RunInterception(lgtv, nil)
	fmt.Printf("LG TV with the apps instance pinned: vulnerable on %d/%d destinations\n",
		len(after.VulnerableHosts()), after.TotalHosts)

	// --- 2. The gateway guard ------------------------------------------
	fmt.Println("\n--- gateway guard ---")
	g := guard.New(study.Network, guard.DefaultPolicy)
	uninstall := g.Install()
	for _, id := range []string{"wemo-plug", "wink-hub-2", "nest-thermostat"} {
		dev, _ := study.Registry.Get(id)
		driver.Boot(study.Network, dev, device.ActiveSnapshot, 1, nil)
	}
	uninstall()
	fmt.Print(g.Report())

	// --- 3. The auditing service ---------------------------------------
	fmt.Println("\n--- auditing service ---")
	svc := audit.NewService(study.Network, "audit.iotls.example",
		device.OperationalCAs(study.Registry.Universe)[0].Pair)
	for _, dev := range study.Registry.ActiveDevices() {
		dst := device.Destination{Host: svc.Host, Slot: 0, Boot: true, MonthlyConns: 1}
		driver.Connect(study.Network, dev, dst, device.ActiveSnapshot, 1)
	}
	fmt.Print(svc.Summary())
}
