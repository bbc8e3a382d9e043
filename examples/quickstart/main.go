// Quickstart: assemble the IoTLS testbed, boot one device against its
// real cloud endpoints, then demonstrate the root-store probing
// technique on a single CA certificate.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/driver"
)

func main() {
	// NewStudy builds the whole smart home: 40 device models, the cloud
	// endpoints they talk to, a gateway, and a virtual clock starting in
	// January 2018. The study's own phases arm the gateway's mirror while
	// they run; outside them, arm it by hand to capture every byte.
	study := core.NewStudy()
	study.Network.SetMirror(study.Collector.Mirror)

	// Watch bounds every connection the demo opens: a hung one fails the
	// run with the connection named instead of blocking forever.
	if err := study.Watch("quickstart", func() { demo(study) }); err != nil {
		log.Fatal(err)
	}
}

func demo(study *core.Study) {
	dev, ok := study.Registry.Get("google-home-mini")
	if !ok {
		log.Fatal("device not found")
	}

	// Power-cycle the device: it reconnects to its boot destinations,
	// exactly how the paper triggered TLS traffic with smart plugs.
	fmt.Printf("booting %s...\n", dev.Name)
	for _, out := range driver.Boot(study.Network, dev, device.StudyStart, 1, nil) {
		status := "ok"
		if !out.Established {
			status = "FAILED: " + out.Err.Error()
		}
		fmt.Printf("  %-40s %-8s %s\n", out.Host, out.Version, status)
	}

	// The gateway captured every handshake passively.
	fmt.Printf("\ngateway captured %d handshakes\n", study.Store.Len())
	for _, obs := range study.Store.ByDevice(dev.ID) {
		fmt.Printf("  %s: advertised max %s, negotiated %s %s, fingerprint %s\n",
			obs.Host, obs.AdvertisedMax, obs.NegotiatedVersion, obs.NegotiatedSuite, obs.Fingerprint.ID())
	}

	// Now the paper's core trick: is a given CA in this device's root
	// store? Spoof it, intercept a reboot connection, read the alert.
	study.Clock.AdvanceTo(device.ActiveSnapshot.Start())
	turktrust := study.Registry.Universe.DistrustedCAs()[0]
	dst, _ := dev.ProbeDestination()
	rec := study.Proxy.ProbeOnce(dev, dst, turktrust.Cert(), nil)
	fmt.Printf("\nprobing %q against %s:\n", turktrust.Cert().Subject.CommonName, dev.Name)
	if rec.ClientAlert != nil {
		fmt.Printf("  device sent alert: %s\n", rec.ClientAlert.Description)
	} else {
		fmt.Println("  device sent no alert")
	}

	amenable, badSig, unknown, err := study.Prober.Calibrate(dev)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  calibrated signals: in-store=%s, not-in-store=%s (amenable=%v)\n", badSig, unknown, amenable)
	if rec.ClientAlert != nil && rec.ClientAlert.Description == badSig {
		fmt.Println("  => the device TRUSTS this distrusted CA")
	} else {
		fmt.Println("  => the CA is not in the device's root store")
	}
}
