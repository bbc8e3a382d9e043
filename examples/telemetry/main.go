// Telemetry: run a short passive window and inspect what the built-in
// observability layer recorded — handshake outcome counters, gateway
// mirror traffic, and the per-phase rows of the metrics report, timed
// against the virtual clock — then dump the full snapshot as JSON.
//
// Run with: go run ./examples/telemetry
package main

import (
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/telemetry"
)

func main() {
	study := core.NewStudy()

	// Three simulated months of passive collection. Every layer of the
	// testbed reports into study.Telemetry as the traffic flows.
	study.PassiveFrom = clock.Month{Year: 2018, Mon: 1}
	study.PassiveTo = clock.Month{Year: 2018, Mon: 3}
	stats, err := study.RunPassive()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %d months: %d handshakes for %d weighted connections\n\n",
		stats.Months, stats.Handshakes, stats.WeightedConns)

	snap := study.MetricsSnapshot()

	// Counters are plain name -> value; pick out a few families.
	fmt.Println("handshake outcomes:")
	printFamily(snap.Counters, "tlssim.client.")
	fmt.Println("gateway mirror:")
	printFamily(snap.Counters, "netem.mirror.")

	// Each study phase leaves one record: how often it ran, its
	// outcome (the status of its span in the trace tree) and the
	// simulated time it covered. The metrics report rolls them up.
	fmt.Println("study phases:")
	for _, ph := range telemetry.BuildReport(snap, "passive").Phases {
		fmt.Printf("  %-12s runs=%d statuses=%v virtual=%s\n",
			ph.Name, ph.Runs, ph.Statuses, time.Duration(ph.VirtualUS)*time.Microsecond)
	}

	// The whole snapshot marshals to deterministic JSON — the same
	// object `iotls metrics` prints and -debug-addr serves via expvar.
	fmt.Println("\nfull snapshot:")
	if err := snap.WriteJSON(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// printFamily prints the counters sharing a name prefix, sorted.
func printFamily(counters map[string]int64, prefix string) {
	var names []string
	for name := range counters {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-36s %d\n", name, counters[name])
	}
	fmt.Println()
}
