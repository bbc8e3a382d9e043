package main

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/capture"
	"repro/internal/clock"
	"repro/internal/fleet"
)

// runFleet implements `iotls fleet`: build a synthetic N-device fleet
// (see internal/fleet) and run its passive window through the
// memory-bounded streaming engine. Every completed month is drained
// from the capture store at the month barrier — appended to the -out
// dataset, or counted and discarded without one — so peak RSS is
// bounded by one month of traffic plus the fleet's fixed footprint,
// not by the whole run.
//
// The fleet is a pure function of (-n, -seed): the same pair always
// builds the same devices, device i is identical at any fleet size,
// and -devices subsetting composes the same way it does for the
// catalog — `iotls -fleet N -fleet-seed S coordinate` shards the same
// fleet across serve workers.
//
// Fleet runs force -no-trace: trace spans are per-handshake, which
// would reintroduce the O(run) memory the spill path exists to avoid.
func runFleet(args []string) error {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	n := fs.Int("n", 10000, "fleet size (synthetic devices to generate)")
	seed := fs.Uint64("seed", 1, "fleet sample seed")
	out := fs.String("out", "", "stream a dataset directory here (default: count records and discard)")
	gz := fs.Bool("gzip", false, "gzip-compress shard files (with -out)")
	devices := fs.String("devices", "", "comma-separated device IDs (fleet-0000000,...) to restrict the run to")
	fs.Parse(args)
	if *n <= 0 {
		return fmt.Errorf("fleet: -n must be positive")
	}
	studyConfig.FleetN = *n
	studyConfig.FleetSeed = *seed
	studyConfig.NoTrace = true
	if *devices != "" {
		studyConfig.Devices = strings.Split(*devices, ",")
	}
	s := newStudy()

	if *out != "" {
		rep, spilled, err := spillCapture(s, *out, *gz)
		if err != nil {
			return err
		}
		fmt.Printf("fleet: %d devices, %d months, %d handshakes; streamed %d records to %s\n",
			len(s.Registry.Devices), rep.PassiveStats.Months, rep.PassiveStats.Handshakes,
			spilled, *out)
		printPeakRSS()
		if rep.Degraded() {
			return fmt.Errorf("%w: %d incident(s) contained", errDegraded, len(rep.Degradations))
		}
		return nil
	}

	// No output directory: spill into a counter. The run is then a
	// memory-bounded smoke of the full passive window.
	var spilled int
	s.SpillMonth = func(m clock.Month, obs []*capture.Observation, revs []capture.RevocationEvent) error {
		spilled += len(obs) + len(revs)
		return nil
	}
	from, to := s.Window()
	stats, err := s.RunPassiveWindow(from, to)
	if err != nil {
		return err
	}
	fmt.Printf("fleet: %d devices, %d months, %d handshakes representing %d connections; %d records spilled\n",
		len(s.Registry.Devices), stats.Months, stats.Handshakes, stats.WeightedConns, spilled)
	printPeakRSS()
	return nil
}

// printPeakRSS reports the process high-water RSS when the platform
// exposes it (Linux /proc); silent elsewhere.
func printPeakRSS() {
	if kib, ok := fleet.PeakRSSKiB(); ok {
		fmt.Printf("peak RSS: %d MiB\n", kib/1024)
	}
}
