package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/telemetry"
)

// runMetrics runs a study phase with artifact rendering suppressed and
// emits the telemetry report as JSON. The report contains only
// deterministic (virtual-clock) measurements, so two runs of the same
// phase produce identical output.
func runMetrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	out := fs.String("o", "", "also write the JSON report to this file")
	fs.Parse(args)
	phase := "report"
	if fs.NArg() > 0 {
		phase = fs.Arg(0)
		// Accept flags on either side of the phase argument
		// (`metrics report -o FILE` and `metrics -o FILE report`).
		fs.Parse(fs.Args()[1:])
	}

	s := newStudy()
	switch phase {
	case "passive":
		if _, err := s.RunPassive(); err != nil {
			return err
		}
	case "active":
		s.RunDowngradeSuite()
		s.RunOldVersionSuite()
		s.RunInterceptionSuite()
		s.RunPassthroughSuite()
		if err := s.Err(); err != nil {
			return err
		}
	case "probe":
		if _, _, err := s.RunProbe(); err != nil {
			return err
		}
	case "report", "all":
		if _, err := s.RunAll(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("metrics: unknown phase %q (want passive, active, probe, or report)", phase)
	}

	rep := telemetry.BuildReport(s.MetricsSnapshot(), phase)
	if err := rep.WriteJSON(os.Stdout); err != nil {
		return err
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rep.WriteJSON(f); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "iotls: wrote metrics report to %s\n", *out)
	}
	return nil
}
