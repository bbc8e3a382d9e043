package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/dataset"
	"repro/internal/report"
	"repro/internal/telemetry"
)

// runCapture runs the full study and persists it as a dataset
// directory instead of printing artifacts: the capture half of the
// capture/analyze split. -devices restricts the run to a device subset
// so a fleet can be captured in shards and merged later.
func runCapture(args []string) error {
	fs := flag.NewFlagSet("capture", flag.ExitOnError)
	out := fs.String("out", "", "dataset directory to create (required)")
	gz := fs.Bool("gzip", false, "gzip-compress shard files")
	devices := fs.String("devices", "", "comma-separated device IDs to restrict the run to (default: all)")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("capture: -out is required")
	}
	s := newStudy()
	if *devices != "" {
		if err := s.RestrictDevices(strings.Split(*devices, ",")); err != nil {
			return err
		}
	}
	// Stream each completed passive month into the dataset and seal it
	// once the run ends; on failure the directory is left without a
	// manifest.
	sp, err := dataset.NewSpiller(*out, s, dataset.Options{Gzip: *gz, Telemetry: s.Telemetry})
	if err != nil {
		return err
	}
	rep, err := s.RunAll()
	if err == nil {
		err = sp.Finish(rep)
	}
	if err != nil {
		sp.Abort()
		return err
	}
	fmt.Printf("captured %d passive records (streamed per month) to %s\n", sp.Spilled(), *out)
	if rep.Degraded() {
		return fmt.Errorf("%w: %d incident(s) contained", errDegraded, len(rep.Degradations))
	}
	return nil
}

// runAnalyze renders the full report from one or more dataset
// directories without touching the simulator: the analyze half of the
// split. The datasets name their own testbed, so no study flag applies.
// Multiple inputs (comma-separated or repeated) are first merged into a
// temporary dataset under the same provenance rules as
// `iotls dataset merge`.
func runAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	in := fs.String("in", "", "dataset directory (comma-separated to merge several; required)")
	dir := fs.String("dir", "", "also write per-artifact files to this directory")
	fs.Parse(args)
	dirs := splitDirs(*in, fs.Args())
	if len(dirs) == 0 {
		return fmt.Errorf("analyze: -in is required")
	}
	tel := telemetry.New(nil)
	debugTelemetry.Store(tel)
	src := dirs[0]
	if len(dirs) > 1 {
		tmp, err := os.MkdirTemp("", "iotls-analyze-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		src = filepath.Join(tmp, "merged")
		if err := dataset.Merge(src, dirs, dataset.Options{Telemetry: tel}); err != nil {
			return err
		}
	}
	ds, err := dataset.Read(src, tel)
	if err != nil {
		return err
	}
	s, rep, err := dataset.Analyze(ds)
	if err != nil {
		return err
	}
	debugTelemetry.Store(s.Telemetry)
	fmt.Println(rep.Render(s))
	if *dir != "" {
		files, err := report.Write(*dir, s, rep)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %d artifacts to %s\n", len(files), *dir)
	}
	if rep.Degraded() {
		return fmt.Errorf("%w: %d incident(s) contained at capture time", errDegraded, len(rep.Degradations))
	}
	return nil
}

// runDataset dispatches the dataset maintenance subcommands.
func runDataset(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("dataset: want a subcommand: inspect or merge")
	}
	switch args[0] {
	case "inspect":
		return runDatasetInspect(args[1:])
	case "merge":
		return runDatasetMerge(args[1:])
	default:
		return fmt.Errorf("dataset: unknown subcommand %q (want inspect or merge)", args[0])
	}
}

// runDatasetInspect prints each dataset's manifest, shard catalog, and
// integrity verdict; any corruption makes the command fail.
func runDatasetInspect(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("dataset inspect: want at least one dataset directory")
	}
	corrupt := 0
	for _, dir := range args {
		rep := dataset.Inspect(dir, nil)
		fmt.Print(rep.Render())
		if !rep.OK() {
			corrupt++
		}
	}
	if corrupt > 0 {
		return fmt.Errorf("dataset inspect: %d of %d dataset(s) corrupt", corrupt, len(args))
	}
	return nil
}

// runDatasetMerge merges several capture runs into one dataset.
func runDatasetMerge(args []string) error {
	fs := flag.NewFlagSet("dataset merge", flag.ExitOnError)
	out := fs.String("out", "", "output dataset directory (required)")
	gz := fs.Bool("gzip", false, "gzip-compress output shard files")
	fs.Parse(args)
	ins := splitDirs("", fs.Args())
	if *out == "" || len(ins) < 1 {
		return fmt.Errorf("dataset merge: want -out DIR and at least one input directory")
	}
	if err := dataset.Merge(*out, ins, dataset.Options{Gzip: *gz, Telemetry: nil}); err != nil {
		return err
	}
	fmt.Printf("merged %d dataset(s) into %s\n", len(ins), *out)
	return nil
}

// splitDirs merges a comma-separated flag value and positional
// arguments into one directory list.
func splitDirs(flagVal string, rest []string) []string {
	var out []string
	for _, part := range strings.Split(flagVal, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	for _, part := range rest {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
