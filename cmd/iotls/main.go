// Command iotls drives the IoTLS reproduction from the command line.
//
// Usage:
//
//	iotls passive            run the 2-year passive simulation and print Figures 1-3 + Table 8
//	iotls active             run the active attack suites and print Tables 5-7
//	iotls probe              run root-store exploration and print Table 9 + Figure 4
//	iotls fingerprint        capture an active snapshot and print Figure 5
//	iotls report             run the full study and print every artifact
//	iotls capture -out DIR   run the full study and persist a dataset directory
//	iotls analyze -in DIR    render every artifact from persisted datasets
//	iotls dataset ...        inspect or merge dataset directories
//	iotls tables             print the static methodology tables (1-4)
//	iotls export -o FILE     run the passive simulation and export observations as JSONL
//	iotls audit              grade every device's TLS offer via the audit service (§6)
//	iotls guard              boot all devices behind the gateway guard and report blocks (§6)
//	iotls metrics [PHASE]    run a phase (default: report) and print the JSON telemetry report
//	iotls trace ...          export or analyze a captured run's trace shard
//	iotls serve -addr :8443  run the study service: a JSON HTTP API scheduling
//	                         concurrent study/analyze/merge jobs under one
//	                         global worker budget (see README "Serving")
//	iotls coordinate ...     run one study distributed across a fleet of
//	                         serve workers, fault-tolerantly, merging the
//	                         shards into a single-node-identical dataset
//	                         (see README "Distributed studies")
//
// The global -parallel flag (before the subcommand) sets the worker
// count for every parallelisable study phase (0, the default, means
// GOMAXPROCS; 1 forces the sequential engine). Every value renders
// byte-identical artifacts.
//
// The global -fault-seed and -fault-profile flags (before the
// subcommand) arm deterministic fault injection: seeded connection
// faults (resets, truncated/corrupted records, dial failures, stalls,
// latency spikes) are injected across the run, devices respond with
// their retry/backoff policies, and the study degrades gracefully
// instead of aborting. A run that completes degraded exits with code 3
// (clean success is 0, failure is 1, usage errors are 2):
//
//	iotls -fault-seed 7 -fault-profile aggressive report
//
// The global -window flag (before the subcommand) narrows the passive
// collection window of every subcommand that simulates it — passive,
// export, metrics, report, capture — and is recorded as the dataset's
// provenance:
//
//	iotls -window 2018-01..2018-02 metrics passive
//
// The global -debug-addr flag (before the subcommand) serves a live
// runtime inspector — expvar at /debug/vars (including the study's
// telemetry snapshot) and pprof at /debug/pprof/ — while the study
// runs:
//
//	iotls -parallel 8 -debug-addr :8080 report
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/audit"
	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/driver"
	"repro/internal/guard"
	"repro/internal/report"
)

func main() {
	global := flag.NewFlagSet("iotls", flag.ExitOnError)
	global.Usage = usage
	debugAddr := global.String("debug-addr", "", "serve expvar and pprof on this address while the study runs")
	parallel := global.Int("parallel", 0, "worker count for parallel study phases (0 = GOMAXPROCS, 1 = sequential)")
	faultSeed := global.Uint64("fault-seed", 0, "seed for the deterministic fault-injection plan (0 with no -fault-profile = faults off)")
	faultProfile := global.String("fault-profile", "", "fault-injection profile: off, mild, or aggressive")
	window := global.String("window", "", "passive collection window FROM..TO, e.g. 2018-01..2018-06 (default: the full study)")
	noTrace := global.Bool("no-trace", false, "disable the causal trace tree (on by default; capture persists it as trace.bin)")
	fleetN := global.Int("fleet", 0, "replace the 40-device catalog with a synthetic fleet of N seeded devices (trace-free)")
	fleetSeed := global.Uint64("fleet-seed", 1, "sample seed for the synthetic fleet (with -fleet)")
	global.Parse(os.Args[1:])
	studyConfig.Parallelism = *parallel
	studyConfig.NoTrace = *noTrace
	studyConfig.FleetN = *fleetN
	studyConfig.FleetSeed = *fleetSeed
	if err := armStudyConfig(*faultSeed, *faultProfile, *window); err != nil {
		fmt.Fprintln(os.Stderr, "iotls:", err)
		os.Exit(2)
	}
	if global.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	if *debugAddr != "" {
		addr, err := startDebugServer(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iotls:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "iotls: debug inspector on http://%s/debug/vars and /debug/pprof/\n", addr)
	}
	cmd := global.Arg(0)
	args := global.Args()[1:]
	var err error
	switch cmd {
	case "passive":
		err = runPassive()
	case "active":
		err = runActive()
	case "probe":
		err = runProbe()
	case "fingerprint":
		err = runFingerprint()
	case "report":
		err = runReport(args)
	case "capture":
		err = runCapture(args)
	case "analyze":
		err = runAnalyze(args)
	case "dataset":
		err = runDataset(args)
	case "tables":
		err = runTables()
	case "export":
		err = runExport(args)
	case "audit":
		err = runAudit()
	case "guard":
		err = runGuard()
	case "serve":
		err = runServe(args)
	case "coordinate":
		err = runCoordinate(args)
	case "metrics":
		err = runMetrics(args)
	case "trace":
		err = runTrace(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "iotls:", err)
	}
	os.Exit(exitCodeFor(err))
}

// errDegraded marks a study that completed but contained incidents;
// main maps it to exit code 3 so scripted fault campaigns can tell
// "degraded but rendered" (3) apart from "failed" (1).
var errDegraded = errors.New("study completed degraded")

// exitCodeFor maps a subcommand's error to the process exit code:
// 0 clean, 3 degraded-but-rendered, 1 failure. (Usage errors exit 2
// before a subcommand runs.)
func exitCodeFor(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errDegraded):
		return 3
	default:
		return 1
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: iotls [-debug-addr ADDR] <command>

commands:
  passive      run the 2-year passive simulation (Figures 1-3, Table 8)
  active       run the active attack suites (Tables 5-7)
  probe        run root-store exploration (Table 9, Figure 4)
  fingerprint  capture an active snapshot (Figure 5)
  report       run everything and print the full report (-dir writes files)
  capture      run everything and persist a dataset directory
               (-out dir, -gzip, -devices id1,id2 for sharded fleets);
               with -fleet N it streams a synthetic fleet month by month
  analyze      render the full report from dataset directories without
               re-simulating, on the testbed the data names
               (-in dir[,dir...] merges several first; -dir writes files)
  dataset      dataset maintenance:
                 inspect DIR...            print manifest, shards, and
                                           integrity (fails on corruption)
                 merge -out DIR IN1 IN2..  merge runs into one dataset
  tables       print the static methodology tables (1-4)
  export       run the passive simulation and export JSONL (-o file)
  audit        grade every device's TLS offer via the audit service (§6)
  guard        boot all devices behind the gateway guard and report blocks (§6)
  metrics      run a phase (passive|active|probe|report) and print the
               JSON telemetry report (-o file)
  trace        analyze a captured run's trace shard:
                 export -in DIR [-o FILE]  Chrome trace-event JSON
                                           (load in Perfetto / chrome://tracing)
                 slow -in DIR [-top N]     deepest virtual-time paths
                 errors -in DIR            non-ok subtrees grouped by cause
  serve        run the study service: JSON HTTP API for concurrent
               study/analyze/merge jobs sharing one worker budget
               (-addr :8443, -data DIR, -queue N; SIGTERM drains)
  coordinate   run one study distributed across serve workers with
               lease/heartbeat death detection, requeue, speculation,
               and CRC-verified shard collection; the merged output is
               byte-identical to a single-node run
               (-workers URL,URL | -spawn N; -out DIR, -jobs J,
               -job-weight W, -gzip, -keep-work)

flags:
  -parallel N          worker count for parallel study phases
                       (0 = GOMAXPROCS, 1 = sequential; artifacts are
                       byte-identical at any value); under serve this
                       is the global worker budget shared by all jobs
  -fault-seed N        seed the deterministic fault-injection plan
                       (defaults the profile to mild when set alone)
  -fault-profile NAME  fault profile: off, mild, or aggressive
                       (defaults the seed to 1 when set alone)
  -window FROM..TO     narrow the passive collection window of
                       passive, export, metrics, report, capture and
                       coordinate (e.g. 2018-01..2018-06; default:
                       full study)
  -no-trace            disable the causal trace tree (normally on;
                       capture persists it as trace.bin)
  -fleet N             replace the 40-device catalog with a synthetic
                       fleet of N seeded devices for any subcommand
                       (capture, coordinate, ...); -fleet-seed S picks
                       the sample. Fleet runs never trace, and their
                       datasets record the fleet, so analyze needs
                       neither flag
  -debug-addr ADDR     serve the live inspector (expvar at /debug/vars,
                       pprof at /debug/pprof/) on ADDR while running

exit codes: 0 success, 1 failure, 2 usage, 3 study completed degraded
(or, for serve, any drained job degraded; for coordinate, a PARTIAL
merge after a device subset exhausted every worker)`)
}

func runPassive() error {
	s := newStudy()
	stats, err := s.RunPassive()
	if err != nil {
		return err
	}
	fmt.Printf("passive simulation: %d months, %d handshakes representing %d connections\n\n",
		stats.Months, stats.Handshakes, stats.WeightedConns)
	rep := &core.Report{}
	s.DerivePassive(rep)
	fmt.Println(rep.Figure1.Render())
	fmt.Println(rep.Figure2.Render())
	fmt.Println(rep.Figure3.Render())
	fmt.Println(rep.Table8.Render())
	fmt.Println(rep.Comparison.Render())
	fmt.Println(rep.Dataset.Render())
	return nil
}

func runActive() error {
	s := newStudy()
	downgrades, oldVersions, interceptions := s.RunDowngradeSuite(), s.RunOldVersionSuite(), s.RunInterceptionSuite()
	rep := &core.Report{Passthroughs: s.RunPassthroughSuite()}
	if err := s.Err(); err != nil {
		return err
	}
	fmt.Println(analysis.RenderTable5(downgrades, s.NameOf))
	fmt.Println(analysis.RenderTable6(oldVersions, s.NameOf))
	fmt.Println(analysis.RenderTable7(interceptions, s.NameOf))
	s.DeriveExperiments(rep, false)
	fmt.Println(rep.Passthrough.Render())
	return nil
}

func runProbe() error {
	s := newStudy()
	reports, candidates, err := s.RunProbe()
	if err != nil {
		return err
	}
	fmt.Printf("probe candidates: %d, amenable: %d\n\n", candidates, len(reports))
	fmt.Println(analysis.RenderTable9(reports, s.NameOf))
	rep := &core.Report{ProbeReports: reports}
	s.DeriveExperiments(rep, false)
	fmt.Println(rep.Figure4.Render())
	return nil
}

func runFingerprint() error {
	s := newStudy()
	store, err := s.CaptureActiveSnapshot()
	if err != nil {
		return err
	}
	rep := &core.Report{ActiveStore: store}
	s.DeriveActive(rep)
	fmt.Println(rep.Figure5.Render())
	return nil
}

// runReport runs the full study and renders the report it produced.
func runReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	dir := fs.String("dir", "", "also write per-artifact files to this directory")
	fs.Parse(args)
	s := newStudy()
	rep, err := s.RunAll()
	if err != nil {
		return err
	}
	fmt.Println(rep.Render(s))
	if *dir != "" {
		files, err := report.Write(*dir, s, rep)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %d artifacts to %s\n", len(files), *dir)
	}
	if rep.Degraded() {
		return fmt.Errorf("%w: %d incident(s) contained", errDegraded, len(rep.Degradations))
	}
	return nil
}

func runTables() error {
	s := newStudy()
	fmt.Println(analysis.RenderTable1(s.Registry))
	fmt.Println(analysis.RenderTable2())
	fmt.Println(analysis.RenderTable3())
	rep := &core.Report{}
	s.DeriveExperiments(rep, false)
	fmt.Println(analysis.RenderTable4(rep.Table4Rows))
	return nil
}

func runExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	out := fs.String("o", "observations.jsonl", "output file")
	format := fs.String("format", "jsonl", "output format: jsonl or csv")
	fs.Parse(args)

	s := newStudy()
	if _, err := s.RunPassive(); err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	var n int
	switch *format {
	case "jsonl":
		n, err = capture.WriteJSONL(f, s.Store)
	case "csv":
		n, err = capture.WriteCSV(f, s.Store)
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote %d observations to %s (%s)\n", n, *out, *format)
	return nil
}

func runAudit() error {
	s := newStudy()
	s.Clock.AdvanceTo(device.ActiveSnapshot.Start())
	svc := audit.NewService(s.Network, "audit.iotls.example", device.OperationalCAs(s.Registry.Universe)[0].Pair)
	err := s.Watch("audit", func() {
		for _, dev := range s.Registry.ActiveDevices() {
			dst := device.Destination{Host: svc.Host, Slot: 0, Boot: true, MonthlyConns: 1}
			driver.Connect(s.Network, dev, dst, device.ActiveSnapshot, 1)
		}
	})
	if err != nil {
		return err
	}
	fmt.Print(svc.Summary())
	return nil
}

func runGuard() error {
	s := newStudy()
	s.Clock.AdvanceTo(device.ActiveSnapshot.Start())
	g := guard.New(s.Network, guard.DefaultPolicy)
	uninstall := g.Install()
	defer uninstall()
	err := s.Watch("guard", func() {
		for i, dev := range s.Registry.ActiveDevices() {
			driver.Boot(s.Network, dev, device.ActiveSnapshot, uint64(i)*1000, nil)
		}
	})
	if err != nil {
		return err
	}
	fmt.Print(g.Report())
	return nil
}
