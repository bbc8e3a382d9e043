// Trace example: run a short aggressive-fault study with causal tracing
// on, persist the dataset (the span tree rides along as trace.bin),
// then consume the trace the three ways `iotls trace` does — export
// Chrome trace-event JSON for Perfetto, rank the deepest virtual-time
// paths, and attribute every failing subtree to its root cause.
//
// Run with: go run ./examples/trace
// Then load trace.json at https://ui.perfetto.dev (or chrome://tracing)
// to see the study as a flame graph over virtual time.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/trace"
)

func main() {
	// Tracing is on by default (core.Config.NoTrace disables it). The
	// fault seed keys both the fault plan and every span ID, so running
	// this twice — at any -parallel value — produces byte-identical
	// trace.bin shards and exports.
	s, err := core.NewStudyFromConfig(core.Config{
		Parallelism:  4,
		FaultSeed:    7,
		FaultProfile: "aggressive",
		WindowFrom:   clock.Month{Year: 2018, Mon: 1},
		WindowTo:     clock.Month{Year: 2018, Mon: 3},
	})
	if err != nil {
		log.Fatal(err)
	}
	// Persist the run the way `iotls capture` does: each passive month
	// streams to disk as it completes, and Finish writes the rest. The
	// tracer's canonical DFS serialisation becomes the trace.bin shard,
	// CRC'd in the manifest like every other shard.
	dir := "trace-example-data"
	sp, err := dataset.NewSpiller(dir, s, dataset.Options{})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := s.RunAll()
	if err == nil {
		err = sp.Finish(rep)
	}
	if err != nil {
		sp.Abort()
		log.Fatal(err)
	}
	fmt.Printf("study done: %d degradations under the aggressive fault plan\n",
		len(s.Degradations()))

	// Reload from disk — exactly what `iotls trace -in DIR` does — and
	// drive the three consumers.
	ds, err := dataset.Read(dir, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset written to %s/ (%d trace spans in trace.bin)\n\n",
		dir, len(ds.TraceSpans))

	// 1. Chrome trace-event export, for Perfetto / chrome://tracing.
	f, err := os.Create("trace.json")
	if err != nil {
		log.Fatal(err)
	}
	if err := trace.ExportChrome(f, ds.TraceSpans); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Println("wrote trace.json — open it at https://ui.perfetto.dev")

	// 2. The deepest virtual-time paths: where the simulated study
	// spent its clock.
	fmt.Println("\nslowest paths (virtual time):")
	if err := trace.WriteSlowReport(os.Stdout, trace.SlowPaths(ds.TraceSpans, 5)); err != nil {
		log.Fatal(err)
	}

	// 3. Error attribution: every failing subtree grouped by cause. A
	// connection that was abandoned after retry exhaustion is attributed
	// to the fault injected into it (fault:dial_fail, fault:reset, ...),
	// not just its surface status.
	fmt.Println("\nfailing subtrees by root cause:")
	if err := trace.WriteErrorReport(os.Stdout, trace.ErrorGroups(ds.TraceSpans)); err != nil {
		log.Fatal(err)
	}
}
