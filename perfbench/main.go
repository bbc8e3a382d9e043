// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload of the IoTLS testbed for a fixed time, checks every
// operation's output against a reference digest, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of standard output:
//
//	bash perfbench/run.sh --workload catalog --seed 1 --seconds 45 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	catalog     the paper's 40-device study, one child process per op
//	fleet       a seeded synthetic fleet streamed to disk, one op per month
//	analyze     read + restore + render of a captured catalog dataset
//	coordinate  the catalog study distributed over nproc loopback workers
//
// BENCHMARK.json gates catalog and analyze only: fleet and coordinate
// moved too far with the host's speed to gate on (README.md has the
// figures). Traced runs still measure the layers of all four.
//
// It must run from the repository root on Linux: CPU, peak RSS and
// steal time come from the kernel (getrusage, /proc).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workload is one benchmark input set. prepare does untimed one-time
// work (fixtures); round runs at least one op and appends its samples
// to b.res.
type workload interface {
	prepare(b *bench) error
	round(b *bench, traced bool) error
}

// workloadNames is the fixed order of the workloads; a traced run
// visits them in this order.
var workloadNames = []string{"catalog", "fleet", "analyze", "coordinate"}

func newWorkload(name string) workload {
	switch name {
	case "catalog":
		return &catalogWorkload{}
	case "fleet":
		return &fleetWorkload{}
	case "analyze":
		return &analyzeWorkload{}
	case "coordinate":
		return &coordinateWorkload{}
	}
	return nil
}

// opSample is one timed op. WallS is its wall time, NetS the same
// less the host's steal during the op (see netOfSteal).
type opSample struct {
	WallS      float64 `json:"wall_s"`
	NetS       float64 `json:"net_s"`
	CPUS       float64 `json:"cpu_s"`
	RSSKiB     int64   `json:"rss_kib"`
	Handshakes int64   `json:"handshakes"`
	Traced     bool    `json:"traced"`
}

// result accumulates one workload's samples within a run (and crosses
// from a child process to its parent as JSON). Setups are set-up times
// net of host steal.
type result struct {
	Setups []float64  `json:"setups_s"`
	Ops    []opSample `json:"ops"`
	// Layers holds per-layer samples by metric name; Counts sums
	// per-op counters over CountOps traced ops.
	Layers    map[string][]float64 `json:"layers"`
	Counts    map[string]float64   `json:"counts"`
	CountOps  int                  `json:"count_ops"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
}

func newResult() *result {
	return &result{Layers: map[string][]float64{}, Counts: map[string]float64{}}
}

// merge adds a child's samples to r.
func (r *result) merge(c *result) {
	r.Setups = append(r.Setups, c.Setups...)
	r.Ops = append(r.Ops, c.Ops...)
	for k, v := range c.Layers {
		r.Layers[k] = append(r.Layers[k], v...)
	}
	for k, v := range c.Counts {
		r.Counts[k] += v
	}
	r.CountOps += c.CountOps
	r.Attempted += c.Attempted
	r.Failed += c.Failed
}

// setupRepeats is how many times a fleet or coordinate round builds
// its set-up, keeping the last: a round is several seconds long, so
// without repeats a run would hold only a handful of setup_s samples.
const setupRepeats = 8

// bench is the state shared by every workload of one run.
type bench struct {
	seed    uint64
	nproc   int
	workDir string
	refs    *references
	spans   *spanLog
	res     *result
	tmpSeq  int
}

// fail counts the current op as failed and says why on stderr.
func (b *bench) fail(format string, args ...any) {
	b.res.Failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAILED op: "+format+"\n", args...)
}

// tempDir returns a fresh directory under the run's work directory.
func (b *bench) tempDir(prefix string) string {
	b.tmpSeq++
	return filepath.Join(b.workDir, fmt.Sprintf("%s-%d", prefix, b.tmpSeq))
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if child := os.Getenv(childEnv); child != "" {
		if err := runChild(child); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	refSeeds := fs.String("make-references", "", "print reference digests for fleet seeds FROM-TO (JSON) and exit")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *refSeeds != "" {
		if err := makeReferences(*refSeeds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if newWorkload(*name) == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload {%s} --seed N --seconds S>=1 --trace {0,1}\n", strings.Join(workloadNames, ","))
		os.Exit(2)
	}
	out, err := run(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run measures one workload and returns the result line.
func run(name string, seed uint64, seconds int, traced bool) (*output, error) {
	if _, err := os.Stat("go.mod"); err != nil {
		return nil, errors.New("run from the repository root")
	}
	refs, err := loadReferences()
	if err != nil {
		return nil, err
	}
	workDir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("work-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)

	hdr := newEnvHeader(name, seed, seconds, traced)
	ticks0, err := readHostTicks()
	if err != nil {
		return nil, err
	}
	b := &bench{seed: seed, nproc: runtime.NumCPU(), workDir: workDir, refs: refs, spans: &spanLog{}}

	var out *output
	if traced {
		out, err = tracedRun(b, name, seconds)
	} else {
		out, err = plainRun(b, name, seconds)
	}
	if err != nil {
		return nil, err
	}
	ticks1, err := readHostTicks()
	if err != nil {
		return nil, err
	}
	hdr.StealS = ticks1.steal - ticks0.steal
	if traced {
		out.Metrics["env.steal_s"] = metric{hdr.StealS, "s"}
		for _, l := range layerTable {
			fmt.Printf("# layer %-28s %12.4f %-6s moves %s\n", l.name, out.Metrics[l.name].Value, l.unit, l.moves)
		}
		if err := b.spans.write(filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", name, seed))); err != nil {
			return nil, err
		}
	}
	h, _ := json.Marshal(hdr)
	fmt.Printf("# env %s\n", h)
	return out, nil
}

// measure prepares w and runs its rounds until seconds have elapsed
// (at least minRounds rounds). alternate interleaves traced and
// untraced rounds, traced first; otherwise every round uses traced.
func measure(b *bench, w workload, seconds float64, minRounds int, traced, alternate bool) (*result, error) {
	b.res = newResult()
	if err := w.prepare(b); err != nil {
		return nil, err
	}
	start := time.Now()
	for i := 0; i < minRounds || time.Since(start).Seconds() < seconds; i++ {
		t := traced
		if alternate {
			t = i%2 == 0
		}
		if err := w.round(b, t); err != nil {
			return nil, err
		}
	}
	return b.res, nil
}

// plainRun measures the end-to-end metrics: no spans, no hooks beyond
// the op boundaries.
func plainRun(b *bench, name string, seconds int) (*output, error) {
	res, err := measure(b, measured(name), float64(seconds), 1, false, false)
	if err != nil {
		return nil, err
	}
	var walls, nets, rates, cpus, rss []float64
	for _, op := range res.Ops {
		walls = append(walls, op.WallS*1000)
		nets = append(nets, op.NetS*1000)
		rates = append(rates, float64(op.Handshakes)/op.NetS)
		cpus = append(cpus, op.CPUS)
		rss = append(rss, float64(op.RSSKiB)/1024)
	}
	fmt.Printf("# %s op time net of steal: %s\n", name, describeTail(nets, "ms"))
	fmt.Printf("# %s op wall time: %s\n", name, describeTail(walls, "ms"))
	fmt.Printf("# %s setup net of steal: %s\n", name, describeTail(scale(res.Setups, 1000), "ms"))
	fmt.Printf("# %s ops attempted %d, failed %d\n", name, res.Attempted, res.Failed)
	m := map[string]metric{
		"setup_s":          {median(res.Setups), "s"},
		"op_p50_ms":        {median(nets), "ms"},
		"handshakes_per_s": {median(rates), "1/s"},
		"cpu_s":            {median(cpus), "s"},
		"peak_rss_mib":     {median(rss), "MiB"},
	}
	return finish(res.Attempted, res.Failed, m)
}

// tracedRun measures the per-layer metrics: the named workload runs
// for the full time with traced and untraced rounds interleaved (their
// op_p50_ms difference is the tracing overhead), then every other
// workload runs one traced round, so every layer's metric comes from
// the workload that exercises it (see layerMetrics).
func tracedRun(b *bench, name string, seconds int) (*output, error) {
	results := map[string]*result{}
	attempted, failed := 0, 0
	for _, wn := range workloadNames {
		var res *result
		var err error
		switch {
		case wn == name:
			res, err = measure(b, measured(wn), float64(seconds), 2, true, true)
			if err == nil && !perProcess[wn] {
				// The live heap a second after the last op: what the next
				// op in this process would inherit (child processes
				// measure their own).
				time.Sleep(time.Second)
				res.Layers["runtime.heap_retained_mib"] = []float64{liveHeapMiB()}
			}
		case wn == "analyze":
			res, err = measure(b, measured(wn), 1, 1, true, false)
		default:
			res, err = measure(b, measured(wn), 0, 1, true, false)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wn, err)
		}
		results[wn] = res
		attempted += res.Attempted
		failed += res.Failed
		fmt.Printf("# traced %s: ops attempted %d, failed %d\n", wn, res.Attempted, res.Failed)
	}
	micro, err := microLayers(b)
	if err != nil {
		return nil, err
	}
	m := layerMetrics(name, results, micro)
	m["env.gomaxprocs"] = metric{float64(runtime.GOMAXPROCS(0)), "count"}
	return finish(attempted, failed, m)
}

// finish assembles the result line; a metric without samples is an
// error, not a zero.
func finish(attempted, failed int, m map[string]metric) (*output, error) {
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s has no samples", k)
		}
	}
	return &output{Correct: attempted > 0 && failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}
