package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// Environment variables of a child process: the mode (a workload name,
// or "capture"), and the round's seed, tracing, work directory, and
// for capture the output directory.
const (
	childEnv      = "PERFBENCH_CHILD"
	childSeedEnv  = "PERFBENCH_SEED"
	childTraceEnv = "PERFBENCH_TRACED"
	childDirEnv   = "PERFBENCH_DIR"
)

// perProcess lists the workloads whose rounds each run in a fresh
// child process. A study leaves about 50 MiB of pipe buffers and
// deadline timers live for 5–6 s after it ends, so a second study in
// the same process would inherit that heap and its GC load; a fresh
// process also pays start-up and lazy set-up, as `iotls report` does.
var perProcess = map[string]bool{"catalog": true, "fleet": true, "coordinate": true}

// measured returns the workload as the benchmark runs it.
func measured(name string) workload {
	w := newWorkload(name)
	if perProcess[name] {
		return &childWorkload{name: name, inner: w}
	}
	return w
}

// childWorkload runs each round of inner in a child process and merges
// the child's samples and spans into the run.
type childWorkload struct {
	name  string
	inner workload
}

func (w *childWorkload) prepare(b *bench) error { return w.inner.prepare(b) }

func (w *childWorkload) round(b *bench, traced bool) error {
	tr := "0"
	if traced {
		tr = "1"
	}
	cr, err := runChildProcess(
		childEnv+"="+w.name,
		childSeedEnv+"="+strconv.FormatUint(b.seed, 10),
		childTraceEnv+"="+tr,
		childDirEnv+"="+b.tempDir(w.name),
	)
	if err != nil {
		b.res.Attempted++
		b.fail("%s: %v", w.name, err)
		return nil
	}
	var out childOutput
	if err := json.Unmarshal(lastLine(cr.stdout), &out); err != nil {
		b.res.Attempted++
		b.fail("%s: child output: %v", w.name, err)
		return nil
	}
	if w.name == "catalog" {
		// One op is the whole child: the kernel's accounting for the
		// process is the op's (process start and set-up included).
		for i := range out.Result.Ops {
			out.Result.Ops[i].CPUS = cr.cpuS
			out.Result.Ops[i].RSSKiB = cr.rssKiB
		}
	}
	b.res.merge(out.Result)
	b.spans.merge(out.Spans, out.OpKinds)
	return nil
}

// childOutput is what a child prints as its last line.
type childOutput struct {
	Result  *result   `json:"result"`
	Spans   []spanRec `json:"spans"`
	OpKinds []string  `json:"op_kinds"`
}

// runChild is the child side: one round of the named workload, or the
// analyze fixture's capture.
func runChild(mode string) error {
	dir := os.Getenv(childDirEnv)
	if mode == "capture" {
		return captureFixture(dir)
	}
	w := newWorkload(mode)
	if w == nil || !perProcess[mode] {
		return fmt.Errorf("unknown child mode %q", mode)
	}
	seed, err := strconv.ParseUint(os.Getenv(childSeedEnv), 10, 64)
	if err != nil {
		return fmt.Errorf("child seed: %w", err)
	}
	refs, err := loadReferences()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	traced := os.Getenv(childTraceEnv) == "1"
	b := &bench{seed: seed, nproc: runtime.NumCPU(), workDir: dir, refs: refs, spans: &spanLog{}, res: newResult()}
	if err := w.round(b, traced); err != nil {
		return err
	}
	if traced {
		// The live heap a second after the round: what a next op in
		// this process would inherit.
		time.Sleep(time.Second)
		b.res.Layers["runtime.heap_retained_mib"] = append(b.res.Layers["runtime.heap_retained_mib"], liveHeapMiB())
	}
	return json.NewEncoder(os.Stdout).Encode(childOutput{Result: b.res, Spans: b.spans.spans, OpKinds: b.spans.kinds})
}

// captureFixture persists the catalog study as a dataset, the way
// `iotls capture -out dir` does.
func captureFixture(dir string) error {
	if dir == "" {
		return fmt.Errorf("capture: no output directory")
	}
	s, err := core.NewStudyFromConfig(core.Config{Parallelism: runtime.NumCPU()})
	if err != nil {
		return err
	}
	rep, err := s.RunAll()
	if err != nil {
		return err
	}
	if rep.Degraded() {
		return fmt.Errorf("capture: study degraded")
	}
	return dataset.Write(dir, dataset.FromStudy(s, rep), dataset.Options{Telemetry: s.Telemetry})
}

// childRun is one finished child process.
type childRun struct {
	stdout []byte
	cpuS   float64
	rssKiB int64
}

// runChildProcess re-executes this binary in a child mode and returns
// its output with the kernel's CPU and peak-RSS accounting for it.
func runChildProcess(env ...string) (*childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), env...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child %v: %w", env, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, fmt.Errorf("child %v: no rusage", env)
	}
	return &childRun{
		stdout: stdout.Bytes(),
		cpuS:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(),
		rssKiB: ru.Maxrss, // KiB on Linux
	}, nil
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}
