package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/telemetry"
)

// coordinateTimeout bounds one coordinated study; a clean one takes a
// few seconds.
const coordinateTimeout = 2 * time.Minute

// coordinateWorkload runs the catalog study through coord.Run over
// nproc loopback workers (one job of weight 1 at a time each, so the
// fleet never runs more study workers than cores), split into 2×nproc
// device-subset jobs. A fresh fleet is spawned per op; spawning it is
// the op's set-up.
type coordinateWorkload struct{}

func (w *coordinateWorkload) prepare(b *bench) error { return nil }

func (w *coordinateWorkload) round(b *bench, traced bool) error {
	dir := b.tempDir("coordinate")
	defer os.RemoveAll(dir)
	var (
		fleet  []*coord.LocalWorker
		t0     time.Time
		setup  time.Duration
		err    error
		phMu   sync.Mutex
		phases []jobPhase
	)
	opts := coord.LocalOptions{Budget: 1}
	if traced {
		// Called on each job's goroutine after every finished study
		// phase: the phase spans inside the worker jobs.
		opts.PhaseHook = func(i int, jobID, phase string) {
			at := time.Now()
			phMu.Lock()
			phases = append(phases, jobPhase{jobKey(i, jobID), phase, at})
			phMu.Unlock()
		}
	}
	for i := 0; i < setupRepeats; i++ {
		coord.CloseLocalWorkers(fleet)
		opts.WorkDir = filepath.Join(dir, fmt.Sprintf("workers-%d", i))
		s0 := now()
		fleet, err = coord.SpawnLocalWorkers(b.nproc, opts)
		if err != nil {
			return err
		}
		s1 := now()
		t0, setup = s0.t, s1.t.Sub(s0.t)
		b.res.Setups = append(b.res.Setups, netOfSteal(s0, s1))
	}
	closed := false
	defer func() {
		if !closed {
			coord.CloseLocalWorkers(fleet)
		}
	}()
	tel := telemetry.New(nil)
	c := coord.New(coord.Options{
		Workers:   coord.URLs(fleet),
		Jobs:      2 * b.nproc,
		JobWeight: 1,
		Config:    core.Config{Parallelism: b.nproc},
		OutDir:    filepath.Join(dir, "out"),
		Telemetry: tel,
	})
	ctx, cancel := context.WithTimeout(context.Background(), coordinateTimeout)
	defer cancel()
	if err := resetPeakRSS(); err != nil {
		return err
	}
	rt0 := readRuntime()
	cpu0 := cpuSelf()
	b.res.Attempted++
	st := now()
	res, runErr := c.Run(ctx)
	en := now()
	start, end := st.t, en.t
	cpu := cpuSelf() - cpu0
	rt := readRuntime()
	hwm, err := vmHWMKiB()
	if err != nil {
		return err
	}

	// Worker-side accounting: every job's own testbed telemetry and
	// its wall-clock run.
	var handshakes int64
	counts := map[string]int64{}
	var lastJobEnd time.Time
	var jobMs []float64
	var jobs []jobSpan
	for wi, lw := range fleet {
		for _, j := range lw.Manager.Jobs() {
			jc := pickCounts(j.Registry().Snapshot().Counters)
			for k, v := range jc {
				counts[k] += v
			}
			handshakes += jc["tlssim.handshakes"]
			st := j.StatusNow()
			if st.Started != nil && st.Finished != nil {
				jobMs = append(jobMs, float64(st.Finished.Sub(*st.Started))/1e6)
				jobs = append(jobs, jobSpan{jobKey(wi, j.ID), *st.Started, *st.Finished})
				if st.Finished.After(lastJobEnd) {
					lastJobEnd = *st.Finished
				}
			}
		}
	}
	coord.CloseLocalWorkers(fleet)
	closed = true

	b.res.Ops = append(b.res.Ops, opSample{
		WallS: end.Sub(start).Seconds(), NetS: netOfSteal(st, en), CPUS: cpu.Seconds(), RSSKiB: hwm,
		Handshakes: handshakes, Traced: traced,
	})
	if err := w.verify(b, res, runErr); err != nil {
		b.fail("coordinate: %v", err)
	}
	if !traced {
		return nil
	}
	op := b.spans.newOp("coordinate")
	root := b.spans.add("coordinate.op", 0, op, start, end)
	b.spans.add("coord.spawn", 0, op, t0, t0.Add(setup))
	if !lastJobEnd.IsZero() {
		b.spans.add("coord.fetch_merge_ms", root, op, lastJobEnd, end)
		b.res.Layers["coord.fetch_merge_ms"] = append(b.res.Layers["coord.fetch_merge_ms"], float64(end.Sub(lastJobEnd))/1e6)
	}
	b.res.Layers["serve.job_ms"] = append(b.res.Layers["serve.job_ms"], jobMs...)
	phMu.Lock()
	for _, j := range jobs {
		id := b.spans.add("serve.job_ms", root, op, j.start, j.end)
		prev := j.start
		for _, ph := range phases {
			if ph.job == j.key {
				b.spans.add("serve.phase."+ph.phase, id, op, prev, ph.at)
				prev = ph.at
			}
		}
	}
	phMu.Unlock()
	snap := tel.Snapshot().Counters
	for name, counter := range map[string]string{
		"coord.jobs_dispatched":      "coord.jobs.dispatched",
		"coord.jobs_completed":       "coord.jobs.completed",
		"coord.jobs_requeued":        "coord.jobs.requeued",
		"coord.speculative_launched": "coord.speculative.launched",
	} {
		b.res.Layers[name] = append(b.res.Layers[name], float64(snap[counter]))
	}
	b.res.Layers["runtime.gc_cpu_s"] = append(b.res.Layers["runtime.gc_cpu_s"], rt.GCCPUSeconds-rt0.GCCPUSeconds)
	b.res.Layers["runtime.heap_live_mib"] = append(b.res.Layers["runtime.heap_live_mib"], liveHeapMiB())
	if handshakes > 0 {
		b.res.Layers["runtime.allocs_per_handshake"] = append(b.res.Layers["runtime.allocs_per_handshake"], float64(rt.Allocs-rt0.Allocs)/float64(handshakes))
	}
	addCounts(b.res, counts)
	return nil
}

// jobPhase is one finished study phase inside a worker job.
type jobPhase struct {
	job, phase string
	at         time.Time
}

// jobSpan is one worker job's run, from its status.
type jobSpan struct {
	key        string
	start, end time.Time
}

// jobKey names a job across the fleet: job IDs are per worker.
func jobKey(worker int, jobID string) string {
	return fmt.Sprintf("w%d/%s", worker, jobID)
}

// verify renders the merged dataset the way `iotls analyze` would and
// checks it against the catalog reference: a coordinated run must be
// byte-identical to a single-node one.
func (w *coordinateWorkload) verify(b *bench, res *coord.Result, runErr error) error {
	switch {
	case runErr != nil:
		return runErr
	case res.Partial:
		return fmt.Errorf("PARTIAL: %d device subsets lost", len(res.Lost))
	case res.Degraded:
		return fmt.Errorf("merged report degraded")
	}
	s := core.NewStudy()
	ds, err := dataset.Read(res.DatasetDir, s.Telemetry)
	if err != nil {
		return err
	}
	rep, err := dataset.Restore(s, ds)
	if err != nil {
		return err
	}
	return b.refs.checkReport(sha256Hex(rep.Render(s)))
}
