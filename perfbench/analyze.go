package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// analyzeWorkload does what `iotls analyze` does with a catalog
// dataset: read it, restore it into a fresh testbed, render the
// report. The dataset is captured once per run by a child process,
// outside timing, so the capture's heap never reaches the ops.
type analyzeWorkload struct {
	fixture string
}

func (w *analyzeWorkload) prepare(b *bench) error {
	w.fixture = b.tempDir("analyze-fixture")
	if _, err := runChildProcess(childEnv+"=capture", childDirEnv+"="+w.fixture); err != nil {
		return fmt.Errorf("capture fixture: %w", err)
	}
	return nil
}

func (w *analyzeWorkload) round(b *bench, traced bool) error {
	s0 := now()
	s, err := core.NewStudyFromConfig(core.Config{Parallelism: b.nproc})
	if err != nil {
		return err
	}
	s1 := now()
	t0, setup := s0.t, s1.t.Sub(s0.t)
	b.res.Setups = append(b.res.Setups, netOfSteal(s0, s1))
	b.res.Layers["core.testbed_ms"] = append(b.res.Layers["core.testbed_ms"], float64(setup)/1e6)
	if err := resetPeakRSS(); err != nil {
		return err
	}
	rt0 := readRuntime()
	cpu0 := cpuSelf()
	b.res.Attempted++

	st := now()
	start := st.t
	ds, err := dataset.Read(w.fixture, s.Telemetry)
	if err != nil {
		b.fail("analyze: %v", err)
		return nil
	}
	read := time.Now()
	rep, err := dataset.Restore(s, ds)
	if err != nil {
		b.fail("analyze: %v", err)
		return nil
	}
	restore := time.Now()
	text := rep.Render(s)
	en := now()
	end := en.t

	cpu := cpuSelf() - cpu0
	hwm, err := vmHWMKiB()
	if err != nil {
		return err
	}
	restored := int64(len(ds.Observations) + len(ds.ActiveObservations))
	b.res.Ops = append(b.res.Ops, opSample{
		WallS: end.Sub(start).Seconds(), NetS: netOfSteal(st, en), CPUS: cpu.Seconds(), RSSKiB: hwm,
		Handshakes: restored, Traced: traced,
	})
	if err := b.refs.checkReport(sha256Hex(text)); err != nil {
		b.fail("analyze: %v", err)
	} else if rep.Degraded() {
		b.fail("analyze: report degraded")
	}
	if !traced {
		return nil
	}
	op := b.spans.newOp("analyze")
	root := b.spans.add("analyze.op", 0, op, start, end)
	b.spans.add("core.testbed_ms", 0, op, t0, t0.Add(setup))
	for _, l := range []struct {
		name     string
		from, to time.Time
	}{
		{"dataset.read_ms", start, read},
		{"dataset.restore_ms", read, restore},
		{"analysis.render_ms", restore, end},
	} {
		b.spans.add(l.name, root, op, l.from, l.to)
		b.res.Layers[l.name] = append(b.res.Layers[l.name], float64(l.to.Sub(l.from))/1e6)
	}
	rt := readRuntime()
	b.res.Layers["runtime.gc_cpu_s"] = append(b.res.Layers["runtime.gc_cpu_s"], rt.GCCPUSeconds-rt0.GCCPUSeconds)
	b.res.Layers["runtime.heap_live_mib"] = append(b.res.Layers["runtime.heap_live_mib"], liveHeapMiB())
	if restored > 0 {
		b.res.Layers["runtime.allocs_per_handshake"] = append(b.res.Layers["runtime.allocs_per_handshake"], float64(rt.Allocs-rt0.Allocs)/float64(restored))
	}
	addCounts(b.res, pickCounts(s.Telemetry.Snapshot().Counters))
	return nil
}
