package main

import (
	"time"

	"repro/internal/core"
)

// phaseLayer maps each RunAll phase to the per-layer metric it times.
var phaseLayer = map[string]string{
	"passive":          "traffic.passive_ms",
	"passive_analysis": "analysis.passive_ms",
	"active_capture":   "capture.active_ms",
	"downgrade":        "mitm.downgrade_ms",
	"old_version":      "mitm.old_version_ms",
	"interception":     "mitm.interception_ms",
	"probe":            "probe.explore_ms",
	"passthrough":      "mitm.passthrough_ms",
}

// countCounters are the testbed counters behind the per-op count
// metrics (probe.verdicts.* feed probe.useful_ratio).
var countCounters = map[string]string{
	"tlssim.handshakes":    "tlssim.client.handshakes",
	"netem.dials":          "netem.dials",
	"driver.connects":      "driver.connects",
	"driver.fallbacks":     "driver.fallbacks",
	"mitm.attacks":         "mitm.attacks",
	"probe.trials":         "probe.trials",
	"probe.included":       "probe.verdicts.included",
	"probe.excluded":       "probe.verdicts.excluded",
	"capture.observations": "capture.observations",
	"capture.records":      "capture.records",
}

// pickCounts extracts countCounters from a telemetry snapshot.
func pickCounts(counters map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(countCounters))
	for name, c := range countCounters {
		out[name] = counters[c]
	}
	return out
}

// addCounts adds one op's counts into res.
func addCounts(res *result, counts map[string]int64) {
	for k, v := range counts {
		res.Counts[k] += float64(v)
	}
	res.CountOps++
}

// catalogWorkload runs the paper's 40-device study the way
// `iotls report` ships it: default config, tracing on, parallelism =
// nproc, then Render. Each round is one op in a fresh child process
// (see childWorkload), whose kernel accounting gives the op's CPU and
// peak RSS.
type catalogWorkload struct{}

func (w *catalogWorkload) prepare(b *bench) error { return nil }

func (w *catalogWorkload) round(b *bench, traced bool) error {
	s0 := now()
	s, err := core.NewStudyFromConfig(core.Config{Parallelism: b.nproc})
	if err != nil {
		return err
	}
	s1 := now()
	t0, setup := s0.t, s1.t.Sub(s0.t)
	b.res.Setups = append(b.res.Setups, netOfSteal(s0, s1))
	b.res.Layers["core.testbed_ms"] = append(b.res.Layers["core.testbed_ms"], float64(setup)/1e6)

	type phase struct {
		name       string
		start, end time.Time
	}
	var phases []phase
	if traced {
		// RunAll runs its phases one after another on one goroutine.
		s.PhaseStart = func(name string) { phases = append(phases, phase{name: name, start: time.Now()}) }
		s.PhaseDone = func(name string) {
			if n := len(phases); n > 0 && phases[n-1].name == name {
				phases[n-1].end = time.Now()
			}
		}
	}
	b.res.Attempted++
	rt0 := readRuntime()
	st := now()
	start := st.t
	rep, err := s.RunAll()
	if err != nil {
		b.fail("catalog: %v", err)
		return nil
	}
	renderStart := time.Now()
	text := rep.Render(s)
	en := now()
	end := en.t
	rt := readRuntime()

	counts := pickCounts(s.Telemetry.Snapshot().Counters)
	b.res.Ops = append(b.res.Ops, opSample{
		WallS: end.Sub(start).Seconds(), NetS: netOfSteal(st, en), Handshakes: counts["tlssim.handshakes"], Traced: traced,
	})
	if err := b.refs.checkReport(sha256Hex(text)); err != nil {
		b.fail("catalog: %v", err)
	} else if rep.Degraded() {
		b.fail("catalog: report degraded")
	}
	if !traced {
		return nil
	}
	op := b.spans.newOp("catalog")
	b.spans.add("core.testbed_ms", 0, op, t0, t0.Add(setup))
	root := b.spans.add("catalog.op", 0, op, start, end)
	for _, ph := range phases {
		if name := phaseLayer[ph.name]; name != "" && !ph.end.IsZero() {
			b.spans.add(name, root, op, ph.start, ph.end)
			b.res.Layers[name] = append(b.res.Layers[name], float64(ph.end.Sub(ph.start))/1e6)
		}
	}
	b.spans.add("analysis.render_ms", root, op, renderStart, end)
	addCounts(b.res, counts)
	b.res.Layers["runtime.gc_cpu_s"] = append(b.res.Layers["runtime.gc_cpu_s"], rt.GCCPUSeconds-rt0.GCCPUSeconds)
	b.res.Layers["runtime.heap_live_mib"] = append(b.res.Layers["runtime.heap_live_mib"], liveHeapMiB())
	if hs := counts["tlssim.handshakes"]; hs > 0 {
		b.res.Layers["runtime.allocs_per_handshake"] = append(b.res.Layers["runtime.allocs_per_handshake"], float64(rt.Allocs-rt0.Allocs)/float64(hs))
	}
	return nil
}
