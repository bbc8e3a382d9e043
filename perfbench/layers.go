package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/certs"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/driver"
	"repro/internal/netem"
	"repro/internal/wire"
)

// layerMetric is one per-layer metric: where its value comes from and
// which end-to-end metric it should move, on which workload.
//
// home names the workload whose ops measure it in every traced run
// (each traced run runs one traced round of every workload besides its
// own); "self" means the traced run's own workload, "micro" the layer
// microbenchmarks, "env" the host.
type layerMetric struct {
	name, unit, better, home, moves string
}

var layerTable = []layerMetric{
	{"traffic.passive_ms", "ms", "lower", "catalog", "op_p50_ms, handshakes_per_s on catalog and fleet; no change on analyze"},
	{"traffic.month_ms", "ms", "lower", "fleet", "op_p50_ms, handshakes_per_s on catalog and fleet; no change on analyze"},
	{"mitm.downgrade_ms", "ms", "lower", "catalog", "op_p50_ms on catalog; no change on fleet"},
	{"mitm.old_version_ms", "ms", "lower", "catalog", "op_p50_ms on catalog; no change on fleet"},
	{"mitm.interception_ms", "ms", "lower", "catalog", "op_p50_ms on catalog; no change on fleet"},
	{"mitm.passthrough_ms", "ms", "lower", "catalog", "op_p50_ms on catalog; no change on fleet"},
	{"probe.explore_ms", "ms", "lower", "catalog", "op_p50_ms on catalog; no change on fleet"},
	{"capture.active_ms", "ms", "lower", "catalog", "op_p50_ms on catalog; no change on fleet"},
	{"analysis.passive_ms", "ms", "lower", "catalog", "op_p50_ms on catalog; no change on fleet"},
	{"wire.clienthello_us", "us", "lower", "micro", "handshakes_per_s on catalog and fleet"},
	{"wire.clienthello_us.p90", "us", "lower", "micro", "handshakes_per_s on catalog and fleet"},
	{"certs.verify_us", "us", "lower", "micro", "handshakes_per_s on catalog and fleet"},
	{"certs.verify_us.p90", "us", "lower", "micro", "handshakes_per_s on catalog and fleet"},
	{"tlssim.handshake_us", "us", "lower", "micro", "handshakes_per_s on catalog and fleet"},
	{"tlssim.handshake_us.p90", "us", "lower", "micro", "handshakes_per_s on catalog and fleet"},
	{"netem.dial_us", "us", "lower", "micro", "handshakes_per_s on catalog and fleet"},
	{"netem.dial_us.p90", "us", "lower", "micro", "handshakes_per_s on catalog and fleet"},
	{"dataset.spill_ms", "ms", "lower", "fleet", "op_p50_ms on fleet; no change on catalog"},
	{"dataset.bytes_per_record", "B", "lower", "fleet", "op_p50_ms on fleet; no change on catalog"},
	{"dataset.read_ms", "ms", "lower", "analyze", "op_p50_ms on analyze"},
	{"dataset.restore_ms", "ms", "lower", "analyze", "op_p50_ms on analyze"},
	{"analysis.render_ms", "ms", "lower", "analyze", "op_p50_ms on analyze"},
	{"core.testbed_ms", "ms", "lower", "analyze", "setup_s on analyze and catalog"},
	{"runtime.gc_cpu_s", "s", "lower", "self", "cpu_s, peak_rss_mib on fleet and catalog"},
	{"runtime.heap_live_mib", "MiB", "lower", "self", "cpu_s, peak_rss_mib on fleet and catalog"},
	{"runtime.heap_retained_mib", "MiB", "lower", "self", "cpu_s, peak_rss_mib on fleet and catalog"},
	{"runtime.allocs_per_handshake", "count", "lower", "self", "cpu_s, peak_rss_mib on fleet and catalog"},
	{"serve.job_ms", "ms", "lower", "coordinate", "op_p50_ms on coordinate"},
	{"coord.fetch_merge_ms", "ms", "lower", "coordinate", "op_p50_ms on coordinate"},
	{"coord.jobs_dispatched", "count", "lower", "coordinate", "op_p50_ms on coordinate"},
	{"coord.jobs_requeued", "count", "lower", "coordinate", "op_p50_ms on coordinate"},
	{"coord.speculative_launched", "count", "lower", "coordinate", "op_p50_ms on coordinate"},
	{"coord.useful_ratio", "ratio", "higher", "coordinate", "op_p50_ms on coordinate (completed / dispatched jobs)"},
	{"coord.overhead_ratio", "ratio", "lower", "coordinate", "op_p50_ms on coordinate (base: catalog op_p50_ms)"},
	{"tlssim.handshakes", "count", "lower", "self", "none: work per op, repeats exactly"},
	{"netem.dials", "count", "lower", "self", "none: work per op, repeats exactly"},
	{"driver.connects", "count", "lower", "self", "none: work per op, repeats exactly"},
	{"driver.fallbacks", "count", "lower", "self", "none: work per op, repeats exactly"},
	{"mitm.attacks", "count", "lower", "self", "none: work per op, repeats exactly"},
	{"probe.trials", "count", "lower", "self", "none: work per op, repeats exactly"},
	{"probe.useful_ratio", "ratio", "higher", "catalog", "none: conclusive verdicts / trials, repeats exactly"},
	{"capture.observations", "count", "lower", "self", "none: work per op, repeats exactly"},
	{"capture.records", "count", "lower", "self", "none: work per op, repeats exactly"},
	{"bench.trace_overhead_ms", "ms", "lower", "self", "none: traced minus untraced op_p50_ms of this workload"},
	{"bench.trace_base_op_p50_ms", "ms", "lower", "self", "none: the untraced op_p50_ms the overhead is relative to"},
	{"env.steal_s", "s", "lower", "env", "none: host steal seconds during this run"},
	{"env.gomaxprocs", "count", "higher", "env", "none: diagnostic"},
}

// layerMetrics assembles the per-layer metrics of a traced run of
// workload self from every workload's results and the micro suite.
// env.* are filled in by the caller.
func layerMetrics(self string, results map[string]*result, micro map[string]float64) map[string]metric {
	m := map[string]metric{}
	own := results[self]
	for _, l := range layerTable {
		var v float64
		switch {
		case l.home == "env":
			continue
		case l.home == "micro":
			v = micro[l.name]
		case l.name == "coord.useful_ratio":
			r := results["coordinate"].Layers
			v = sum(r["coord.jobs_completed"]) / sum(r["coord.jobs_dispatched"])
		case l.name == "coord.overhead_ratio":
			v = median(opTimes(results["coordinate"], nil)) / median(opTimes(results["catalog"], nil))
		case l.name == "probe.useful_ratio":
			c := results["catalog"].Counts
			v = (c["probe.included"] + c["probe.excluded"]) / c["probe.trials"]
		case l.name == "bench.trace_overhead_ms":
			traced, untraced := true, false
			v = median(opTimes(own, &traced)) - median(opTimes(own, &untraced))
		case l.name == "bench.trace_base_op_p50_ms":
			untraced := false
			v = median(opTimes(own, &untraced))
		case l.home == "self" && l.unit == "count" && l.name != "runtime.allocs_per_handshake":
			v = own.Counts[l.name] / float64(own.CountOps)
		default:
			res := own
			if l.home != "self" {
				res = results[l.home]
			}
			v = median(res.Layers[l.name])
		}
		m[l.name] = metric{v, l.unit}
	}
	return m
}

// opTimes lists a result's op times net of steal in ms (as op_p50_ms
// takes them), only traced or only untraced ones when traced is
// non-nil.
func opTimes(res *result, traced *bool) []float64 {
	var out []float64
	for _, op := range res.Ops {
		if traced == nil || op.Traced == *traced {
			out = append(out, op.NetS*1000)
		}
	}
	return out
}

// microCalls is the minimum number of timed calls per microbenchmark.
const microCalls = 2000

// microLayers times single calls into the handshake-path layers on an
// idle catalog testbed at the 2021 snapshot, reporting each layer's
// median and p90 per call in microseconds.
func microLayers(b *bench) (map[string]float64, error) {
	s, err := core.NewStudyFromConfig(core.Config{Parallelism: b.nproc, NoTrace: true})
	if err != nil {
		return nil, err
	}
	at := device.ActiveSnapshot
	s.Clock.AdvanceTo(at.Start())
	out := map[string]float64{}
	timeCalls := func(name string, fn func(i int) error) error {
		samples := make([]float64, 0, microCalls)
		t0 := time.Now()
		for i := 0; i < microCalls; i++ {
			start := time.Now()
			if err := fn(i); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			samples = append(samples, float64(time.Since(start))/1e3)
		}
		op := b.spans.newOp("micro")
		b.spans.add(name, 0, op, t0, time.Now())
		out[name] = median(samples)
		out[name+".p90"] = percentile(samples, 90)
		return nil
	}

	// wire: marshal and parse every catalog device's ClientHello.
	var hellos []*wire.ClientHello
	for i, d := range s.Registry.Devices {
		host := "perfbench.example.com"
		if len(d.Destinations) > 0 {
			host = d.Destinations[0].Host
		}
		hellos = append(hellos, d.ConfigAt(0, at).BuildClientHello(host, uint64(i)+1))
	}
	if err := timeCalls("wire.clienthello_us", func(i int) error {
		_, err := wire.ParseClientHello(hellos[i%len(hellos)].Marshal())
		return err
	}); err != nil {
		return nil, err
	}

	// certs and tlssim: every active device against each of its cloud
	// destinations.
	type pair struct {
		dev *device.Device
		dst device.Destination
		cfg []*certs.Certificate
	}
	var pairs []pair
	for _, d := range s.Registry.ActiveDevices() {
		for _, dst := range d.Destinations {
			if cfg, ok := s.Cloud.ServerConfigFor(dst.Host); ok {
				pairs = append(pairs, pair{d, dst, cfg.Chain})
			}
		}
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("micro: no device destinations with a cloud chain")
	}
	if err := timeCalls("certs.verify_us", func(i int) error {
		p := pairs[i%len(pairs)]
		// A rejected chain is an outcome here (devices with bad roots
		// exist by design), not a failure of the call.
		_, _ = certs.Verify(p.cfg, certs.VerifyOptions{Roots: p.dev.Roots, Hostname: p.dst.Host, At: at.Start()})
		return nil
	}); err != nil {
		return nil, err
	}
	if err := timeCalls("tlssim.handshake_us", func(i int) error {
		p := pairs[i%len(pairs)]
		driver.Connect(s.Network, p.dev, p.dst, at, uint64(1_000_000+i))
		return nil
	}); err != nil {
		return nil, err
	}
	s.Network.WaitHandlers()

	// netem: dial a listener that closes at once, and close.
	const host, port = "perfbench.dial", 9
	s.Network.Listen(host, port, func(c net.Conn, _ netem.ConnMeta) { c.Close() })
	if err := timeCalls("netem.dial_us", func(i int) error {
		c, err := s.Network.Dial("perfbench.client", host, port)
		if err != nil {
			return err
		}
		return c.Close()
	}); err != nil {
		return nil, err
	}
	s.Network.WaitHandlers()
	return out, nil
}

// spanRec is one recorded span: a layer call timed from the
// benchmark's side, with the span that caused it and the op it
// belongs to.
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op"`
	OpKind string `json:"op_kind"`
	Name   string `json:"name"`
	Start  int64  `json:"start_unix_ns"`
	End    int64  `json:"end_unix_ns"`
}

// spanLog keeps a run's spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []spanRec
	kinds []string // op kind by op id - 1
}

// newOp allocates an op id.
func (l *spanLog) newOp(kind string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.kinds = append(l.kinds, kind)
	return len(l.kinds)
}

// add records a span and returns its id.
func (l *spanLog) add(name string, parent, op int, start, end time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, spanRec{ID: id, Parent: parent, Op: op, OpKind: l.kinds[op-1], Name: name, Start: start.UnixNano(), End: end.UnixNano()})
	return id
}

// merge appends a child process's spans, renumbering its span and op
// ids after the ones already recorded.
func (l *spanLog) merge(spans []spanRec, kinds []string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	idBase, opBase := len(l.spans), len(l.kinds)
	l.kinds = append(l.kinds, kinds...)
	for _, s := range spans {
		s.ID += idBase
		if s.Parent != 0 {
			s.Parent += idBase
		}
		s.Op += opBase
		l.spans = append(l.spans, s)
	}
}

// write saves the spans as a JSON array.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
