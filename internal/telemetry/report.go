package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"time"
)

// ReportSchema versions the JSON metrics report emitted by
// `iotls metrics`; bump it when the Report shape changes.
// v2 added the fault-injection section (faults, degraded phases).
const ReportSchema = "iotls.telemetry/v2"

// PhaseStat summarises one study phase from its span-derived
// instruments (the core.phase.* counters and span.phase.* histograms).
type PhaseStat struct {
	Name string `json:"name"`
	// Runs is how many times the phase was entered.
	Runs int64 `json:"runs"`
	// VirtualUS is the total simulated time spent in the phase, in
	// microseconds.
	VirtualUS int64 `json:"virtual_us"`
	// Statuses counts phase completions by the status of the phase's
	// trace span: "ok", "error", "degraded" or "skipped".
	Statuses map[string]int64 `json:"statuses,omitempty"`
}

// Report is the stable metrics-report shape behind `iotls metrics` and
// BENCH_telemetry.json. It contains only deterministic measurements:
// two runs of the same seeded simulation marshal to identical JSON.
type Report struct {
	Schema string `json:"schema"`
	// Phase is the study phase(s) the report covers (the subcommand
	// argument: "passive", "active", "probe", or "report").
	Phase string `json:"phase"`
	// VirtualTime is the simulated clock at snapshot time.
	VirtualTime time.Time `json:"virtual_time"`
	// Phases breaks progress down per study phase, in name order.
	Phases []PhaseStat `json:"phases"`
	// Handshakes holds the tlssim handshake outcome counters.
	Handshakes map[string]int64 `json:"handshakes"`
	// Alerts counts TLS alerts by direction and description
	// (e.g. "received.unknown_ca").
	Alerts map[string]int64 `json:"alerts"`
	// Mirror holds the gateway capture counters (frames, connections,
	// observations).
	Mirror map[string]int64 `json:"mirror"`
	// Faults holds the network impairment and fault-injection counters:
	// dropped dials plus one entry per injected fault kind
	// (netem.faults.*), the driver's retry/giveup counters, and the
	// core.degraded.* phase incident counts. Empty on a clean run.
	Faults map[string]int64 `json:"faults,omitempty"`
	// Counters is the full deterministic counter set.
	Counters map[string]int64 `json:"counters"`
	// Histograms is the full deterministic histogram set.
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// BuildReport assembles the metrics report for a snapshot.
func BuildReport(snap *Snapshot, phase string) *Report {
	rep := &Report{
		Schema:      ReportSchema,
		Phase:       phase,
		VirtualTime: snap.TakenAt,
		Handshakes:  map[string]int64{},
		Alerts:      map[string]int64{},
		Mirror:      map[string]int64{},
		Counters:    snap.DeterministicCounters(),
		Histograms:  snap.DeterministicHistograms(),
	}
	for name, v := range rep.Counters {
		switch {
		case strings.HasPrefix(name, "tlssim.alerts."):
			rep.Alerts[strings.TrimPrefix(name, "tlssim.alerts.")] = v
		case name == "tlssim.client.handshakes" || name == "tlssim.client.established" ||
			name == "tlssim.client.failed" || name == "tlssim.server.handshakes" ||
			name == "tlssim.server.established" || name == "tlssim.server.failed":
			rep.Handshakes[strings.TrimPrefix(name, "tlssim.")] = v
		case strings.HasPrefix(name, "netem.mirror.") || strings.HasPrefix(name, "capture.observations"):
			rep.Mirror[name] = v
		case name == "netem.dials.dropped" || strings.HasPrefix(name, "netem.faults.") ||
			strings.HasPrefix(name, "driver.retr") || name == "driver.giveups" ||
			strings.HasPrefix(name, "core.degraded."):
			if rep.Faults == nil {
				rep.Faults = map[string]int64{}
			}
			rep.Faults[name] = v
		}
	}
	rep.Phases = phaseStats(rep.Counters, rep.Histograms)
	return rep
}

// phaseStats derives per-phase rows from the core.phase.* counters and
// the span.phase.* instruments.
func phaseStats(counters map[string]int64, hists map[string]HistogramSnapshot) []PhaseStat {
	byName := map[string]*PhaseStat{}
	get := func(name string) *PhaseStat {
		ps, ok := byName[name]
		if !ok {
			ps = &PhaseStat{Name: name, Statuses: map[string]int64{}}
			byName[name] = ps
		}
		return ps
	}
	for name, v := range counters {
		if rest, ok := strings.CutPrefix(name, "core.phase."); ok {
			get(rest).Runs = v
			continue
		}
		if rest, ok := strings.CutPrefix(name, "span.phase."); ok {
			// span.phase.<name>.<status>
			if i := strings.LastIndexByte(rest, '.'); i > 0 {
				get(rest[:i]).Statuses[rest[i+1:]] = v
			}
		}
	}
	for name, h := range hists {
		if rest, ok := strings.CutPrefix(name, "span.phase."); ok {
			if phase, ok := strings.CutSuffix(rest, ".virtual_us"); ok {
				get(phase).VirtualUS = h.Sum
			}
		}
	}
	out := make([]PhaseStat, 0, len(byName))
	for _, ps := range byName {
		out = append(out, *ps)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
