package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/capture"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dataset"
)

// The fleet workload's shape. 2000 devices make a month long enough
// (about 0.75 s on two cores) to time well, and six months give six op
// samples per study round.
const (
	fleetN      = 2000
	fleetWindow = "2018-01..2018-06"
)

// fleetConfig is the fleet study for seed at the given parallelism.
func fleetConfig(seed uint64, parallelism int) (core.Config, error) {
	from, to, err := core.ParseWindow(fleetWindow)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Parallelism: parallelism,
		FleetN:      fleetN,
		FleetSeed:   seed,
		WindowFrom:  from,
		WindowTo:    to,
		// As `iotls fleet` runs it: per-handshake spans would bring
		// back the O(run) memory the spill path exists to avoid.
		NoTrace: true,
	}, nil
}

// fleetWorkload runs a seeded synthetic fleet through the streaming
// engine: each completed month is spilled through a dataset writer to
// disk. One op is one month, from the previous month barrier to the
// end of this month's spill.
type fleetWorkload struct{}

func (w *fleetWorkload) prepare(b *bench) error { return nil }

// fleetMonth is one month op awaiting its digest check.
type fleetMonth struct {
	month   string
	records int
}

func (w *fleetWorkload) round(b *bench, traced bool) error {
	cfg, err := fleetConfig(b.seed, b.nproc)
	if err != nil {
		return err
	}
	var (
		s     *core.Study
		t0    time.Time
		setup time.Duration
	)
	for i := 0; i < setupRepeats; i++ {
		s0 := now()
		if s, err = core.NewStudyFromConfig(cfg); err != nil {
			return err
		}
		s1 := now()
		t0, setup = s0.t, s1.t.Sub(s0.t)
		b.res.Setups = append(b.res.Setups, netOfSteal(s0, s1))
	}
	dir := b.tempDir("fleet")
	defer os.RemoveAll(dir)
	sp, err := dataset.NewSpiller(dir, s, dataset.Options{Telemetry: s.Telemetry})
	if err != nil {
		return err
	}
	var opID int
	if traced {
		opID = b.spans.newOp("fleet")
		b.spans.add("core.testbed_ms", 0, opID, t0, t0.Add(setup))
	}

	spill := s.SpillMonth
	handshakes := s.Telemetry.Counter("tlssim.client.handshakes")
	var (
		months   []fleetMonth
		st       stamp
		cpu0     time.Duration
		hs0      int64
		counts0  map[string]int64
		rt0      = readRuntime()
		hsRound0 = handshakes.Value()
		hookErr  error
	)
	begin := func() {
		if err := resetPeakRSS(); err != nil && hookErr == nil {
			hookErr = err
		}
		if traced {
			b.res.Layers["runtime.heap_live_mib"] = append(b.res.Layers["runtime.heap_live_mib"], float64(readRuntime().HeapLive)/(1<<20))
			counts0 = pickCounts(s.Telemetry.Snapshot().Counters)
		}
		st, cpu0, hs0 = now(), cpuSelf(), handshakes.Value()
	}
	s.SpillMonth = func(m clock.Month, obs []*capture.Observation, revs []capture.RevocationEvent) error {
		spillStart := time.Now()
		err := spill(m, obs, revs)
		en := now()
		end := en.t
		cpu := cpuSelf() - cpu0
		hwm, herr := vmHWMKiB()
		if herr != nil && hookErr == nil {
			hookErr = herr
		}
		b.res.Attempted++
		b.res.Ops = append(b.res.Ops, opSample{
			WallS: end.Sub(st.t).Seconds(), NetS: netOfSteal(st, en), CPUS: cpu.Seconds(), RSSKiB: hwm,
			Handshakes: handshakes.Value() - hs0, Traced: traced,
		})
		months = append(months, fleetMonth{month: m.String(), records: len(obs) + len(revs)})
		if traced {
			b.res.Layers["traffic.month_ms"] = append(b.res.Layers["traffic.month_ms"], float64(spillStart.Sub(st.t))/1e6)
			b.res.Layers["dataset.spill_ms"] = append(b.res.Layers["dataset.spill_ms"], float64(end.Sub(spillStart))/1e6)
			month := b.spans.add("fleet.month", 0, opID, st.t, end)
			b.spans.add("traffic.month_ms", month, opID, st.t, spillStart)
			b.spans.add("dataset.spill_ms", month, opID, spillStart, end)
			counts := pickCounts(s.Telemetry.Snapshot().Counters)
			for k := range counts {
				counts[k] -= counts0[k]
			}
			addCounts(b.res, counts)
		}
		begin()
		return err
	}
	begin()
	rep, err := s.RunAll()
	if err == nil {
		err = sp.Finish(rep)
	}
	if err != nil {
		sp.Abort()
		return fmt.Errorf("fleet round: %w", err)
	}
	if hookErr != nil {
		return hookErr
	}
	if traced {
		rt := readRuntime()
		b.res.Layers["runtime.gc_cpu_s"] = append(b.res.Layers["runtime.gc_cpu_s"], (rt.GCCPUSeconds-rt0.GCCPUSeconds)/float64(len(months)))
		if hs := handshakes.Value() - hsRound0; hs > 0 {
			b.res.Layers["runtime.allocs_per_handshake"] = append(b.res.Layers["runtime.allocs_per_handshake"], float64(rt.Allocs-rt0.Allocs)/float64(hs))
		}
	}
	w.verify(b, dir, rep, months, traced)
	return nil
}

// verify checks every month op against its reference CRC, and the
// dataset as a whole: it must read back CRC-clean with each month's
// spilled record count, from a study that did not degrade.
func (w *fleetWorkload) verify(b *bench, dir string, rep *core.Report, months []fleetMonth, traced bool) {
	shards, err := readShards(dir)
	if err == nil {
		_, err = dataset.Read(dir, nil)
	}
	if err == nil && rep.Degraded() {
		err = fmt.Errorf("study degraded")
	}
	var bytes, records int64
	for _, m := range months {
		sh, ok := shards[m.month]
		switch {
		case err != nil:
			b.fail("fleet %s: %v", m.month, err)
		case !ok:
			b.fail("fleet %s: no passive shard in the manifest", m.month)
		case sh.Records != int64(m.records):
			b.fail("fleet %s: manifest has %d records, %d were spilled", m.month, sh.Records, m.records)
		default:
			if cerr := b.refs.checkFleetMonth(b.seed, m.month, sh.CRC32); cerr != nil {
				b.fail("fleet %s: %v", m.month, cerr)
			}
		}
		bytes += sh.Bytes
		records += sh.Records
	}
	if traced && records > 0 {
		b.res.Layers["dataset.bytes_per_record"] = append(b.res.Layers["dataset.bytes_per_record"], float64(bytes)/float64(records))
	}
}

// readShards indexes a dataset manifest's passive shards by month.
func readShards(dir string) (map[string]dataset.ShardInfo, error) {
	raw, err := os.ReadFile(filepath.Join(dir, dataset.ManifestName))
	if err != nil {
		return nil, err
	}
	var m dataset.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	out := map[string]dataset.ShardInfo{}
	for _, sh := range m.Shards {
		if sh.Kind == dataset.KindPassive {
			out[sh.Month] = sh
		}
	}
	return out, nil
}
