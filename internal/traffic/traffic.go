// Package traffic generates the longitudinal passive dataset: it drives
// every device through every study month (January 2018 - March 2020) on
// the virtual clock, performing one real, fully-captured handshake per
// (device, destination, month) and weighting it by the destination's
// monthly connection volume. The paper's ≈17M-connection corpus is thus
// reproduced at measurement fidelity (real wire bytes through the
// gateway sniffer) without 17M literal handshakes.
//
// Within each month the per-device handshake batches are dispatched to
// a worker pool. Work items are enumerated — and hello-random sequence
// numbers assigned — before dispatch, in the same order the sequential
// engine used, so every handshake is byte-identical at any parallelism;
// devices are the unit of dispatch because a device's per-slot TLS
// state (failure counters, downgrade memory) is ordered by its own
// connection history.
package traffic

import (
	"fmt"
	"time"

	"repro/internal/capture"
	"repro/internal/clock"
	"repro/internal/device"
	"repro/internal/driver"
	"repro/internal/netem"
	"repro/internal/pool"
	"repro/internal/trace"
)

// Generator runs the passive study.
type Generator struct {
	Network   *netem.Network
	Registry  *device.Registry
	Collector *capture.Collector
	Clock     *clock.Simulated

	// Parallelism is the worker count for each month's handshake batch.
	// Zero or negative means GOMAXPROCS; one reproduces the sequential
	// engine exactly (and any value reproduces its artifacts).
	Parallelism int

	// Trace, when set, is the passive phase's span: each month becomes
	// a child, each device's monthly batch a child of the month, and
	// every handshake a connect span beneath.
	Trace *trace.Span

	// Stop, when non-nil, is polled at each month boundary; once it
	// returns true the run ends before simulating the next month. The
	// completed months are byte-identical to the same months of an
	// uninterrupted run (sequence numbers advance strictly in month
	// order), which is what lets a drained serve job persist a dataset
	// whose shards match a clean capture's.
	Stop func() bool

	// MonthDone, when non-nil, is invoked at each month barrier — after
	// every dialer of the month has returned and Network.Settle has
	// joined the server handlers and found no mirrored connection open
	// — with the completed month. At that point every observation and
	// revocation of the month is in the store and no later month has
	// begun, which is the spill point of the streaming engine: the core
	// layer drains the month from the store and appends it to the
	// dataset, bounding peak memory by one month's traffic. An error
	// aborts the run.
	MonthDone func(m clock.Month) error

	// seq numbers every planned connection. It only advances during
	// single-threaded work enumeration; workers read the pre-assigned
	// values, so no handshake's randoms depend on scheduling.
	seq uint64
}

// New builds a Generator.
func New(nw *netem.Network, reg *device.Registry, col *capture.Collector, clk *clock.Simulated) *Generator {
	return &Generator{Network: nw, Registry: reg, Collector: col, Clock: clk}
}

// Stats summarises a completed run.
type Stats struct {
	Months         int
	Handshakes     int // real handshakes performed
	WeightedConns  int // connections represented (the paper's ≈17M scale)
	FailedConnects int
}

// add merges a worker accumulator.
func (s *Stats) add(o Stats) {
	s.Handshakes += o.Handshakes
	s.WeightedConns += o.WeightedConns
	s.FailedConnects += o.FailedConnects
}

// workItem is one device's handshake batch for one month, with the
// sequence number of each planned connection pre-assigned.
type workItem struct {
	dev  *device.Device
	dsts []device.Destination
	seqs []uint64
}

// Run simulates the months from first through last inclusive. The
// gateway mirrors into the collector for exactly as long as Run runs,
// so the store holds the passive phase's traffic and nothing else.
func (g *Generator) Run(first, last clock.Month) (*Stats, error) {
	g.Network.SetMirror(g.Collector.Mirror)
	defer g.Network.SetMirror(nil)
	stats := &Stats{}
	tel := g.Network.Telemetry()
	workers := pool.Parallelism(g.Parallelism)
	handshakes := tel.Counter("traffic.handshakes")
	weightedConns := tel.Counter("traffic.weighted_conns")
	failedConnects := tel.Counter("traffic.failed_connects")

	for m := first; !last.Before(m); m = m.Next() {
		if g.Stop != nil && g.Stop() {
			tel.Counter("traffic.stopped").Inc()
			break
		}
		msp := g.Trace.Child("month", m.String())
		// Mid-month timestamp so observations land in the right bucket.
		if t := m.Start().Add(14 * 24 * time.Hour); t.After(g.Clock.Now()) {
			g.Clock.AdvanceTo(t)
		}

		// Enumerate the month's work in the canonical sequential order,
		// assigning seq numbers as the single-threaded engine did.
		var items []workItem
		for _, dev := range g.Registry.Devices {
			if !dev.ActiveIn(m) {
				continue
			}
			item := workItem{dev: dev}
			for _, dst := range dev.Destinations {
				g.seq++
				item.dsts = append(item.dsts, dst)
				item.seqs = append(item.seqs, g.seq)
			}
			items = append(items, item)
		}

		accs := make([]Stats, workers)
		month := m
		pool.RunSpans(workers, len(items), msp, "device",
			func(i int) string { return items[i].dev.ID },
			func(worker, i int, dsp *trace.Span) {
				it := items[i]
				acc := &accs[worker]
				for k, dst := range it.dsts {
					g.Collector.WillDial(it.dev.ID, dst.Host, 443, dst.MonthlyConns)
					out := driver.ConnectTraced(g.Network, it.dev, dst, month, it.seqs[k], dsp)
					acc.Handshakes++
					acc.WeightedConns += dst.MonthlyConns
					handshakes.Inc()
					weightedConns.Add(int64(dst.MonthlyConns))
					if !out.Established {
						acc.FailedConnects++
						failedConnects.Inc()
					}
				}
			})
		for _, acc := range accs {
			stats.add(acc)
		}

		// Month barrier: the month's dialers have all returned, so every
		// sniffer has published unless a connection leaked; server
		// handlers must also finish before the clock moves, or a
		// late-scheduled handler would run its handshake at next month's
		// virtual time.
		if err := g.Network.Settle(); err != nil {
			msp.End("mirror_open")
			return stats, fmt.Errorf("traffic: month %s barrier: %w", m, err)
		}
		if g.MonthDone != nil {
			if err := g.MonthDone(m); err != nil {
				msp.End("spill_failed")
				return stats, fmt.Errorf("traffic: month %s barrier: %w", m, err)
			}
		}
		stats.Months++
		tel.Counter("traffic.months").Inc()
		msp.End("ok")
	}
	return stats, nil
}
