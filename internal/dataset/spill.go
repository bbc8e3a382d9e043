package dataset

import (
	"fmt"

	"repro/internal/capture"
	"repro/internal/clock"
	"repro/internal/core"
)

// Spiller is the streaming persistence path of the memory-bounded
// engine: it arms a study's SpillMonth hook so every completed passive
// month is drained from the capture store and appended to the dataset
// directory as it finishes, instead of accumulating for a whole-run
// FromStudy snapshot. Peak memory is then bounded by one month's
// traffic (plus the fixed testbed), which is what lets a synthetic
// fleet of 10k-1M devices run through the same engine as the 40-device
// catalog.
//
// The spilled bytes are byte-identical to the bulk Write path for the
// same study. Both encode through one Writer, so only the record order
// could differ, and it does not: both canonical record orders
// (observations and revocation events) sort on the virtual timestamp
// first, and every month's timestamps precede the next month's, so
// sorting each drained month independently produces exactly the
// per-month groups a whole-run canonical sort would — and each month's
// shard streams its observations before its revocations in both paths.
// The month barrier guarantees completeness: WaitIdle has joined every
// sniffer, each of which published straight into the store, before the
// drain, so no record of a spilled month can arrive late.
//
// Usage:
//
//	sp, err := dataset.NewSpiller(dir, s, opts)
//	rep, err := s.RunAll()
//	err = sp.Finish(rep)   // or sp.Abort() on failure
type Spiller struct {
	w     *Writer
	s     *core.Study
	done  bool
	spilt int
}

// NewSpiller prepares a streaming dataset at dir and arms the study's
// spill hook. Like NewWriter it refuses to overwrite an existing
// dataset. The study must not have run yet.
func NewSpiller(dir string, s *core.Study, opts Options) (*Spiller, error) {
	w, err := NewWriter(dir, opts)
	if err != nil {
		return nil, err
	}
	sp := &Spiller{w: w, s: s}
	s.SpillMonth = sp.spill
	return sp, nil
}

// Spilled reports the number of passive records streamed so far.
func (sp *Spiller) Spilled() int { return sp.spilt }

// spill appends one drained month: observations first, then revocation
// events, the per-shard section order writeDataset uses.
func (sp *Spiller) spill(m clock.Month, obs []*capture.Observation, revs []capture.RevocationEvent) error {
	for _, o := range obs {
		if err := sp.w.Observation(o); err != nil {
			return err
		}
	}
	for _, ev := range revs {
		if err := sp.w.Revocation(ev); err != nil {
			return err
		}
	}
	sp.spilt += len(obs) + len(revs)
	return nil
}

// Finish persists everything the passive spill did not cover — the
// run provenance, the active snapshot, the probe results, the suite
// reports, the degradation log and the trace shard — through the same
// writeDataset as the bulk Write path, then seals the dataset
// (manifest written last). rep must come from the armed study's
// RunAll. On error, call Abort to close the shard files.
func (sp *Spiller) Finish(rep *core.Report) error {
	if sp.done {
		return fmt.Errorf("dataset: spiller already finished")
	}
	sp.done = true
	if err := sp.w.writeDataset(reportSections(sp.s, rep)); err != nil {
		return err
	}
	return sp.w.Close()
}

// Abort closes the partially-written shards without writing a
// manifest: the directory is not a readable dataset, exactly like a
// failed Write. Safe to call after a failed Finish.
func (sp *Spiller) Abort() {
	sp.done = true
	sp.w.abort()
}
