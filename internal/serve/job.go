package serve

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/report"
	"repro/internal/telemetry"
)

// Job kinds.
const (
	// KindStudy runs a full study, persists the dataset, and renders
	// the artifact files from it (the capture+analyze pipeline one CLI
	// invocation of `iotls capture` + `iotls analyze` performs).
	KindStudy = "study"
	// KindAnalyze merges existing datasets into the job's own dataset
	// and renders artifacts from it.
	KindAnalyze = "analyze"
	// KindMerge merges existing datasets into a new dataset.
	KindMerge = "merge"
)

// Job states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// runAllPhases is RunAll's phase sequence, the backbone of per-phase
// progress reporting (derived from the job registry's core.phase.* and
// span.phase.* counters).
var runAllPhases = []string{
	"passive", "passive_analysis", "active_capture",
	"downgrade", "old_version", "interception", "probe", "passthrough",
}

// JobSpec is the submitted description of one job.
type JobSpec struct {
	// Kind selects the executor: study, analyze, or merge.
	Kind string `json:"kind"`
	// Weight is how many study workers the job runs with; it is the
	// amount leased from the scheduler budget. 0 means 1.
	Weight int `json:"weight,omitempty"`

	// Study parameters (KindStudy).
	FaultSeed    uint64   `json:"fault_seed,omitempty"`
	FaultProfile string   `json:"fault_profile,omitempty"`
	Window       string   `json:"window,omitempty"` // "2018-01..2018-06"
	Devices      []string `json:"devices,omitempty"`

	// FleetN/FleetSeed replace the 40-device catalog with a synthetic
	// fleet (see internal/fleet); coordinators set them so sharded
	// fleet jobs rebuild the exact same devices on every worker.
	FleetN    int    `json:"fleet_n,omitempty"`
	FleetSeed uint64 `json:"fleet_seed,omitempty"`

	// Gzip compresses the persisted dataset's shards.
	Gzip bool `json:"gzip,omitempty"`

	// NoTrace disables the study's causal trace tree. Coordinated
	// device-subset jobs set it: per-worker span trees are rooted in
	// each process and can never merge into the single-node tree, so a
	// distributed study is defined as trace-free (see DESIGN).
	NoTrace bool `json:"no_trace,omitempty"`

	// Lease binds the job to a coordinator lease (see POST /leases): if
	// the lease expires — the coordinator stopped heartbeating — the
	// job is cancelled rather than left running as an orphan.
	Lease string `json:"lease,omitempty"`

	// Inputs name the datasets analyze/merge consume: either the ID of
	// a finished job with a dataset, or a directory name under the
	// service's data root.
	Inputs []string `json:"inputs,omitempty"`
}

// Job is one scheduled unit of work.
type Job struct {
	ID   string
	Spec JobSpec

	m      *Manager
	ticket *Ticket
	cancel context.CancelFunc // unblocks a queued ticket on drain
	done   chan struct{}

	events *eventLog

	mu        sync.Mutex
	state     string
	err       string
	degraded  bool
	cancelAsk bool        // Cancel was requested while running
	cancelWhy string      // operator-facing cancel reason
	study     *core.Study // non-nil while a KindStudy job runs
	tel       *telemetry.Registry
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// Registry returns the job's own telemetry registry: the study's
// testbed registry for KindStudy (once the study is built), a
// standalone one otherwise. Served under /metrics/jobs/<id>.
func (j *Job) Registry() *telemetry.Registry {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tel
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the job's current state.
func (j *Job) State() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Degraded reports whether the job finished degraded.
func (j *Job) Degraded() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.degraded
}

// Err returns the failure message ("" unless StateFailed).
func (j *Job) Err() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Dir is the job's working directory under the manager's data root.
func (j *Job) Dir() string { return filepath.Join(j.m.root, j.ID) }

// DatasetDir is where the job's dataset lands (every kind: analyze
// jobs merge their inputs here before rendering).
func (j *Job) DatasetDir() string { return filepath.Join(j.Dir(), "dataset") }

// ArtifactDir is where rendered artifacts land (study and analyze jobs).
func (j *Job) ArtifactDir() string { return filepath.Join(j.Dir(), "artifacts") }

// PhaseStatus is one RunAll phase's progress.
type PhaseStatus struct {
	Name  string `json:"name"`
	State string `json:"state"` // pending | running | done | skipped
}

// Status is the API view of a job.
type Status struct {
	ID        string        `json:"id"`
	Kind      string        `json:"kind"`
	State     string        `json:"state"`
	Weight    int           `json:"weight"`
	Degraded  bool          `json:"degraded"`
	Error     string        `json:"error,omitempty"`
	Phases    []PhaseStatus `json:"phases,omitempty"`
	Submitted time.Time     `json:"submitted"`
	Started   *time.Time    `json:"started,omitempty"`
	Finished  *time.Time    `json:"finished,omitempty"`
}

// StatusNow derives the job's current status; per-phase progress comes
// from the job registry's phase counters (core.phase.<name> marks a
// start, span.phase.<name>.<status> marks the finish, and the status
// "skipped" marks a phase a drain skipped).
func (j *Job) StatusNow() Status {
	j.mu.Lock()
	st := Status{
		ID:        j.ID,
		Kind:      j.Spec.Kind,
		State:     j.state,
		Weight:    j.ticket.Weight(),
		Degraded:  j.degraded,
		Error:     j.err,
		Submitted: j.submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	j.mu.Unlock()

	if j.Spec.Kind == KindStudy && st.State != StateQueued && st.State != StateCancelled {
		snap := j.Registry().Snapshot()
		for _, name := range runAllPhases {
			ps := PhaseStatus{Name: name, State: "pending"}
			if snap.Counters["core.phase."+name] > 0 {
				ps.State = "running"
			}
			for cname, v := range snap.Counters {
				if status, ok := strings.CutPrefix(cname, "span.phase."+name+"."); ok && v > 0 {
					ps.State = "done"
					if status == "skipped" {
						ps.State = "skipped"
						break
					}
				}
			}
			st.Phases = append(st.Phases, ps)
		}
	}
	return st
}

// Manager owns the job table, the scheduler, and the data root.
type Manager struct {
	root  string
	sched *Scheduler
	proc  *telemetry.Registry

	// PhaseHook, when non-nil, is invoked from the job's goroutine
	// after every finished study phase. The drain tests use it to hold
	// a job at a deterministic point; it must not submit jobs.
	PhaseHook func(jobID, phase string)

	baseCtx context.Context
	stop    context.CancelFunc

	leaseTab leaseTable

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for listing
	nextID   int
	draining bool
}

// NewManager builds a manager rooted at root (created if needed) with
// the given scheduler budget and admission-queue capacity. proc is the
// process-wide registry (serve.* metrics land there).
func NewManager(root string, budget, queueCap int, proc *telemetry.Registry) (*Manager, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	return &Manager{
		root:    root,
		sched:   NewScheduler(budget, queueCap, proc),
		proc:    proc,
		baseCtx: ctx,
		stop:    stop,
		jobs:    make(map[string]*Job),
	}, nil
}

// Scheduler exposes the manager's scheduler (for status endpoints).
func (m *Manager) Scheduler() *Scheduler { return m.sched }

// Root returns the data root.
func (m *Manager) Root() string { return m.root }

// Get returns a job by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns every job in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// validate rejects a bad spec before anything is enqueued.
func (m *Manager) validate(spec JobSpec) error {
	switch spec.Kind {
	case KindStudy:
		if len(spec.Inputs) > 0 {
			return fmt.Errorf("serve: study jobs take no inputs")
		}
		from, to, err := core.ParseWindow(spec.Window)
		if err != nil {
			return err
		}
		cfg := core.Config{
			FaultSeed:    spec.FaultSeed,
			FaultProfile: spec.FaultProfile,
			WindowFrom:   from,
			WindowTo:     to,
			FleetN:       spec.FleetN,
			FleetSeed:    spec.FleetSeed,
		}
		return cfg.Validate()
	case KindAnalyze, KindMerge:
		if len(spec.Inputs) == 0 {
			return fmt.Errorf("serve: %s jobs need at least one input", spec.Kind)
		}
		return nil
	default:
		return fmt.Errorf("serve: unknown job kind %q (want study, analyze, or merge)", spec.Kind)
	}
}

// Submit validates, enqueues, and starts a job. ErrQueueFull surfaces
// unchanged so the HTTP layer can shed with 429.
func (m *Manager) Submit(spec JobSpec) (*Job, error) {
	if err := m.validate(spec); err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, fmt.Errorf("serve: draining, not accepting jobs")
	}
	m.nextID++
	id := fmt.Sprintf("job-%06d", m.nextID)
	m.mu.Unlock()

	ticket, err := m.sched.Enqueue(spec.Weight)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	j := &Job{
		ID:        id,
		Spec:      spec,
		m:         m,
		ticket:    ticket,
		cancel:    cancel,
		done:      make(chan struct{}),
		events:    newEventLog(),
		state:     StateQueued,
		submitted: time.Now(),
	}
	// Analyze/merge jobs keep this standalone registry; a study job
	// swaps in its testbed's registry once the study is built.
	j.tel = telemetry.New(nil)
	m.mu.Lock()
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.mu.Unlock()
	m.proc.Counter("serve.jobs.submitted").Inc()

	go j.run(ctx)
	return j, nil
}

// run waits for the scheduler grant and executes the job.
func (j *Job) run(ctx context.Context) {
	defer close(j.done)
	defer j.ticket.Release()
	if err := j.ticket.Wait(ctx); err != nil {
		j.finish(StateCancelled, fmt.Sprintf("cancelled while queued: %v", err), false)
		return
	}
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
	j.m.proc.Counter("serve.jobs.started").Inc()

	var degraded bool
	var err error
	switch j.Spec.Kind {
	case KindStudy:
		degraded, err = j.runStudy()
	case KindAnalyze:
		degraded, err = j.runAnalyze()
	case KindMerge:
		err = j.runMerge()
	}
	if cancelled, why := j.cancelRequested(); cancelled {
		j.finish(StateCancelled, why, degraded)
		return
	}
	if err != nil {
		j.finish(StateFailed, err.Error(), degraded)
		return
	}
	j.finish(StateDone, "", degraded)
}

// cancelRequested reports whether Cancel hit the job while it ran.
func (j *Job) cancelRequested() (bool, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelAsk, j.cancelWhy
}

// finish moves the job to a terminal state.
func (j *Job) finish(state, errMsg string, degraded bool) {
	j.mu.Lock()
	j.state = state
	j.err = errMsg
	j.degraded = degraded
	j.finished = time.Now()
	j.study = nil
	j.mu.Unlock()
	j.m.proc.Counter("serve.jobs." + state).Inc()
	if degraded {
		j.m.proc.Counter("serve.jobs.degraded").Inc()
	}
	j.events.Append("state", stateEvent{State: state, Degraded: degraded, Error: errMsg})
	j.events.Close()
}

// config translates the spec into the study config. The leased weight
// is the job's worker count, so the sum of running jobs' study workers
// never exceeds the scheduler budget.
func (j *Job) config() (core.Config, error) {
	from, to, err := core.ParseWindow(j.Spec.Window)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Parallelism:  j.ticket.Weight(),
		FaultSeed:    j.Spec.FaultSeed,
		FaultProfile: j.Spec.FaultProfile,
		WindowFrom:   from,
		WindowTo:     to,
		Devices:      j.Spec.Devices,
		NoTrace:      j.Spec.NoTrace,
		FleetN:       j.Spec.FleetN,
		FleetSeed:    j.Spec.FleetSeed,
	}, nil
}

// Cancel requests that a job stop. A queued job is released before it
// ever runs; a running study job is interrupted at its next month
// boundary and finishes StateCancelled without persisting a dataset.
// reason lands in the job's terminal status. Cancelling a job already
// in a terminal state is an error.
func (m *Manager) Cancel(id, reason string) (*Job, error) {
	j, ok := m.Get(id)
	if !ok {
		return nil, fmt.Errorf("serve: no job %q", id)
	}
	if reason == "" {
		reason = "cancelled by request"
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		j.cancelAsk = true
		j.cancelWhy = reason
		j.mu.Unlock()
		j.cancel()
	case StateRunning:
		j.cancelAsk = true
		j.cancelWhy = reason
		if j.study != nil {
			j.study.Interrupt()
		}
		j.mu.Unlock()
	default:
		state := j.state
		j.mu.Unlock()
		return j, fmt.Errorf("serve: job %s is already %s", id, state)
	}
	m.proc.Counter("serve.jobs.cancel_requested").Inc()
	return j, nil
}

// runStudy executes a full capture+analyze pipeline: simulate with the
// memory-bounded month-spill path streaming each completed month into
// the dataset directory, then render artifacts from the persisted
// bytes — the same bytes `iotls capture` + `iotls analyze` produce for
// the same spec (the spill path is byte-identical to the bulk one), so
// serve artifacts are byte-identical to CLI artifacts. Streaming keeps
// a worker's peak RSS bounded by its largest month even when the job
// carries a 100k-device synthetic fleet.
func (j *Job) runStudy() (degraded bool, err error) {
	cfg, err := j.config()
	if err != nil {
		return false, err
	}
	s, err := core.NewStudyFromConfig(cfg)
	if err != nil {
		return false, err
	}
	if hook := j.m.PhaseHook; hook != nil {
		s.PhaseDone = func(phase string) { hook(j.ID, phase) }
	}
	j.wireStudyEvents(s)
	j.mu.Lock()
	j.study = s
	j.tel = s.Telemetry
	draining := j.m.isDraining()
	cancelled := j.cancelAsk
	j.mu.Unlock()
	if draining || cancelled {
		// Drain (or a cancel) began between submission and the grant:
		// don't start simulating work nobody wants finished.
		s.Interrupt()
	}

	sp, err := dataset.NewSpiller(j.DatasetDir(), s, dataset.Options{Gzip: j.Spec.Gzip, Telemetry: s.Telemetry})
	if err != nil {
		return false, err
	}

	rep, err := s.RunAll()
	if err != nil {
		sp.Abort()
		return false, err
	}
	if cancelled, _ := j.cancelRequested(); cancelled {
		// A cancelled study stops at the interrupt's month boundary and
		// persists nothing: the requester — a coordinator discarding a
		// speculation loser, or the lease janitor reaping an orphan —
		// must never find a partial dataset where a real one belongs.
		// Abort tears down the months already spilled to disk.
		sp.Abort()
		return rep.Degraded(), nil
	}
	degraded = rep.Degraded()
	if err := sp.Finish(rep); err != nil {
		sp.Abort()
		return degraded, err
	}
	// Render from the persisted dataset, like `iotls analyze` does: the
	// live-run and restored-run paths cannot drift, and a drained
	// (partial) dataset is proven analyzable.
	_, err = j.render(s.Telemetry)
	return degraded, err
}

// render restores the job's persisted dataset onto the testbed its
// provenance names and writes the artifact files, reporting whether
// the restored report is degraded.
func (j *Job) render(tel *telemetry.Registry) (degraded bool, err error) {
	ds, err := dataset.Read(j.DatasetDir(), tel)
	if err != nil {
		return false, err
	}
	s, rep, err := dataset.Analyze(ds)
	if err != nil {
		return false, err
	}
	if _, err := report.Write(j.ArtifactDir(), s, rep); err != nil {
		return false, err
	}
	return rep.Degraded(), nil
}

// resolveInput maps an input name to a dataset directory: a job ID
// with a persisted dataset, or a directory name under the data root.
func (m *Manager) resolveInput(name string) (string, error) {
	if j, ok := m.Get(name); ok {
		dir := j.DatasetDir()
		if _, err := os.Stat(filepath.Join(dir, dataset.ManifestName)); err == nil {
			return dir, nil
		}
		return "", fmt.Errorf("serve: job %s has no persisted dataset", name)
	}
	clean := filepath.Clean(name)
	if filepath.IsAbs(clean) || clean == ".." || strings.HasPrefix(clean, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("serve: input %q must be a job ID or a directory under the data root", name)
	}
	dir := filepath.Join(m.root, clean)
	if _, err := os.Stat(filepath.Join(dir, dataset.ManifestName)); err != nil {
		return "", fmt.Errorf("serve: input %q: no dataset at %s", name, dir)
	}
	return dir, nil
}

// runAnalyze merges the input datasets into the job's dataset
// directory and renders artifacts from it.
func (j *Job) runAnalyze() (degraded bool, err error) {
	if err := j.runMerge(); err != nil {
		return false, err
	}
	return j.render(j.Registry())
}

// runMerge merges the input datasets into the job's dataset directory.
func (j *Job) runMerge() error {
	dirs := make([]string, 0, len(j.Spec.Inputs))
	for _, in := range j.Spec.Inputs {
		dir, err := j.m.resolveInput(in)
		if err != nil {
			return err
		}
		dirs = append(dirs, dir)
	}
	return dataset.Merge(j.DatasetDir(), dirs, dataset.Options{Gzip: j.Spec.Gzip, Telemetry: j.Registry()})
}

// isDraining reports whether Drain has begun.
func (m *Manager) isDraining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Drain winds the service down: queued jobs are cancelled, running
// study jobs are interrupted (they finish their current phase, skip
// the rest, and persist what they have as a dataset), and Drain waits
// for every job to reach a terminal state or ctx to expire. It returns
// true iff any job that was running at drain time finished degraded —
// the serve command's exit-code-3 signal.
func (m *Manager) Drain(ctx context.Context) (anyDegraded bool) {
	m.mu.Lock()
	m.draining = true
	var wasRunning []*Job
	var all []*Job
	for _, id := range m.order {
		j := m.jobs[id]
		all = append(all, j)
		j.mu.Lock()
		switch j.state {
		case StateRunning:
			wasRunning = append(wasRunning, j)
			if j.study != nil {
				j.study.Interrupt()
			}
		case StateQueued:
			j.cancel()
		}
		j.mu.Unlock()
	}
	m.mu.Unlock()
	m.proc.Counter("serve.drains").Inc()

	for _, j := range all {
		select {
		case <-j.Done():
		case <-ctx.Done():
			return anyDegradedOf(wasRunning)
		}
	}
	return anyDegradedOf(wasRunning)
}

func anyDegradedOf(jobs []*Job) bool {
	for _, j := range jobs {
		if j.Degraded() {
			return true
		}
	}
	return false
}

// Close releases manager resources (cancels every queued ticket).
func (m *Manager) Close() { m.stop() }

// sortedArtifacts lists the job's artifact files (for the API index).
func (j *Job) sortedArtifacts() ([]string, error) {
	entries, err := os.ReadDir(j.ArtifactDir())
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}
