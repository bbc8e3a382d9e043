// Package coord is the distributed study fabric's brain: a coordinator
// that splits one study spec into device-subset jobs, fans them out
// over HTTP to a fleet of `iotls serve` workers, pulls the resulting
// dataset shards back fully verified, merges them with dataset.Merge,
// and renders artifacts byte-identical to a single-node run.
//
// The determinism argument has three legs (pinned by tests and spelled
// out in DESIGN.md): (1) a device-subset study simulates exactly the
// reality the full study simulates for those devices — persisted
// records carry no cross-subset state; (2) dataset.Merge sorts records
// into a canonical byte order and rejects duplicate or colliding
// provenance, so WHERE and WHEN a subset was captured cannot leak into
// the merged bytes; (3) worker jobs run trace-free, because per-process
// span trees are the one artifact that genuinely depends on process
// boundaries. The only file that differs from a canonicalized local
// run is manifest.json — N provenance runs instead of one, which is
// the truthful record of how the dataset was captured.
//
// The robustness core: workers hold coordinator leases and are probed
// with /readyz heartbeats (deadline-based death detection on the
// coordinator side, lease-expiry orphan reaping on the worker side);
// failed or orphaned jobs requeue with the failing worker excluded;
// transient HTTP and stream errors retry under capped exponential
// backoff with deterministic jitter; stragglers are speculatively
// re-executed (first completed attempt wins, losers are cancelled); a
// lost worker that answers heartbeats again rejoins; and when a device
// subset has exhausted every worker the run degrades gracefully to a
// PARTIAL merged dataset instead of failing outright.
package coord

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// Options configure one coordinated study.
type Options struct {
	// Workers are the fleet's base URLs ("http://host:port").
	Workers []string

	// Jobs is how many device-subset jobs the study splits into; 0
	// means 2× the worker count (more jobs than workers smooths
	// imbalance and bounds how much one worker death costs).
	Jobs int

	// Config is the study spec every subset job inherits (window,
	// fault seed/profile, device restriction). Parallelism and NoTrace
	// govern only the local merge/render; worker jobs always run
	// trace-free (see the package comment).
	Config core.Config

	// JobWeight is each worker job's scheduler weight — the study
	// parallelism it runs with on the worker. 0 means 1.
	JobWeight int

	// Gzip compresses the merged output dataset's shards.
	Gzip bool

	// OutDir receives dataset/ and artifacts/, and holds fetched
	// per-job datasets under work/ (removed after a clean run unless
	// KeepWork).
	OutDir   string
	KeepWork bool

	// HeartbeatInterval is the /readyz probe period. Default 500ms.
	HeartbeatInterval time.Duration

	// PollInterval is the remote job status poll period. Default 150ms.
	PollInterval time.Duration

	// RetryBase/RetryCap shape the backoff of the per-call HTTP retry
	// loop and the per-shard fetch retry loop. Defaults 50ms, 2s (see
	// dataset.FetchOptions, the one retry policy both loops share).
	RetryBase time.Duration
	RetryCap  time.Duration

	// SpeculateAfter re-executes a job still running after this long on
	// an idle eligible worker. 0 means adaptive: 3× the median
	// completed-job duration, once at least one job has completed.
	SpeculateAfter time.Duration

	// Telemetry receives coord.* counters; nil means a private registry.
	Telemetry *telemetry.Registry

	// Logf, when set, receives progress lines (the CLI wires it to
	// stderr); nil is silent.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Jobs <= 0 {
		o.Jobs = 2 * len(o.Workers)
	}
	if o.Jobs <= 0 {
		o.Jobs = 1
	}
	if o.JobWeight <= 0 {
		o.JobWeight = 1
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 500 * time.Millisecond
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 150 * time.Millisecond
	}
	if o.Telemetry == nil {
		o.Telemetry = telemetry.New(nil)
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// heartbeatMisses is how many consecutive failed /readyz probes
// declare a worker lost.
const heartbeatMisses = 3

// probeTimeout bounds one /readyz probe: max(4×interval, 2s). It is
// deliberately much longer than the interval: a loaded single-core
// worker answers slowly but is not dead, while a killed worker's
// severed connection fails instantly — so a generous timeout costs
// detection latency only for hung-but-accepting workers.
func (o Options) probeTimeout() time.Duration {
	return max(4*o.HeartbeatInterval, 2*time.Second)
}

// Result summarises one coordinated study.
type Result struct {
	// Partial is true when at least one device subset exhausted every
	// worker and the merged dataset covers only the completed subsets —
	// the CLI maps it to exit code 3.
	Partial bool
	// Lost lists the device subsets that could not be captured.
	Lost [][]string
	// Completed counts subset jobs whose datasets made it into the merge.
	Completed int
	// Degraded reports whether the merged report carries degradations
	// (fault-profile runs, drained workers).
	Degraded bool
	// JobsByWorker counts completed subset jobs per worker name.
	JobsByWorker map[string]int
	// DatasetDir and ArtifactDir are where the merged output landed.
	DatasetDir  string
	ArtifactDir string
}

// Job/worker/attempt states inside the control loop. All of this state
// is owned by the run loop goroutine; monitors and attempt runners
// communicate with it exclusively through the event channel.
const (
	jobPending = "pending"
	jobRunning = "running"
	jobDone    = "done"
	jobLost    = "lost"

	workerReady    = "ready"
	workerDraining = "draining"
	workerLost     = "lost"
)

type subJob struct {
	index    int
	devices  []string
	state    string
	excluded map[string]bool
	attempts []*attempt
	result   string // fetched dataset dir, once done
	winner   string // worker that completed it
}

type attempt struct {
	job         *subJob
	worker      *workerState
	speculative bool
	started     time.Time
	jobID       string // remote job ID, once submitted (loop-owned copy)
	cancel      context.CancelFunc
}

type workerState struct {
	name    string
	client  *workerClient
	state   string
	lease   string
	running int
	misses  int
	stop    context.CancelFunc // ends the monitor goroutine
}

// event kinds flowing into the control loop.
type evKind int

const (
	evHeartbeat evKind = iota
	evSubmitted
	evAttemptDone
	evAttemptFailed
)

type event struct {
	kind    evKind
	worker  *workerState
	attempt *attempt
	ready   readiness
	jobID   string // evSubmitted
	dir     string // evAttemptDone: fetched dataset dir
	err     error
}

// Coordinator runs one distributed study.
type Coordinator struct {
	opts Options
	tel  *telemetry.Registry
	// retry is the one retry policy for worker-API calls and shard
	// fetches, built from opts.
	retry dataset.FetchOptions

	events chan event

	// Loop-owned state.
	jobs    []*subJob
	workers map[string]*workerState
	nextW   int
	durs    []time.Duration // completed-job durations, for adaptive speculation
}

// New builds a coordinator. Call Run exactly once.
func New(opts Options) *Coordinator {
	o := opts.withDefaults()
	return &Coordinator{
		opts: o,
		tel:  o.Telemetry,
		retry: dataset.FetchOptions{
			Client:    &http.Client{},
			RetryBase: o.RetryBase,
			RetryCap:  o.RetryCap,
			Seed:      o.Config.FaultSeed,
			Telemetry: o.Telemetry,
		}.WithDefaults(),
		events:  make(chan event, 64),
		workers: make(map[string]*workerState),
	}
}

// Telemetry exposes the coordinator's registry (coord.* counters).
func (c *Coordinator) Telemetry() *telemetry.Registry { return c.tel }

// splitDevices resolves the study's device list (canonical registry
// order, restricted by cfg.Devices when set) and cuts it into n
// contiguous, near-equal subsets.
func splitDevices(cfg core.Config, n int) ([][]string, error) {
	s, err := core.NewStudyFromConfig(core.Config{
		Devices: cfg.Devices, NoTrace: true,
		FaultSeed: cfg.FaultSeed, FaultProfile: cfg.FaultProfile,
		FleetN: cfg.FleetN, FleetSeed: cfg.FleetSeed,
	})
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, d := range s.Registry.Devices {
		ids = append(ids, d.ID)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("coord: study has no devices")
	}
	if n > len(ids) {
		n = len(ids)
	}
	subsets := make([][]string, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*len(ids)/n, (i+1)*len(ids)/n
		subsets = append(subsets, ids[lo:hi])
	}
	return subsets, nil
}

// windowString renders the config's window back into the API's
// "FROM..TO" form ("" when unbounded).
func windowString(cfg core.Config) string {
	var zero = core.Config{}.WindowFrom
	if cfg.WindowFrom == zero && cfg.WindowTo == zero {
		return ""
	}
	from, to := "", ""
	if cfg.WindowFrom != zero {
		from = cfg.WindowFrom.String()
	}
	if cfg.WindowTo != zero {
		to = cfg.WindowTo.String()
	}
	return from + ".." + to
}

// Run executes the coordinated study to completion: split, dispatch,
// survive, collect, merge, render. It returns a partial Result (with
// Partial set) when some subsets were lost but at least one completed;
// it returns an error when nothing completed or the merge/render
// failed.
func (c *Coordinator) Run(ctx context.Context) (*Result, error) {
	if len(c.opts.Workers) == 0 {
		return nil, fmt.Errorf("coord: no workers")
	}
	subsets, err := splitDevices(c.opts.Config, c.opts.Jobs)
	if err != nil {
		return nil, err
	}
	for i, devs := range subsets {
		c.jobs = append(c.jobs, &subJob{
			index: i, devices: devs, state: jobPending,
			excluded: make(map[string]bool),
		})
	}
	workDir := filepath.Join(c.opts.OutDir, "work")
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, fmt.Errorf("coord: work dir: %w", err)
	}

	loopCtx, stopAll := context.WithCancel(ctx)
	defer stopAll()
	for _, url := range c.opts.Workers {
		c.admitWorker(loopCtx, url)
	}
	c.opts.Logf("coordinating %d jobs (%d devices) across %d workers",
		len(c.jobs), totalDevices(subsets), len(c.workers))

	tick := time.NewTicker(c.opts.HeartbeatInterval)
	defer tick.Stop()
	for {
		c.dispatch(loopCtx, workDir)
		done, lost, running := c.progress()
		if done+lost == len(c.jobs) && running == 0 {
			break
		}
		select {
		case ev := <-c.events:
			c.handle(ev)
		case <-tick.C:
			c.checkStragglers(loopCtx, workDir)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	// Wind the fleet down before touching the results: monitors stop,
	// leases release, so workers don't reap anything mid-merge.
	stopAll()
	for _, w := range c.workers {
		if w.lease != "" {
			relCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			w.client.releaseLease(relCtx, w.lease)
			cancel()
		}
	}

	res, err := c.collect(workDir)
	if err != nil {
		return nil, err
	}
	if !c.opts.KeepWork && !res.Partial {
		os.RemoveAll(workDir)
	}
	return res, nil
}

func totalDevices(subsets [][]string) int {
	n := 0
	for _, s := range subsets {
		n += len(s)
	}
	return n
}

// admitWorker creates the worker state and starts its monitor.
func (c *Coordinator) admitWorker(ctx context.Context, url string) {
	name := fmt.Sprintf("w%d", c.nextW)
	c.nextW++
	wc := &workerClient{
		name:  name,
		base:  strings.TrimRight(url, "/"),
		retry: c.retry,
		tel:   c.tel,
	}
	mctx, stop := context.WithCancel(ctx)
	w := &workerState{name: name, client: wc, state: workerReady, stop: stop}
	c.workers[w.name] = w
	c.tel.Counter("coord.workers.joined").Inc()

	// The lease is best-effort at admission: a worker that cannot grant
	// one yet is still probed, and the first successful heartbeat
	// registers it.
	leaseCtx, cancel := context.WithTimeout(ctx, c.opts.probeTimeout())
	if id, err := wc.grantLease(leaseCtx, "coordinator"); err == nil {
		w.lease = id
	}
	cancel()
	go c.monitor(mctx, w)
}

// monitor probes one worker's readiness on the heartbeat interval and
// keeps its lease renewed, reporting every probe to the control loop.
func (c *Coordinator) monitor(ctx context.Context, w *workerState) {
	t := time.NewTicker(c.opts.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		probeCtx, cancel := context.WithTimeout(ctx, c.opts.probeTimeout())
		rd := w.client.ready(probeCtx)
		if rd.OK && w.lease != "" {
			if !w.client.renewLease(probeCtx, w.lease) {
				// The worker expired our lease (and reaped our jobs):
				// re-register so future submissions are protected again.
				if id, err := w.client.grantLease(probeCtx, "coordinator"); err == nil {
					w.lease = id
				}
			}
		}
		cancel()
		select {
		case c.events <- event{kind: evHeartbeat, worker: w, ready: rd}:
		case <-ctx.Done():
			return
		}
	}
}

// dispatch assigns every pending job an eligible worker, and declares
// jobs lost once no worker could ever take them.
func (c *Coordinator) dispatch(ctx context.Context, workDir string) {
	for _, j := range c.jobs {
		if j.state != jobPending {
			continue
		}
		w := c.pickWorker(j)
		if w == nil {
			if len(j.attempts) == 0 && !c.anyHope(j) {
				j.state = jobLost
				c.tel.Counter("coord.jobs.lost").Inc()
				c.opts.Logf("job %d lost: %d devices exhausted every worker", j.index, len(j.devices))
			}
			continue
		}
		c.startAttempt(ctx, j, w, false, workDir)
	}
}

// pickWorker returns the least-loaded ready worker with a free slot
// that hasn't failed this job (ties break by name, for determinism).
func (c *Coordinator) pickWorker(j *subJob) *workerState {
	var names []string
	for name := range c.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	var best *workerState
	for _, name := range names {
		w := c.workers[name]
		if w.state != workerReady || j.excluded[w.name] || w.running > 0 {
			continue
		}
		for _, at := range j.attempts {
			if at.worker == w {
				w = nil
				break
			}
		}
		if w == nil {
			continue
		}
		if best == nil {
			best = w
		}
	}
	return best
}

// anyHope reports whether some current worker could still run the job:
// a non-excluded worker that is ready or draining (its in-flight work
// may free it). Lost workers offer none.
func (c *Coordinator) anyHope(j *subJob) bool {
	for _, w := range c.workers {
		if j.excluded[w.name] {
			continue
		}
		if w.state == workerReady || w.state == workerDraining {
			return true
		}
	}
	return false
}

// startAttempt launches one execution of a job on a worker.
func (c *Coordinator) startAttempt(ctx context.Context, j *subJob, w *workerState, speculative bool, workDir string) {
	actx, cancel := context.WithCancel(ctx)
	at := &attempt{job: j, worker: w, speculative: speculative, started: time.Now(), cancel: cancel}
	j.attempts = append(j.attempts, at)
	j.state = jobRunning
	w.running++
	c.tel.Counter("coord.jobs.dispatched").Inc()
	if speculative {
		c.tel.Counter("coord.speculative.launched").Inc()
		c.opts.Logf("speculating job %d on %s", j.index, w.name)
	}
	spec := serve.JobSpec{
		Kind:         serve.KindStudy,
		Weight:       c.opts.JobWeight,
		FaultSeed:    c.opts.Config.FaultSeed,
		FaultProfile: c.opts.Config.FaultProfile,
		Window:       windowString(c.opts.Config),
		Devices:      j.devices,
		NoTrace:      true,
		FleetN:       c.opts.Config.FleetN,
		FleetSeed:    c.opts.Config.FleetSeed,
		Lease:        w.lease,
	}
	dest := filepath.Join(workDir, fmt.Sprintf("job-%03d-%s", j.index, w.name))
	go c.runAttempt(actx, at, spec, dest)
}

// runAttempt is the per-attempt goroutine: submit, await, fetch. It
// reports back to the loop exclusively via events.
func (c *Coordinator) runAttempt(ctx context.Context, at *attempt, spec serve.JobSpec, dest string) {
	fail := func(err error) {
		select {
		case c.events <- event{kind: evAttemptFailed, attempt: at, err: err}:
		case <-time.After(time.Minute):
		}
	}
	st, err := at.worker.client.submit(ctx, spec)
	if err != nil {
		fail(fmt.Errorf("submit: %w", err))
		return
	}
	select {
	case c.events <- event{kind: evSubmitted, attempt: at, jobID: st.ID}:
	case <-ctx.Done():
	}
	st, err = at.worker.client.waitTerminal(ctx, st.ID, c.opts.PollInterval)
	if err != nil {
		fail(fmt.Errorf("await %s: %w", st.ID, err))
		return
	}
	if st.State != serve.StateDone {
		fail(fmt.Errorf("remote job %s ended %s: %s", st.ID, st.State, st.Error))
		return
	}
	os.RemoveAll(dest)
	_, err = dataset.Fetch(at.worker.client.base+"/jobs/"+st.ID+"/dataset", dest, c.retry)
	if err != nil {
		fail(fmt.Errorf("fetch: %w", err))
		return
	}
	select {
	case c.events <- event{kind: evAttemptDone, attempt: at, dir: dest}:
	case <-time.After(time.Minute):
	}
}

// dropAttempt removes at from its job's active list and frees its
// worker slot.
func dropAttempt(at *attempt) {
	j := at.job
	for i, a := range j.attempts {
		if a == at {
			j.attempts = append(j.attempts[:i], j.attempts[i+1:]...)
			break
		}
	}
	at.worker.running--
}

// handle applies one event to the loop state.
func (c *Coordinator) handle(ev event) {
	switch ev.kind {
	case evHeartbeat:
		c.handleHeartbeat(ev)
	case evSubmitted:
		ev.attempt.jobID = ev.jobID
	case evAttemptDone:
		at := ev.attempt
		dropAttempt(at)
		j := at.job
		if j.state == jobDone {
			// A sibling already won; this result is redundant. The merge
			// would reject its duplicate provenance anyway — discard it
			// before it gets near the input list.
			os.RemoveAll(ev.dir)
			return
		}
		j.state = jobDone
		j.result = ev.dir
		j.winner = at.worker.name
		c.durs = append(c.durs, time.Since(at.started))
		c.tel.Counter("coord.jobs.completed").Inc()
		if at.speculative {
			c.tel.Counter("coord.speculative.won").Inc()
		}
		c.opts.Logf("job %d done on %s (%d/%d)", j.index, at.worker.name, c.completedCount(), len(c.jobs))
		// First-complete-wins: cancel the losers.
		for _, loser := range append([]*attempt(nil), j.attempts...) {
			c.cancelAttempt(loser, "lost speculation race")
		}
	case evAttemptFailed:
		at := ev.attempt
		dropAttempt(at)
		j := at.job
		if j.state == jobDone {
			return
		}
		j.excluded[at.worker.name] = true
		if len(j.attempts) == 0 {
			j.state = jobPending
			c.tel.Counter("coord.jobs.requeued").Inc()
		}
		c.opts.Logf("job %d attempt on %s failed: %v", j.index, at.worker.name, ev.err)
	}
}

// handleHeartbeat folds one probe result into the worker's health.
func (c *Coordinator) handleHeartbeat(ev event) {
	w := ev.worker
	if !ev.ready.OK {
		w.misses++
		c.tel.Counter("coord.heartbeat.misses").Inc()
		if w.misses >= heartbeatMisses && w.state != workerLost {
			w.state = workerLost
			c.tel.Counter("coord.workers.lost").Inc()
			c.opts.Logf("worker %s lost (%d consecutive missed heartbeats)", w.name, w.misses)
			// Its in-flight attempts can't finish; fail them proactively
			// instead of waiting for their HTTP calls to exhaust retries.
			for _, j := range c.jobs {
				for _, at := range append([]*attempt(nil), j.attempts...) {
					if at.worker == w {
						at.cancel()
					}
				}
			}
		}
		return
	}
	w.misses = 0
	switch {
	case ev.ready.Draining && w.state == workerReady:
		w.state = workerDraining
		c.opts.Logf("worker %s draining (queue %d)", w.name, ev.ready.Queued)
	case !ev.ready.Draining && w.state == workerDraining:
		w.state = workerReady
	case w.state == workerLost:
		// Back from the dead (a partition healed). Its old jobs were
		// already requeued; it may take new ones — including jobs whose
		// failures on it were really its death, so clear its exclusions.
		w.state = workerReady
		c.tel.Counter("coord.workers.rejoined").Inc()
		for _, j := range c.jobs {
			if j.state == jobPending || j.state == jobRunning {
				delete(j.excluded, w.name)
			}
		}
		c.opts.Logf("worker %s rejoined", w.name)
	}
}

// cancelAttempt stops an attempt locally and best-effort cancels the
// remote job so the worker's budget frees up.
func (c *Coordinator) cancelAttempt(at *attempt, reason string) {
	at.cancel()
	if at.jobID != "" && at.worker.state != workerLost {
		go func(wc *workerClient, id string) {
			cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			wc.cancel(cctx, id, reason)
		}(at.worker.client, at.jobID)
	}
}

// completedCount counts done jobs.
func (c *Coordinator) completedCount() int {
	n := 0
	for _, j := range c.jobs {
		if j.state == jobDone {
			n++
		}
	}
	return n
}

// progress summarises the job table.
func (c *Coordinator) progress() (done, lost, running int) {
	for _, j := range c.jobs {
		switch j.state {
		case jobDone:
			done++
		case jobLost:
			lost++
		}
		running += len(j.attempts)
	}
	return
}

// minSpeculationThreshold floors the adaptive straggler threshold.
// Without it, a fleet of near-instant jobs gives 3× the median a
// (sub-)millisecond value, every sole attempt immediately qualifies as
// a straggler, and the coordinator doubles cluster load speculating
// against perfectly healthy workers.
const minSpeculationThreshold = 250 * time.Millisecond

// speculationThreshold is how long a sole attempt may run before a
// backup is launched: the explicit option, or 3× the median completed
// duration once there is one, floored at minSpeculationThreshold.
func (c *Coordinator) speculationThreshold() (time.Duration, bool) {
	if c.opts.SpeculateAfter > 0 {
		return c.opts.SpeculateAfter, true
	}
	if len(c.durs) == 0 {
		return 0, false
	}
	durs := append([]time.Duration(nil), c.durs...)
	sort.Slice(durs, func(i, k int) bool { return durs[i] < durs[k] })
	if t := 3 * durs[len(durs)/2]; t > minSpeculationThreshold {
		return t, true
	}
	return minSpeculationThreshold, true
}

// checkStragglers launches speculative backups for jobs whose sole
// attempt has outlived the straggler threshold while an eligible
// worker sits idle.
func (c *Coordinator) checkStragglers(ctx context.Context, workDir string) {
	threshold, ok := c.speculationThreshold()
	if !ok {
		return
	}
	for _, j := range c.jobs {
		if j.state != jobRunning || len(j.attempts) != 1 {
			continue
		}
		at := j.attempts[0]
		if time.Since(at.started) < threshold {
			continue
		}
		if w := c.pickWorker(j); w != nil && w != at.worker {
			c.startAttempt(ctx, j, w, true, workDir)
		}
	}
}

// collect merges the completed subset datasets and renders artifacts.
func (c *Coordinator) collect(workDir string) (*Result, error) {
	res := &Result{
		DatasetDir:   filepath.Join(c.opts.OutDir, "dataset"),
		ArtifactDir:  filepath.Join(c.opts.OutDir, "artifacts"),
		JobsByWorker: make(map[string]int),
	}
	var inDirs []string
	for _, j := range c.jobs {
		switch j.state {
		case jobDone:
			inDirs = append(inDirs, j.result)
			res.Completed++
			res.JobsByWorker[j.winner]++
		case jobLost:
			res.Partial = true
			res.Lost = append(res.Lost, j.devices)
		}
	}
	if len(inDirs) == 0 {
		return nil, fmt.Errorf("coord: every device subset was lost; nothing to merge")
	}
	if res.Partial {
		c.tel.Counter("coord.runs.partial").Inc()
		c.opts.Logf("PARTIAL: %d of %d subsets lost", len(res.Lost), len(c.jobs))
	}
	if err := dataset.Merge(res.DatasetDir, inDirs, dataset.Options{Gzip: c.opts.Gzip, Telemetry: c.tel}); err != nil {
		return nil, fmt.Errorf("coord: merge: %w", err)
	}
	ds, err := dataset.Read(res.DatasetDir, c.tel)
	if err != nil {
		return nil, fmt.Errorf("coord: read merged: %w", err)
	}
	scaffold, rep, err := dataset.Analyze(ds)
	if err != nil {
		return nil, fmt.Errorf("coord: restore merged: %w", err)
	}
	if _, err := report.Write(res.ArtifactDir, scaffold, rep); err != nil {
		return nil, fmt.Errorf("coord: render: %w", err)
	}
	res.Degraded = rep.Degraded()
	return res, nil
}
