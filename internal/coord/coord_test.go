package coord

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// testConfig builds the study spec coordinated tests run: a clean
// (fault-free) study over the given passive window and the full
// testbed.
func testConfig(t *testing.T, window string) core.Config {
	t.Helper()
	from, to, err := core.ParseWindow(window)
	if err != nil {
		t.Fatal(err)
	}
	return core.Config{WindowFrom: from, WindowTo: to, Parallelism: 8}
}

// localBaseline runs the same spec single-node and returns the
// canonicalized dataset dir and the rendered artifact dir — the bytes
// a coordinated run must reproduce exactly. Canonicalized means passed
// through a self-merge: Merge sorts records into their canonical byte
// order, which is the order any merged run produces. The baseline runs
// trace-free like coordinated worker jobs do (per-process span trees
// are the one artifact that cannot survive distribution).
func localBaseline(t *testing.T, cfg core.Config) (dsDir, artDir string) {
	t.Helper()
	base := t.TempDir()
	cfg.NoTrace = true
	s, err := core.NewStudyFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	raw := filepath.Join(base, "raw")
	if err := dataset.Write(raw, dataset.FromStudy(s, rep), dataset.Options{}); err != nil {
		t.Fatal(err)
	}
	dsDir = filepath.Join(base, "dataset")
	if err := dataset.Merge(dsDir, []string{raw}, dataset.Options{}); err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Read(dsDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	scaffold, rep2, err := dataset.Analyze(ds)
	if err != nil {
		t.Fatal(err)
	}
	artDir = filepath.Join(base, "artifacts")
	if _, err := report.Write(artDir, scaffold, rep2); err != nil {
		t.Fatal(err)
	}
	return dsDir, artDir
}

// dirBytes reads every regular file under dir, keyed by relative path.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out[rel] = string(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// assertSameBytes diffs two directory trees byte for byte, ignoring
// the named files (manifest.json carries per-run provenance — N runs
// on a coordinated capture vs one locally — and is the documented
// exception to byte-identity).
func assertSameBytes(t *testing.T, label, gotDir, wantDir string, ignore ...string) {
	t.Helper()
	skip := make(map[string]bool, len(ignore))
	for _, name := range ignore {
		skip[name] = true
	}
	got, want := dirBytes(t, gotDir), dirBytes(t, wantDir)
	for rel, w := range want {
		if skip[rel] {
			continue
		}
		g, ok := got[rel]
		if !ok {
			t.Errorf("%s: %s missing from coordinated output", label, rel)
			continue
		}
		if g != w {
			t.Errorf("%s: %s differs (%d vs %d bytes)", label, rel, len(g), len(w))
		}
	}
	for rel := range got {
		if !skip[rel] {
			if _, ok := want[rel]; !ok {
				t.Errorf("%s: coordinated output has extra file %s", label, rel)
			}
		}
	}
}

// counter reads one counter from a registry snapshot.
func counter(tel *telemetry.Registry, name string) int64 {
	return tel.Snapshot().Counters[name]
}

// fastOptions are the latency knobs tests tighten so death detection
// and speculation land in test time, not production time.
func fastOptions(cfg core.Config, workers []string, outDir string) Options {
	return Options{
		Workers:           workers,
		Config:            cfg,
		OutDir:            outDir,
		HeartbeatInterval: 100 * time.Millisecond,
		PollInterval:      50 * time.Millisecond,
		RetryBase:         20 * time.Millisecond,
		RetryCap:          200 * time.Millisecond,
	}
}

// TestCoordinateMatchesLocal is the headline acceptance pin: a
// three-worker coordinated study whose third worker is killed by a
// deterministic fabric fault plan mid-collection still produces a
// merged dataset and rendered artifacts byte-identical to the
// single-node run. The kill plan (Kill 1.0, MaxKills 1) fires on the
// worker's first served dataset file, so the death lands at the
// nastiest point: mid-fetch, after the job completed remotely.
func TestCoordinateMatchesLocal(t *testing.T) {
	cfg := testConfig(t, "2018-01..2018-02")
	wantDS, wantArt := localBaseline(t, cfg)

	plan := fault.NewFabricPlan(7, fault.FabricProfile{Name: "kill-w2", Kill: 1.0, MaxKills: 1})
	var killed *ChaosProxy
	fleet, err := SpawnLocalWorkers(3, LocalOptions{
		WorkDir: t.TempDir(),
		Handler: func(i int, h http.Handler) http.Handler {
			if i != 2 {
				return h
			}
			killed = NewChaosProxy("w2", plan, h)
			return killed
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer CloseLocalWorkers(fleet)

	outDir := t.TempDir()
	opts := fastOptions(cfg, URLs(fleet), outDir)
	opts.Jobs = 6
	c := New(opts)
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Partial {
		t.Fatalf("run reported PARTIAL (lost %d subsets) with two healthy workers", len(res.Lost))
	}
	if res.Completed != 6 {
		t.Fatalf("completed %d jobs, want 6", res.Completed)
	}
	if !killed.Dead() {
		t.Fatal("fault plan never killed worker w2")
	}
	if got := counter(c.Telemetry(), "coord.workers.lost"); got < 1 {
		t.Fatalf("coord.workers.lost = %d, want >= 1", got)
	}
	if got := counter(c.Telemetry(), "coord.jobs.requeued"); got < 1 {
		t.Fatalf("coord.jobs.requeued = %d, want >= 1", got)
	}
	assertSameBytes(t, "dataset", res.DatasetDir, wantDS, dataset.ManifestName)
	assertSameBytes(t, "artifacts", res.ArtifactDir, wantArt)
}

// TestCoordinateMatchesLocalFleet is the synthetic-fleet case of the
// pin above: a coordinated fleet study renders artifacts byte-identical
// to a single-node capture plus analyze, because the merged dataset
// names its fleet and the coordinator restores onto it rather than
// onto the catalog.
func TestCoordinateMatchesLocalFleet(t *testing.T) {
	cfg := testConfig(t, "2018-01..2018-01")
	cfg.FleetN, cfg.FleetSeed = 24, 7
	wantDS, wantArt := localBaseline(t, cfg)

	workers, err := SpawnLocalWorkers(2, LocalOptions{WorkDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer CloseLocalWorkers(workers)
	opts := fastOptions(cfg, URLs(workers), t.TempDir())
	opts.Jobs = 2
	res, err := New(opts).Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Partial || res.Completed != 2 {
		t.Fatalf("completed %d jobs (partial %v), want 2", res.Completed, res.Partial)
	}
	assertSameBytes(t, "dataset", res.DatasetDir, wantDS, dataset.ManifestName)
	assertSameBytes(t, "artifacts", res.ArtifactDir, wantArt)
}

// TestCoordSpeculationWins pins straggler re-execution: a worker stuck
// mid-study is outrun by a speculative attempt on an idle worker, the
// speculative result wins, and the straggler's job is cancelled rather
// than merged twice.
func TestCoordSpeculationWins(t *testing.T) {
	cfg := testConfig(t, "2018-01..2018-01")

	// Stall every study on worker 1 at each phase boundary until the test
	// releases it.
	release := make(chan struct{})
	var stalled sync.Once
	hit := make(chan struct{})
	fleet, err := SpawnLocalWorkers(2, LocalOptions{
		WorkDir: t.TempDir(),
		PhaseHook: func(i int, id, phase string) {
			if i != 1 {
				return
			}
			stalled.Do(func() { close(hit) })
			<-release
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cleanup runs LIFO: unstall the straggler and wait for its jobs to
	// reach a terminal state, then close the fleet, then (registered
	// first of all) remove the temp dirs — nothing writes into a
	// directory being torn down.
	t.Cleanup(func() { CloseLocalWorkers(fleet) })
	t.Cleanup(func() {
		close(release)
		for _, j := range fleet[1].Manager.Jobs() {
			<-j.Done()
		}
	})

	outDir := t.TempDir()
	opts := fastOptions(cfg, URLs(fleet), outDir)
	opts.Jobs = 2
	opts.SpeculateAfter = 300 * time.Millisecond
	c := New(opts)
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	select {
	case <-hit:
	default:
		t.Fatal("worker 1 never entered a study (nothing stalled)")
	}
	if res.Partial || res.Completed != 2 {
		t.Fatalf("partial=%v completed=%d, want clean 2", res.Partial, res.Completed)
	}
	if got := counter(c.Telemetry(), "coord.speculative.launched"); got < 1 {
		t.Fatalf("coord.speculative.launched = %d, want >= 1", got)
	}
	if got := counter(c.Telemetry(), "coord.speculative.won"); got < 1 {
		t.Fatalf("coord.speculative.won = %d, want >= 1", got)
	}
	// Every completed job was won by the healthy worker.
	if got := res.JobsByWorker["w0"]; got != 2 {
		t.Fatalf("w0 won %d jobs, want 2 (stalled w1 must win none)", got)
	}
}

// TestCoordWorkerRejoins pins the heartbeat rejoin path: a worker
// whose /readyz fails until the coordinator declares it lost, and
// which answers normally from then on, returns to ready, gets its
// exclusions cleared, and completes the job it was excluded from,
// while the other worker holds its own job until the rejoin. Every
// wait polls a coordinator counter; nothing depends on a sleep's
// length.
func TestCoordWorkerRejoins(t *testing.T) {
	cfg := testConfig(t, "2018-01..2018-01")
	tel := telemetry.New(nil)
	// waitFor blocks until the named coordinator counter reaches 1, or
	// the test is over.
	over := make(chan struct{})
	waitFor := func(name string) {
		for counter(tel, name) < 1 {
			select {
			case <-over:
				return
			case <-time.After(10 * time.Millisecond):
			}
		}
	}
	// cancels carries the job IDs worker 0 is asked to cancel.
	cancels := make(chan string, 8)
	fleet, err := SpawnLocalWorkers(2, LocalOptions{
		WorkDir: t.TempDir(),
		// Worker 0 fails its readiness probes until it is lost.
		Handler: func(i int, h http.Handler) http.Handler {
			if i != 0 {
				return h
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/readyz" && counter(tel, "coord.workers.lost") < 1 {
					http.Error(w, "held down", http.StatusInternalServerError)
					return
				}
				if id, ok := strings.CutSuffix(strings.TrimPrefix(r.URL.Path, "/jobs/"), "/cancel"); ok && r.Method == http.MethodPost {
					select {
					case cancels <- id:
					default:
					}
				}
				h.ServeHTTP(w, r)
			})
		},
		// Worker 0's first job cannot finish before the worker is lost,
		// and worker 1 stays busy until worker 0 has rejoined, so the
		// excluded job can only complete on the rejoined worker.
		PhaseHook: func(i int, id, phase string) {
			if i == 0 {
				waitFor("coord.workers.lost")
			} else {
				waitFor("coord.workers.rejoined")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { CloseLocalWorkers(fleet) })
	t.Cleanup(func() {
		close(over)
		for _, w := range fleet {
			for _, j := range w.Manager.Jobs() {
				<-j.Done()
			}
		}
	})

	opts := fastOptions(cfg, URLs(fleet), t.TempDir())
	opts.Jobs = 2
	opts.Telemetry = tel
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := New(opts).Run(ctx)
	if err != nil {
		t.Fatalf("Run: %v (coord.workers.lost=%d, coord.workers.rejoined=%d)", err,
			counter(tel, "coord.workers.lost"), counter(tel, "coord.workers.rejoined"))
	}
	if got := counter(tel, "coord.workers.rejoined"); got != 1 {
		t.Fatalf("coord.workers.rejoined = %d, want 1", got)
	}
	if got := res.JobsByWorker["w0"]; got < 1 {
		t.Fatalf("rejoined w0 completed %d jobs, want >= 1 (by worker: %v)", got, res.JobsByWorker)
	}
	if res.Partial || res.Completed != 2 {
		t.Fatalf("partial=%v completed=%d, want clean 2", res.Partial, res.Completed)
	}
	// The job worker 0 was running when it was lost was requeued, so
	// the coordinator cancels it on the worker once it is back.
	abandoned := fleet[0].Manager.Jobs()[0].ID
	deadline := time.After(time.Minute)
	for {
		select {
		case id := <-cancels:
			if id == abandoned {
				return
			}
		case <-deadline:
			t.Fatalf("rejoined w0 never received a cancel for its abandoned job %s", abandoned)
		}
	}
}

// TestNoSpeculationStormOnInstantJobs pins the adaptive straggler
// threshold's floor: with a fleet of near-instant jobs, 3× the median
// completed duration is (sub-)milliseconds, and without the floor
// every healthy in-flight attempt instantly qualified as a straggler —
// a speculation storm doubling cluster load for zero wins.
func TestNoSpeculationStormOnInstantJobs(t *testing.T) {
	c := New(Options{Workers: []string{"http://unused"}})
	// Every completed subset finished in microseconds.
	c.durs = []time.Duration{120 * time.Microsecond, 250 * time.Microsecond, 400 * time.Microsecond}

	th, ok := c.speculationThreshold()
	if !ok {
		t.Fatal("no adaptive threshold despite completed durations")
	}
	if th < minSpeculationThreshold {
		t.Fatalf("adaptive threshold %v is below the %v floor", th, minSpeculationThreshold)
	}

	// A healthy attempt a few milliseconds in, with an idle second
	// worker eager to take a backup: no speculation may launch.
	busy := &workerState{name: "w0", state: workerReady, running: 1}
	idle := &workerState{name: "w1", state: workerReady}
	c.workers = map[string]*workerState{"w0": busy, "w1": idle}
	j := &subJob{index: 0, state: jobRunning, excluded: map[string]bool{}}
	j.attempts = []*attempt{{job: j, worker: busy, started: time.Now().Add(-50 * time.Millisecond)}}
	c.jobs = []*subJob{j}

	c.checkStragglers(context.Background(), t.TempDir())
	if got := counter(c.Telemetry(), "coord.speculative.launched"); got != 0 {
		t.Fatalf("coord.speculative.launched = %d, want 0: instant jobs must not trigger speculation", got)
	}
}

// TestCoordDrainingWorkerGetsNoWork pins the draining branch of the
// heartbeat: a worker whose /readyz answers 503 "draining" is marked
// draining and offered no job, and once /readyz answers 200 again it
// is ready and takes the next one.
func TestCoordDrainingWorkerGetsNoWork(t *testing.T) {
	var draining atomic.Bool
	draining.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"status":"draining","queued":1}`)
			return
		}
		fmt.Fprint(w, `{"status":"ready","queued":0}`)
	}))
	defer srv.Close()

	c := New(Options{Workers: []string{srv.URL}})
	w := &workerState{name: "w0", state: workerReady,
		client: &workerClient{name: "w0", base: srv.URL, retry: c.retry, tel: c.tel}}
	c.workers = map[string]*workerState{"w0": w}
	j := &subJob{index: 0, state: jobPending, excluded: map[string]bool{}}
	c.jobs = []*subJob{j}
	probe := func() {
		c.handleHeartbeat(event{kind: evHeartbeat, worker: w, ready: w.client.ready(context.Background())})
	}
	// The dispatched attempt's submit fails at once on the cancelled
	// context, so no request reaches the fake worker.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	probe()
	if w.state != workerDraining {
		t.Fatalf("after a 503 draining probe the worker is %q, want %q", w.state, workerDraining)
	}
	c.dispatch(ctx, t.TempDir())
	if j.state != jobPending || w.running != 0 {
		t.Fatalf("draining worker was given work: job %s, running %d", j.state, w.running)
	}

	draining.Store(false)
	probe()
	if w.state != workerReady {
		t.Fatalf("after a 200 probe the worker is %q, want %q", w.state, workerReady)
	}
	c.dispatch(ctx, t.TempDir())
	if j.state != jobRunning || w.running != 1 || len(j.attempts) != 1 {
		t.Fatalf("ready worker took no job: job %s, running %d, attempts %d", j.state, w.running, len(j.attempts))
	}
	if ev := <-c.events; ev.kind != evAttemptFailed || ev.attempt != j.attempts[0] {
		t.Fatalf("attempt reported %+v, want its cancelled submit", ev)
	}
}

// TestCoordSubmitRetriesTransientStatus pins the worker client's retry
// on a transient status: a POST /jobs answered 503 once and then 202
// submits the job, counting one coord.http.retries.
func TestCoordSubmitRetriesTransientStatus(t *testing.T) {
	var posts atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/jobs" {
			http.NotFound(w, r)
			return
		}
		if posts.Add(1) == 1 {
			http.Error(w, "briefly unavailable", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"job-000001","kind":"study","state":"queued"}`)
	}))
	defer srv.Close()

	c := New(Options{Workers: []string{srv.URL}, RetryBase: time.Millisecond, RetryCap: time.Millisecond})
	wc := &workerClient{name: "w0", base: srv.URL, retry: c.retry, tel: c.tel}
	st, err := wc.submit(context.Background(), serve.JobSpec{Kind: serve.KindStudy})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st.ID != "job-000001" {
		t.Fatalf("submitted job ID %q, want job-000001", st.ID)
	}
	if got := posts.Load(); got != 2 {
		t.Fatalf("worker saw %d submits, want 2", got)
	}
	if got := counter(c.Telemetry(), "coord.http.retries"); got != 1 {
		t.Fatalf("coord.http.retries = %d, want 1", got)
	}
}

// TestCoordPartialOnExhaustion pins graceful degradation: when the
// only worker dies partway through, the coordinator merges what
// completed, marks the rest lost, and reports PARTIAL instead of
// failing — and the partial dataset is a valid, readable dataset.
func TestCoordPartialOnExhaustion(t *testing.T) {
	cfg := testConfig(t, "2018-01..2018-01")

	var proxy *ChaosProxy
	calm := fault.NewFabricPlan(1, fault.FabricProfiles["calm"])
	fleet, err := SpawnLocalWorkers(1, LocalOptions{
		WorkDir: t.TempDir(),
		Handler: func(i int, h http.Handler) http.Handler {
			proxy = NewChaosProxy("w0", calm, h)
			return proxy
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer CloseLocalWorkers(fleet)

	outDir := t.TempDir()
	opts := fastOptions(cfg, URLs(fleet), outDir)
	opts.Jobs = 2
	c := New(opts)

	// Kill the worker the moment the first subset lands.
	go func() {
		for counter(c.Telemetry(), "coord.jobs.completed") < 1 {
			time.Sleep(10 * time.Millisecond)
		}
		proxy.Kill()
	}()

	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Partial {
		t.Fatal("run did not report PARTIAL after its only worker died")
	}
	if res.Completed != 1 || len(res.Lost) != 1 {
		t.Fatalf("completed=%d lost=%d, want 1 and 1", res.Completed, len(res.Lost))
	}
	// Exhaustion is counted on the job, not the worker: with a single
	// worker the killed attempt leaves the subset no eligible worker, so
	// dispatch declares it lost, often before heartbeat probes could
	// declare the worker lost (coord.workers.lost, which
	// TestCoordinateMatchesLocal pins, stays the heartbeat verdict).
	if got := counter(c.Telemetry(), "coord.jobs.lost"); got != 1 {
		t.Fatalf("coord.jobs.lost = %d, want 1", got)
	}
	if got := counter(c.Telemetry(), "coord.runs.partial"); got != 1 {
		t.Fatalf("coord.runs.partial = %d, want 1", got)
	}
	// The partial dataset must still be a valid dataset.
	if _, err := dataset.Read(res.DatasetDir, nil); err != nil {
		t.Fatalf("partial dataset unreadable: %v", err)
	}
}
