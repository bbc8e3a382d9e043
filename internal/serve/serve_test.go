package serve

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/report"
	"repro/internal/telemetry"
)

// testWindow keeps service tests fast: a few simulated months still
// exercise every phase.
const testWindow = "2018-01..2018-02"

// newTestManager builds a manager over a temp data root.
func newTestManager(t *testing.T, budget, queueCap int) (*Manager, *telemetry.Registry) {
	t.Helper()
	proc := telemetry.New(nil)
	m, err := NewManager(t.TempDir(), budget, queueCap, proc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m, proc
}

// waitDone blocks until the job terminates.
func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(2 * time.Minute):
		t.Fatalf("job %s did not finish (state %s)", j.ID, j.State())
	}
}

// mustSubmit submits and fails the test on error.
func mustSubmit(t *testing.T, m *Manager, spec JobSpec) *Job {
	t.Helper()
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("Submit(%+v): %v", spec, err)
	}
	return j
}

// dirBytes reads every regular file under dir, keyed by relative path.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		out[rel] = string(raw)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// compareDirs asserts two directory trees are byte-identical.
func compareDirs(t *testing.T, label, wantDir, gotDir string) {
	t.Helper()
	want, got := dirBytes(t, wantDir), dirBytes(t, gotDir)
	if len(want) != len(got) {
		t.Errorf("%s: file count differs: want %d, got %d", label, len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: missing file %s", label, name)
			continue
		}
		if w != g {
			t.Errorf("%s: %s differs (%d vs %d bytes)", label, name, len(w), len(g))
		}
	}
}

// TestConcurrentJobsMatchSequential is the service's headline
// determinism contract: two study jobs with different seeds running
// concurrently under a shared budget produce datasets and artifacts
// byte-identical to the same specs run one at a time.
func TestConcurrentJobsMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e skipped in -short mode")
	}
	specs := []JobSpec{
		{Kind: KindStudy, Window: testWindow, Weight: 2},
		{Kind: KindStudy, Window: testWindow, Weight: 2, FaultSeed: 5, FaultProfile: "mild"},
	}

	conc, _ := newTestManager(t, 4, 0)
	var concJobs []*Job
	for _, spec := range specs {
		concJobs = append(concJobs, mustSubmit(t, conc, spec))
	}
	for _, j := range concJobs {
		waitDone(t, j)
		if j.State() != StateDone {
			t.Fatalf("concurrent job %s: state %s (err %q)", j.ID, j.State(), j.Err())
		}
	}

	seq, _ := newTestManager(t, 4, 0)
	var seqJobs []*Job
	for _, spec := range specs {
		j := mustSubmit(t, seq, spec)
		waitDone(t, j) // one at a time
		if j.State() != StateDone {
			t.Fatalf("sequential job %s: state %s (err %q)", j.ID, j.State(), j.Err())
		}
		seqJobs = append(seqJobs, j)
	}

	for i := range specs {
		compareDirs(t, fmt.Sprintf("job %d dataset", i), seqJobs[i].DatasetDir(), concJobs[i].DatasetDir())
		compareDirs(t, fmt.Sprintf("job %d artifacts", i), seqJobs[i].ArtifactDir(), concJobs[i].ArtifactDir())
	}
}

// TestPerJobTelemetryIsolation pins that each job's registry reflects
// only its own run, and the process registry carries only service
// metrics.
func TestPerJobTelemetryIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e skipped in -short mode")
	}
	m, proc := newTestManager(t, 4, 0)
	a := mustSubmit(t, m, JobSpec{Kind: KindStudy, Window: "2018-01..2018-02", Weight: 2})
	b := mustSubmit(t, m, JobSpec{Kind: KindStudy, Window: "2018-01..2018-01", Weight: 2})
	waitDone(t, a)
	waitDone(t, b)

	months := func(j *Job) int64 { return j.Registry().Snapshot().Counters["traffic.months"] }
	if got := months(a); got != 2 {
		t.Errorf("job A traffic.months = %d, want 2", got)
	}
	if got := months(b); got != 1 {
		t.Errorf("job B traffic.months = %d, want 1", got)
	}
	snap := proc.Snapshot()
	if got := snap.Counters["serve.jobs.submitted"]; got != 2 {
		t.Errorf("process serve.jobs.submitted = %d, want 2", got)
	}
	if _, leaked := snap.Counters["traffic.months"]; leaked {
		t.Error("study telemetry leaked into the process registry")
	}
}

// holdAtPhase installs a PhaseHook that blocks the first job reaching
// the named phase until release is closed, reporting entry on entered.
func holdAtPhase(m *Manager, phase string) (entered, release chan struct{}) {
	entered = make(chan struct{})
	release = make(chan struct{})
	var once sync.Once
	m.PhaseHook = func(id, p string) {
		if p == phase {
			once.Do(func() {
				close(entered)
				<-release
			})
		}
	}
	return entered, release
}

// checkDrainedPhases asserts the per-phase status of a study job
// drained while held after its passive phase: passive is done and every
// later phase reports skipped, neither pending forever nor done.
func checkDrainedPhases(t *testing.T, j *Job) {
	t.Helper()
	phases := j.StatusNow().Phases
	if len(phases) != len(runAllPhases) {
		t.Fatalf("drained job status has %d phases, want %d", len(phases), len(runAllPhases))
	}
	for _, p := range phases {
		want := "skipped"
		if p.Name == "passive" {
			want = "done"
		}
		if p.State != want {
			t.Errorf("drained job phase %s is %q, want %q", p.Name, p.State, want)
		}
	}
}

// TestDrainMidStudy pins the SIGTERM drain contract: a running study
// is interrupted at a phase boundary, its dataset persists, the
// passive shards are byte-identical to a clean capture of the same
// seed, analyze accepts the dataset, and the drain reports degraded.
func TestDrainMidStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e skipped in -short mode")
	}
	m, _ := newTestManager(t, 2, 0)
	entered, release := holdAtPhase(m, "passive")
	j := mustSubmit(t, m, JobSpec{Kind: KindStudy, Window: testWindow, Weight: 2})
	select {
	case <-entered:
	case <-time.After(2 * time.Minute):
		t.Fatal("job never reached the passive phase boundary")
	}

	drained := make(chan bool, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		drained <- m.Drain(ctx)
	}()
	// Release the held job only after the drain's interrupt has landed,
	// so the interruption point is deterministic: passive done,
	// everything after skipped.
	deadline := time.Now().Add(time.Minute)
	for {
		j.mu.Lock()
		interrupted := j.study != nil && j.study.Interrupted()
		j.mu.Unlock()
		if interrupted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drain never interrupted the running study")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(release)

	if !<-drained {
		t.Error("Drain returned false, want true (the drained job is degraded)")
	}
	waitDone(t, j)
	if j.State() != StateDone || !j.Degraded() {
		t.Fatalf("drained job: state %s degraded %v (err %q), want done+degraded", j.State(), j.Degraded(), j.Err())
	}
	checkDrainedPhases(t, j)

	// The persisted dataset restores — `iotls analyze` accepts it.
	ds, err := dataset.Read(j.DatasetDir(), nil)
	if err != nil {
		t.Fatalf("reading drained dataset: %v", err)
	}
	scaffold := core.NewStudy()
	rep, err := dataset.Restore(scaffold, ds)
	if err != nil {
		t.Fatalf("restoring drained dataset: %v", err)
	}
	if !rep.Degraded() {
		t.Error("restored drained report is not degraded")
	}
	if rep.Render(scaffold) == "" {
		t.Error("restored drained report renders empty")
	}

	// Passive shards are byte-identical to a clean capture of the same
	// seed and window: the drain cut after the passive phase, so the
	// months it captured are exactly a clean run's.
	clean, _ := newTestManager(t, 2, 0)
	cj := mustSubmit(t, clean, JobSpec{Kind: KindStudy, Window: testWindow, Weight: 2})
	waitDone(t, cj)
	want, got := dirBytes(t, cj.DatasetDir()), dirBytes(t, j.DatasetDir())
	shards := 0
	for name, w := range want {
		if filepath.Ext(name) != ".bin" || len(name) < 8 || name[:8] != "passive-" {
			continue
		}
		shards++
		if g, ok := got[name]; !ok {
			t.Errorf("drained dataset missing passive shard %s", name)
		} else if g != w {
			t.Errorf("passive shard %s differs between drained and clean capture", name)
		}
	}
	if shards == 0 {
		t.Fatal("clean capture produced no passive shards to compare")
	}
}

// TestDrainCancelsQueuedJobs pins that a drain cancels jobs still in
// the admission queue instead of running them.
func TestDrainCancelsQueuedJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e skipped in -short mode")
	}
	m, _ := newTestManager(t, 1, 0)
	entered, release := holdAtPhase(m, "passive")
	running := mustSubmit(t, m, JobSpec{Kind: KindStudy, Window: "2018-01..2018-01", Weight: 1})
	queued := mustSubmit(t, m, JobSpec{Kind: KindStudy, Window: "2018-01..2018-01", Weight: 1})
	<-entered

	drained := make(chan bool, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		drained <- m.Drain(ctx)
	}()
	// The queued job's cancellation needs no cooperation from the held
	// job; it reaches its terminal state while the runner is blocked.
	waitDone(t, queued)
	if queued.State() != StateCancelled {
		t.Errorf("queued job state = %s, want cancelled", queued.State())
	}
	close(release)
	<-drained
	waitDone(t, running)
	if running.State() != StateDone {
		t.Errorf("held job state = %s (err %q), want done", running.State(), running.Err())
	}
	checkDrainedPhases(t, running)
	if _, err := m.Submit(JobSpec{Kind: KindStudy, Window: "2018-01..2018-01"}); err == nil {
		t.Error("Submit after drain succeeded, want refusal")
	}
}

// TestFailedSealLeaksNoFiles pins that a study job whose dataset seal
// fails ends failed, leaves no manifest, and closes every shard file:
// the long-lived server must not leak a descriptor per failed job. A
// directory squatting on active.bin makes the seal fail even as root.
func TestFailedSealLeaksNoFiles(t *testing.T) {
	m, _ := newTestManager(t, 2, 0)
	dsDir := filepath.Join(m.root, "job-000001", "dataset")
	if err := os.MkdirAll(filepath.Join(dsDir, "active.bin"), 0o755); err != nil {
		t.Fatal(err)
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count open files: %v", err)
	}
	before := len(fds)

	j := mustSubmit(t, m, JobSpec{Kind: KindStudy, Window: "2018-01..2018-01", Weight: 2})
	if j.DatasetDir() != dsDir {
		t.Fatalf("job dataset dir %s, want %s", j.DatasetDir(), dsDir)
	}
	waitDone(t, j)
	if j.State() != StateFailed {
		t.Fatalf("job state %s (err %q), want %s", j.State(), j.Err(), StateFailed)
	}
	if _, err := os.Stat(filepath.Join(dsDir, dataset.ManifestName)); !os.IsNotExist(err) {
		t.Errorf("failed seal left a manifest (stat err %v)", err)
	}
	fds, err = os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	if after := len(fds); after > before {
		t.Errorf("open files grew from %d to %d across a failed study job: shard files leaked", before, after)
	}
}

// TestAnalyzeAndMergeJobs pins the non-study executors: a merge job
// unions two sharded captures referenced by job ID, and an analyze job
// renders artifacts from the merged dataset.
func TestAnalyzeAndMergeJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e skipped in -short mode")
	}
	m, _ := newTestManager(t, 4, 0)
	// Two disjoint device shards of the same clean configuration.
	s := core.NewStudy()
	var ids []string
	for _, d := range s.Registry.Devices {
		ids = append(ids, d.ID)
	}
	half := len(ids) / 2
	a := mustSubmit(t, m, JobSpec{Kind: KindStudy, Window: testWindow, Weight: 2, Devices: ids[:half]})
	b := mustSubmit(t, m, JobSpec{Kind: KindStudy, Window: testWindow, Weight: 2, Devices: ids[half:]})
	waitDone(t, a)
	waitDone(t, b)

	merge := mustSubmit(t, m, JobSpec{Kind: KindMerge, Inputs: []string{a.ID, b.ID}})
	waitDone(t, merge)
	if merge.State() != StateDone {
		t.Fatalf("merge job: state %s (err %q)", merge.State(), merge.Err())
	}
	an := mustSubmit(t, m, JobSpec{Kind: KindAnalyze, Inputs: []string{merge.ID}})
	waitDone(t, an)
	if an.State() != StateDone {
		t.Fatalf("analyze job: state %s (err %q)", an.State(), an.Err())
	}
	if _, err := os.Stat(filepath.Join(an.ArtifactDir(), "index.md")); err != nil {
		t.Errorf("analyze job wrote no index.md: %v", err)
	}

	// Merging the same input twice is the dataset layer's duplicate
	// rejection surfacing as a failed job, not a hung one.
	dup := mustSubmit(t, m, JobSpec{Kind: KindMerge, Inputs: []string{a.ID, a.ID}})
	waitDone(t, dup)
	if dup.State() != StateFailed {
		t.Errorf("duplicate-input merge job: state %s, want failed", dup.State())
	}
}

// TestAnalyzeAndMergeJobsFleet pins that serve jobs render a synthetic
// fleet onto its own devices: a fleet study job's artifacts, and an
// analyze job's artifacts over that job's dataset, both equal the live
// study's. The analyze job merges its input into its own dataset first.
func TestAnalyzeAndMergeJobsFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e skipped in -short mode")
	}
	const window = "2018-01..2018-01"
	from, to, err := core.ParseWindow(window)
	if err != nil {
		t.Fatal(err)
	}
	live, err := core.NewStudyFromConfig(core.Config{FleetN: 20, FleetSeed: 7, WindowFrom: from, WindowTo: to})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := live.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	want := t.TempDir()
	if _, err := report.Write(want, live, rep); err != nil {
		t.Fatal(err)
	}

	m, _ := newTestManager(t, 2, 0)
	study := mustSubmit(t, m, JobSpec{Kind: KindStudy, Window: window, Weight: 2, FleetN: 20, FleetSeed: 7})
	waitDone(t, study)
	an := mustSubmit(t, m, JobSpec{Kind: KindAnalyze, Inputs: []string{study.ID}})
	waitDone(t, an)
	for _, j := range []*Job{study, an} {
		if j.State() != StateDone {
			t.Fatalf("%s job: state %s (err %q)", j.Spec.Kind, j.State(), j.Err())
		}
		compareDirs(t, j.Spec.Kind+" artifacts", want, j.ArtifactDir())
	}
	if _, err := os.Stat(filepath.Join(an.DatasetDir(), dataset.ManifestName)); err != nil {
		t.Errorf("analyze job merged no dataset of its own: %v", err)
	}
}
