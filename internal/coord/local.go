package coord

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/serve"
	"repro/internal/telemetry"
)

// LocalWorker is one in-process `iotls serve` worker bound to a real
// loopback listener — the `-spawn N` fabric for single-machine
// distributed runs, and the substrate the chaos tests wrap proxies
// around. Going through real TCP (rather than in-memory plumbing)
// keeps the coordinator honest: every failure mode it must survive in
// production can occur here.
type LocalWorker struct {
	// URL is the worker's base URL ("http://127.0.0.1:port").
	URL string
	// Manager is the worker's job manager, exposed so tests can reach
	// PhaseHook and telemetry.
	Manager *serve.Manager

	srv *http.Server
	tel *telemetry.Registry
}

// localQueueCap is each spawned worker's admission queue capacity.
const localQueueCap = 16

// LocalOptions shape a spawned fleet.
type LocalOptions struct {
	// Budget is each worker's scheduler budget (default 4).
	Budget int
	// WorkDir is the parent for per-worker job directories.
	WorkDir string
	// Handler optionally wraps each worker's HTTP handler (index-aware),
	// which is where the chaos proxy slots in. nil means identity.
	Handler func(i int, h http.Handler) http.Handler
	// PhaseHook, when set, becomes each worker manager's PhaseHook.
	// It must be installed here — before the server goroutine starts —
	// so the assignment is ordered before any job can observe it.
	PhaseHook func(i int, jobID, phase string)
}

// SpawnLocalWorkers starts n loopback workers. The caller owns the
// returned fleet and must Close it.
func SpawnLocalWorkers(n int, opts LocalOptions) ([]*LocalWorker, error) {
	if opts.Budget <= 0 {
		opts.Budget = 4
	}
	var fleet []*LocalWorker
	for i := 0; i < n; i++ {
		w, err := spawnLocalWorker(i, opts)
		if err != nil {
			CloseLocalWorkers(fleet)
			return nil, err
		}
		fleet = append(fleet, w)
	}
	return fleet, nil
}

func spawnLocalWorker(i int, opts LocalOptions) (*LocalWorker, error) {
	tel := telemetry.New(nil)
	m, err := serve.NewManager(fmt.Sprintf("%s/worker-%d", opts.WorkDir, i), opts.Budget, localQueueCap, tel)
	if err != nil {
		return nil, fmt.Errorf("coord: spawn worker %d: %w", i, err)
	}
	if hook := opts.PhaseHook; hook != nil {
		m.PhaseHook = func(jobID, phase string) { hook(i, jobID, phase) }
	}
	var handler http.Handler = serve.NewServer(m)
	if opts.Handler != nil {
		handler = opts.Handler(i, handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		return nil, fmt.Errorf("coord: spawn worker %d: %w", i, err)
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)
	return &LocalWorker{
		URL:     "http://" + ln.Addr().String(),
		Manager: m,
		srv:     srv,
		tel:     tel,
	}, nil
}

// Close stops the worker: HTTP server first (no new work arrives),
// then the manager (running jobs are released).
func (w *LocalWorker) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	w.srv.Shutdown(ctx)
	cancel()
	w.Manager.Close()
}

// CloseLocalWorkers closes a whole fleet (nil-safe).
func CloseLocalWorkers(fleet []*LocalWorker) {
	for _, w := range fleet {
		if w != nil {
			w.Close()
		}
	}
}

// URLs lists the fleet's base URLs in order.
func URLs(fleet []*LocalWorker) []string {
	out := make([]string, len(fleet))
	for i, w := range fleet {
		out[i] = w.URL
	}
	return out
}
