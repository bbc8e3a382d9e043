package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/telemetry"
)

// CRCHeader carries a shard's manifest CRC32 (IEEE, over the
// uncompressed stream) on dataset file responses, so a client can
// verify what it streamed without re-reading the manifest; on the
// manifest's own response it carries the CRC32 of the manifest bytes.
const CRCHeader = "X-IoTLS-CRC32"

// RetryAfterSeconds is the backpressure hint on 429 responses.
const RetryAfterSeconds = 5

// DefaultWriteTimeout bounds how long one response write may block on a
// stalled client before the connection is cut. Event streams and shard
// transfers extend it ahead of every chunk, so progress never times out
// — only a peer that stopped reading does.
const DefaultWriteTimeout = 30 * time.Second

// Server is the HTTP face of a Manager.
type Server struct {
	m            *Manager
	mux          *http.ServeMux
	writeTimeout time.Duration
}

// NewServer wires the API routes around m.
func NewServer(m *Manager) *Server {
	s := &Server{m: m, mux: http.NewServeMux(), writeTimeout: DefaultWriteTimeout}
	s.mux.HandleFunc("POST /jobs", s.submitJob)
	s.mux.HandleFunc("GET /jobs", s.listJobs)
	s.mux.HandleFunc("GET /jobs/{id}", s.getJob)
	s.mux.HandleFunc("POST /jobs/{id}/cancel", s.cancelJob)
	s.mux.HandleFunc("GET /jobs/{id}/artifacts", s.listArtifacts)
	s.mux.HandleFunc("GET /jobs/{id}/artifacts/{name}", s.getArtifact)
	s.mux.HandleFunc("GET /jobs/{id}/dataset", s.getDatasetIndex)
	s.mux.HandleFunc("GET /jobs/{id}/dataset/{file}", s.getDatasetFile)
	s.mux.HandleFunc("GET /jobs/{id}/events", s.jobEvents)
	s.mux.HandleFunc("POST /leases", s.grantLease)
	s.mux.HandleFunc("PUT /leases/{id}", s.renewLease)
	s.mux.HandleFunc("DELETE /leases/{id}", s.releaseLease)
	s.mux.HandleFunc("GET /metrics", s.processMetrics)
	s.mux.HandleFunc("GET /metrics/jobs/{id}", s.jobMetrics)
	s.mux.HandleFunc("GET /healthz", s.healthz)
	s.mux.HandleFunc("GET /livez", s.livez)
	s.mux.HandleFunc("GET /readyz", s.readyz)
	return s
}

// SetWriteTimeout overrides the per-write stall bound (0 disables it;
// tests that pause mid-stream use that).
func (s *Server) SetWriteTimeout(d time.Duration) { s.writeTimeout = d }

// extendWriteDeadline pushes the response connection's write deadline
// writeTimeout into the future; unsupported writers (test recorders)
// are left alone.
func (s *Server) extendWriteDeadline(w http.ResponseWriter) {
	if s.writeTimeout <= 0 {
		return
	}
	http.NewResponseController(w).SetWriteDeadline(time.Now().Add(s.writeTimeout))
}

// deadlineWriter re-arms the write deadline ahead of every chunk of a
// long transfer: steady progress never expires, a stalled client's
// connection dies within writeTimeout instead of pinning the handler
// goroutine forever.
type deadlineWriter struct {
	http.ResponseWriter
	s *Server
}

func (dw *deadlineWriter) Write(p []byte) (int, error) {
	dw.s.extendWriteDeadline(dw.ResponseWriter)
	return dw.ResponseWriter.Write(p)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.m.proc.Counter("serve.http.requests").Inc()
	s.extendWriteDeadline(w)
	s.mux.ServeHTTP(w, r)
}

// writeJSON writes v as indented JSON with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// submitJob handles POST /jobs.
func (s *Server) submitJob(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	j, err := s.m.Submit(spec)
	if errors.Is(err, ErrQueueFull) {
		// Shed load: the queue is the buffer, and it's full. The client
		// should back off and resubmit.
		w.Header().Set("Retry-After", fmt.Sprintf("%d", RetryAfterSeconds))
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.StatusNow())
}

// listJobs handles GET /jobs.
func (s *Server) listJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.m.Jobs()
	out := struct {
		Budget int      `json:"budget"`
		InUse  int      `json:"in_use"`
		Queued int      `json:"queued"`
		Jobs   []Status `json:"jobs"`
	}{
		Budget: s.m.sched.Budget(),
		InUse:  s.m.sched.InUse(),
		Queued: s.m.sched.QueueLen(),
		Jobs:   make([]Status, 0, len(jobs)),
	}
	for _, j := range jobs {
		out.Jobs = append(out.Jobs, j.StatusNow())
	}
	writeJSON(w, http.StatusOK, out)
}

// job resolves the {id} path value or writes 404.
func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.m.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return nil, false
	}
	return j, true
}

// getJob handles GET /jobs/{id}.
func (s *Server) getJob(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.StatusNow())
	}
}

// requireDone rejects artifact/dataset fetches for unfinished jobs
// with 409 (the state is in the body; poll until done).
func requireDone(w http.ResponseWriter, j *Job) bool {
	switch j.State() {
	case StateDone, StateFailed:
		return true
	default:
		writeError(w, http.StatusConflict, "job %s is %s; artifacts exist once it finishes", j.ID, j.State())
		return false
	}
}

// listArtifacts handles GET /jobs/{id}/artifacts.
func (s *Server) listArtifacts(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok || !requireDone(w, j) {
		return
	}
	names, err := j.sortedArtifacts()
	if err != nil {
		writeError(w, http.StatusNotFound, "job %s has no artifacts", j.ID)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Artifacts []string `json:"artifacts"`
	}{names})
}

// getArtifact handles GET /jobs/{id}/artifacts/{name}.
func (s *Server) getArtifact(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok || !requireDone(w, j) {
		return
	}
	name := r.PathValue("name")
	if name != filepath.Base(name) || strings.HasPrefix(name, ".") {
		writeError(w, http.StatusBadRequest, "bad artifact name %q", name)
		return
	}
	path := filepath.Join(j.ArtifactDir(), name)
	f, err := os.Open(path)
	if err != nil {
		writeError(w, http.StatusNotFound, "job %s has no artifact %q", j.ID, name)
		return
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "job %s artifact %q: %v", j.ID, name, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	http.ServeContent(&deadlineWriter{w, s}, r, "", fi.ModTime(), f)
}

// datasetManifest loads the job's dataset manifest, returning it with
// its raw bytes, or writes an error.
func (s *Server) datasetManifest(w http.ResponseWriter, j *Job) (*dataset.Manifest, []byte, bool) {
	raw, err := os.ReadFile(filepath.Join(j.DatasetDir(), dataset.ManifestName))
	if err != nil {
		writeError(w, http.StatusNotFound, "job %s has no dataset", j.ID)
		return nil, nil, false
	}
	m := &dataset.Manifest{}
	if err := json.Unmarshal(raw, m); err != nil {
		writeError(w, http.StatusInternalServerError, "job %s: corrupt manifest: %v", j.ID, err)
		return nil, nil, false
	}
	return m, raw, true
}

// getDatasetIndex handles GET /jobs/{id}/dataset: the manifest, which
// carries every shard's file name, record count, and CRC32.
func (s *Server) getDatasetIndex(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok || !requireDone(w, j) {
		return
	}
	m, _, ok := s.datasetManifest(w, j)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, m)
}

// getDatasetFile handles GET /jobs/{id}/dataset/{file}: streams one
// shard (or the manifest itself) with the manifest CRC in CRCHeader.
func (s *Server) getDatasetFile(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok || !requireDone(w, j) {
		return
	}
	name := r.PathValue("file")
	if name != filepath.Base(name) || strings.HasPrefix(name, ".") {
		writeError(w, http.StatusBadRequest, "bad dataset file name %q", name)
		return
	}
	m, raw, ok := s.datasetManifest(w, j)
	if !ok {
		return
	}
	if name == dataset.ManifestName {
		w.Header().Set(CRCHeader, fmt.Sprintf("%08x", crc32.ChecksumIEEE(raw)))
	} else {
		found := false
		for _, sh := range m.Shards {
			if sh.File == name {
				w.Header().Set(CRCHeader, fmt.Sprintf("%08x", sh.CRC32))
				found = true
				break
			}
		}
		if !found {
			writeError(w, http.StatusNotFound, "job %s dataset has no shard %q", j.ID, name)
			return
		}
	}
	f, err := os.Open(filepath.Join(j.DatasetDir(), name))
	if err != nil {
		writeError(w, http.StatusNotFound, "job %s dataset: %v", j.ID, err)
		return
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "job %s dataset %q: %v", j.ID, name, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	// ServeContent handles byte ranges, so a coordinator whose stream
	// was cut mid-shard resumes from the received prefix instead of
	// refetching the whole file.
	http.ServeContent(&deadlineWriter{w, s}, r, "", fi.ModTime(), f)
	s.m.proc.Counter("serve.dataset.streams").Inc()
}

// wantsPrometheus reports whether the request asked for the Prometheus
// text exposition, via ?format=prometheus or an Accept header
// preferring text/plain (how a Prometheus scraper negotiates).
func wantsPrometheus(r *http.Request) bool {
	if r.URL.Query().Get("format") == "prometheus" {
		return true
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") && !strings.Contains(accept, "application/json")
}

// writeMetrics renders one registry snapshot as JSON or, when the
// request negotiated it, the Prometheus text exposition format.
func writeMetrics(w http.ResponseWriter, r *http.Request, snap *telemetry.Snapshot) {
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		snap.WritePrometheus(w)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// processMetrics handles GET /metrics: the process-wide registry
// (add ?format=prometheus for a scrapeable exposition).
func (s *Server) processMetrics(w http.ResponseWriter, r *http.Request) {
	writeMetrics(w, r, s.m.proc.Snapshot())
}

// jobMetrics handles GET /metrics/jobs/{id}: the job's own registry —
// a study job's full testbed telemetry, isolated from every other
// job's (add ?format=prometheus for a scrapeable exposition).
func (s *Server) jobMetrics(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeMetrics(w, r, j.Registry().Snapshot())
	}
}

// health is the liveness/readiness payload shape.
type health struct {
	Status string `json:"status"`
	Budget int    `json:"budget"`
	InUse  int    `json:"in_use"`
	Queued int    `json:"queued"`
}

// healthz handles GET /healthz — the legacy combined probe, kept for
// compatibility: always 200, status reports draining.
func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	state := "ok"
	if s.m.isDraining() {
		state = "draining"
	}
	writeJSON(w, http.StatusOK, health{state, s.m.sched.Budget(), s.m.sched.InUse(), s.m.sched.QueueLen()})
}

// livez handles GET /livez — pure liveness: 200 as long as the process
// answers, draining or not. A supervisor keys restarts off this.
func (s *Server) livez(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, health{Status: "ok"})
}

// readyz handles GET /readyz — readiness to accept jobs. A draining
// worker answers 503 with its queue depth, so a coordinator stops
// dispatching to it (and lets in-flight jobs finish) instead of eating
// submit rejections. The coordinator's heartbeat is exactly this probe.
func (s *Server) readyz(w http.ResponseWriter, r *http.Request) {
	h := health{Status: "ok", Budget: s.m.sched.Budget(), InUse: s.m.sched.InUse(), Queued: s.m.sched.QueueLen()}
	code := http.StatusOK
	if s.m.isDraining() {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// cancelJob handles POST /jobs/{id}/cancel: stop a queued or running
// job (running studies cut at the next month boundary and persist
// nothing). 409 if the job is already terminal.
func (s *Server) cancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	reason := r.URL.Query().Get("reason")
	j, err := s.m.Cancel(id, reason)
	if err != nil {
		code := http.StatusNotFound
		if j != nil {
			code = http.StatusConflict
		}
		writeError(w, code, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, j.StatusNow())
}

// leaseRequest is the POST /leases body.
type leaseRequest struct {
	Owner string `json:"owner"`
	TTLms int64  `json:"ttl_ms,omitempty"`
}

// grantLease handles POST /leases: register a coordinator with this
// worker. Jobs submitted with the returned lease ID are reaped if the
// coordinator stops renewing.
func (s *Server) grantLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad lease request: %v", err)
		return
	}
	l := s.m.Grant(req.Owner, time.Duration(req.TTLms)*time.Millisecond)
	writeJSON(w, http.StatusCreated, l)
}

// renewLease handles PUT /leases/{id}: extend the lease by its TTL.
// 404 means the lease expired (or never existed) — the caller's jobs
// may already be reaped and it must re-register before submitting more.
func (s *Server) renewLease(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	l, ok := s.m.Renew(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no lease %q", id)
		return
	}
	writeJSON(w, http.StatusOK, l)
}

// releaseLease handles DELETE /leases/{id}: drop the lease without
// touching its jobs (the clean coordinator-shutdown path).
func (s *Server) releaseLease(w http.ResponseWriter, r *http.Request) {
	if !s.m.Release(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, "no lease %q", r.PathValue("id"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
