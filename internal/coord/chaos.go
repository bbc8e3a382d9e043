package coord

import (
	"bytes"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
)

// ChaosProxy wraps one worker's HTTP handler and injects fabric-level
// faults under a deterministic fault.FabricPlan: worker kills (every
// subsequent request's connection is severed — the coordinator sees a
// dead peer, not an error response), dropped heartbeats (/readyz
// probes severed), and corrupted or truncated dataset shard streams.
//
// Fault decisions come from seeded hash chains keyed by (worker name,
// per-class ordinal), so a chaos run replays byte-for-byte from its
// seed regardless of request interleaving across workers.
type ChaosProxy struct {
	name  string
	plan  *fault.FabricPlan
	inner http.Handler

	dead      atomic.Bool
	hbOrd     atomic.Uint64
	streamOrd atomic.Uint64

	mu     sync.Mutex
	killed []string // request paths served right before death, for tests
}

// NewChaosProxy wraps inner for the named worker under plan.
func NewChaosProxy(name string, plan *fault.FabricPlan, inner http.Handler) *ChaosProxy {
	return &ChaosProxy{name: name, plan: plan, inner: inner}
}

// Dead reports whether the plan has killed this worker.
func (p *ChaosProxy) Dead() bool { return p.dead.Load() }

// Kill drops the worker immediately, independent of the plan — the
// operator's kill -9 next to the plan's scheduled deaths.
func (p *ChaosProxy) Kill() { p.dead.Store(true) }

// sever cuts the client's connection without an HTTP response — the
// closest loopback stand-in for a crashed process or a dropped link.
func sever(w http.ResponseWriter) {
	if hj, ok := w.(http.Hijacker); ok {
		if conn, _, err := hj.Hijack(); err == nil {
			conn.Close()
			return
		}
	}
	// net/http guarantees ServeHTTP sees a Hijacker on HTTP/1 server
	// conns; the fallback aborts the handler without writing a status.
	panic(http.ErrAbortHandler)
}

// isDatasetFile matches GET /jobs/{id}/dataset/{file} — the shard
// stream the coordinator's fetcher must survive corruption of.
func isDatasetFile(r *http.Request) bool {
	if r.Method != http.MethodGet {
		return false
	}
	parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	return len(parts) == 4 && parts[0] == "jobs" && parts[2] == "dataset"
}

func (p *ChaosProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if p.dead.Load() {
		sever(w)
		return
	}
	if r.Method == http.MethodGet && r.URL.Path == "/readyz" {
		if p.plan.DropHeartbeat(p.name, p.hbOrd.Add(1)-1) {
			sever(w)
			return
		}
		p.inner.ServeHTTP(w, r)
		return
	}
	if !isDatasetFile(r) {
		p.inner.ServeHTTP(w, r)
		return
	}

	ord := p.streamOrd.Add(1) - 1
	verdict := p.plan.Stream(p.name, ord)
	switch verdict.Fault {
	case fault.StreamClean:
		p.inner.ServeHTTP(w, r)
	case fault.StreamCorrupt:
		// Buffer the true response, flip one payload byte, replay it with
		// the original headers — Content-Length and the CRC trailer still
		// describe the pristine bytes, exactly like a mid-path bit flip.
		rec := &bufferedResponse{header: make(http.Header)}
		p.inner.ServeHTTP(rec, r)
		body := rec.body.Bytes()
		if len(body) > 0 {
			body[int(verdict.Rand%uint64(len(body)))] ^= 0x20
		}
		replay(w, rec, body)
	case fault.StreamTruncate:
		// Send honest headers, half the body, then cut the connection:
		// the client sees an unexpected EOF mid-stream.
		rec := &bufferedResponse{header: make(http.Header)}
		p.inner.ServeHTTP(rec, r)
		replay(w, rec, rec.body.Bytes()[:rec.body.Len()/2])
		sever(w)
		return
	}

	// A kill decision lands after a served dataset file: the worker dies
	// mid-collection, the nastiest point in the pipeline.
	if p.plan.KillWorker(p.name, ord) {
		p.mu.Lock()
		p.killed = append(p.killed, r.URL.Path)
		p.mu.Unlock()
		p.dead.Store(true)
	}
}

// replay writes a buffered response's status, headers, and the given
// (possibly tampered) body.
func replay(w http.ResponseWriter, rec *bufferedResponse, body []byte) {
	for k, vs := range rec.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	w.WriteHeader(rec.status)
	w.Write(body)
}

// bufferedResponse captures a handler's full response in memory (shard
// files in tests are small; the real serve path streams).
type bufferedResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(status int) {
	if b.status == 0 {
		b.status = status
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) {
	if b.status == 0 {
		b.status = http.StatusOK
	}
	return b.body.Write(p)
}
