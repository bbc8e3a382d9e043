package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// workerClient is the coordinator's HTTP face onto one `iotls serve`
// worker.
type workerClient struct {
	name string
	base string
	// retry is the coordinator's defaulted retry policy and HTTP client,
	// shared with its dataset fetches: transient failures (transport
	// errors, 5xx, 429) back off on the same deterministic schedule.
	retry dataset.FetchOptions
	tel   *telemetry.Registry
}

// transientStatus reports whether an HTTP status is worth retrying.
func transientStatus(code int) bool {
	return code >= 500 || code == http.StatusTooManyRequests
}

// doJSON performs one request with retries on transient failures,
// decoding the response into out (when non-nil) on any of wantStatus.
// A non-transient unexpected status fails immediately.
func (w *workerClient) doJSON(ctx context.Context, method, path string, body, out any, wantStatus ...int) (int, error) {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return 0, err
		}
	}
	var lastErr error
	for attempt := 0; attempt < w.retry.Attempts; attempt++ {
		if attempt > 0 {
			w.tel.Counter("coord.http.retries").Inc()
			w.retry.Sleep(w.retry.Backoff(w.name+path, attempt))
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		var rd io.Reader
		if payload != nil {
			rd = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, w.base+path, rd)
		if err != nil {
			return 0, err
		}
		if payload != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := w.retry.Client.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		raw, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		for _, want := range wantStatus {
			if resp.StatusCode == want {
				if out != nil {
					if err := json.Unmarshal(raw, out); err != nil {
						lastErr = fmt.Errorf("%s %s: bad response body: %w", method, path, err)
						continue
					}
				}
				return resp.StatusCode, nil
			}
		}
		err = fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(raw)))
		if !transientStatus(resp.StatusCode) {
			return resp.StatusCode, err
		}
		lastErr = err
	}
	return 0, fmt.Errorf("coord: worker %s: gave up after %d attempts: %w", w.name, w.retry.Attempts, lastErr)
}

// submit posts a job spec and returns the accepted job's status.
// Submission is not idempotent: if the worker accepted a submit whose
// response was lost, the duplicate runs as an unfetched orphan — wasted
// budget, never merged (only the job ID returned here is ever fetched).
func (w *workerClient) submit(ctx context.Context, spec serve.JobSpec) (serve.Status, error) {
	var st serve.Status
	_, err := w.doJSON(ctx, http.MethodPost, "/jobs", spec, &st, http.StatusAccepted)
	return st, err
}

// status fetches one remote job's status.
func (w *workerClient) status(ctx context.Context, id string) (serve.Status, error) {
	var st serve.Status
	_, err := w.doJSON(ctx, http.MethodGet, "/jobs/"+id, nil, &st, http.StatusOK)
	return st, err
}

// waitTerminal polls the remote job until it reaches a terminal state.
func (w *workerClient) waitTerminal(ctx context.Context, id string, poll time.Duration) (serve.Status, error) {
	for {
		st, err := w.status(ctx, id)
		if err != nil {
			return serve.Status{}, err
		}
		switch st.State {
		case serve.StateDone, serve.StateFailed, serve.StateCancelled:
			return st, nil
		}
		select {
		case <-ctx.Done():
			return serve.Status{}, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// cancel asks the worker to stop a job — best-effort: the job may
// already be terminal (409) or the worker dead.
func (w *workerClient) cancel(ctx context.Context, id, reason string) {
	path := "/jobs/" + id + "/cancel"
	if reason != "" {
		path += "?reason=" + strings.ReplaceAll(reason, " ", "+")
	}
	w.doJSON(ctx, http.MethodPost, path, nil, nil, http.StatusOK, http.StatusConflict)
}

// readiness is one /readyz probe's result.
type readiness struct {
	OK       bool
	Draining bool
	Queued   int
}

// ready probes /readyz. A transport failure (timeout, severed
// connection) reports not-OK: from the coordinator's side a dropped
// probe and a dead worker start out indistinguishable.
func (w *workerClient) ready(ctx context.Context) readiness {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/readyz", nil)
	if err != nil {
		return readiness{}
	}
	resp, err := w.retry.Client.Do(req)
	if err != nil {
		return readiness{}
	}
	defer resp.Body.Close()
	var h struct {
		Status string `json:"status"`
		Queued int    `json:"queued"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&h); err != nil {
		return readiness{}
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return readiness{OK: true, Queued: h.Queued}
	case http.StatusServiceUnavailable:
		return readiness{OK: true, Draining: true, Queued: h.Queued}
	default:
		return readiness{}
	}
}

// grantLease registers the coordinator with the worker for
// serve.DefaultLeaseTTL: the worker reaps our jobs if we stop renewing
// for that long.
func (w *workerClient) grantLease(ctx context.Context, owner string) (string, error) {
	var l serve.Lease
	_, err := w.doJSON(ctx, http.MethodPost, "/leases",
		map[string]any{"owner": owner, "ttl_ms": serve.DefaultLeaseTTL.Milliseconds()}, &l, http.StatusCreated)
	return l.ID, err
}

// renewLease extends the worker-side lease; false means the worker
// forgot us (it expired the lease) and we must re-register.
func (w *workerClient) renewLease(ctx context.Context, id string) bool {
	code, err := w.doJSON(ctx, http.MethodPut, "/leases/"+id, nil, nil, http.StatusOK)
	return err == nil && code == http.StatusOK
}

// releaseLease drops the lease on clean shutdown (best-effort).
func (w *workerClient) releaseLease(ctx context.Context, id string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, w.base+"/leases/"+id, nil)
	if err != nil {
		return
	}
	if resp, err := w.retry.Client.Do(req); err == nil {
		resp.Body.Close()
	}
}
