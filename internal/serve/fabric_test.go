package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
)

// TestCancelRunningStudySkipsPersist pins the cancel contract for a
// running study job: it is interrupted at the next month boundary,
// finishes StateCancelled, and leaves no dataset behind — a
// speculation loser must never be mistakable for a real result.
func TestCancelRunningStudySkipsPersist(t *testing.T) {
	m, proc := newTestManager(t, 2, 4)
	entered, release := holdAtPhase(m, "passive")
	j := mustSubmit(t, m, JobSpec{Kind: KindStudy, Window: testWindow})
	<-entered
	if _, err := m.Cancel(j.ID, "test cancel"); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	close(release)
	waitDone(t, j)
	if got := j.State(); got != StateCancelled {
		t.Fatalf("state = %s, want %s", got, StateCancelled)
	}
	if _, err := os.Stat(filepath.Join(j.DatasetDir(), dataset.ManifestName)); !os.IsNotExist(err) {
		t.Fatalf("cancelled job persisted a dataset (stat err %v)", err)
	}
	if got := proc.Snapshot().Counters["serve.jobs.cancel_requested"]; got != 1 {
		t.Fatalf("cancel_requested counter = %d, want 1", got)
	}
	// Cancelling again is a terminal-state conflict.
	if _, err := m.Cancel(j.ID, ""); err == nil {
		t.Fatal("second Cancel succeeded on a terminal job")
	}
}

// TestCancelQueuedJob pins that a queued job is released before it runs.
func TestCancelQueuedJob(t *testing.T) {
	m, _ := newTestManager(t, 1, 4)
	entered, release := holdAtPhase(m, "passive")
	running := mustSubmit(t, m, JobSpec{Kind: KindStudy, Window: testWindow})
	<-entered
	queued := mustSubmit(t, m, JobSpec{Kind: KindStudy, Window: testWindow})
	if _, err := m.Cancel(queued.ID, "not needed"); err != nil {
		t.Fatalf("Cancel(queued): %v", err)
	}
	waitDone(t, queued)
	if got := queued.State(); got != StateCancelled {
		t.Fatalf("queued job state = %s, want %s", got, StateCancelled)
	}
	close(release)
	waitDone(t, running)
	if got := running.State(); got != StateDone {
		t.Fatalf("running job state = %s, want %s", got, StateDone)
	}
}

// TestLeaseRenewalHorizonMatchesGrant pins that Grant and Renew derive
// the expiry horizon from the same canonical TTL. The pre-fix code
// computed the grant horizon from the raw requested duration but the
// renewal horizon from the millisecond-truncated TTL field, so the two
// disagreed by the sub-millisecond remainder — and a sub-millisecond
// TTL stored as 0 ms, making a renewed lease expire instantly, before
// the fresh lease it renewed.
func TestLeaseRenewalHorizonMatchesGrant(t *testing.T) {
	m, _ := newTestManager(t, 1, 1)

	// A positive request must never canonicalise to a zero TTL.
	l := m.Grant("coord-test", 500*time.Microsecond)
	if l.TTL <= 0 {
		t.Fatalf("sub-millisecond TTL stored as %d ms; renewals would expire instantly", l.TTL)
	}
	r, ok := m.Renew(l.ID)
	if !ok {
		t.Fatal("Renew failed on a live lease")
	}
	if r.Until.Before(l.Until) {
		t.Fatalf("renewed lease expires at %v, before the fresh horizon %v", r.Until, l.Until)
	}

	// With a sub-millisecond component on a long TTL, renewal must not
	// shorten the horizon by the truncated remainder.
	l2 := m.Grant("coord-test", 5*time.Minute+700*time.Microsecond)
	r2, ok := m.Renew(l2.ID)
	if !ok {
		t.Fatal("Renew failed on a live lease")
	}
	if r2.Until.Before(l2.Until) {
		t.Fatalf("renewal moved the horizon backwards: %v -> %v", l2.Until, r2.Until)
	}
}

// TestLeaseExpiryReapsOrphans pins the worker-side half of fabric death
// detection: when a coordinator's lease expires, the jobs bound to it
// are cancelled instead of running as orphans.
func TestLeaseExpiryReapsOrphans(t *testing.T) {
	m, proc := newTestManager(t, 2, 4)
	// Long TTL: expiry is driven deterministically through ExpireLeases
	// with a pinned future clock, not by the background janitor.
	l := m.Grant("coord-test", 5*time.Minute)

	entered, release := holdAtPhase(m, "passive")
	bound := mustSubmit(t, m, JobSpec{Kind: KindStudy, Window: testWindow, Lease: l.ID})
	free := mustSubmit(t, m, JobSpec{Kind: KindStudy, Window: testWindow})
	<-entered

	// A renewed lease survives its original deadline.
	if _, ok := m.Renew(l.ID); !ok {
		t.Fatal("Renew failed on a live lease")
	}
	if n := m.ExpireLeases(time.Now()); n != 0 {
		t.Fatalf("ExpireLeases reaped %d leases before the deadline", n)
	}
	// Past the renewed deadline the lease dies and its job is reaped.
	if n := m.ExpireLeases(time.Now().Add(20 * time.Minute)); n != 1 {
		t.Fatalf("ExpireLeases reaped %d leases, want 1", n)
	}
	close(release)
	waitDone(t, bound)
	waitDone(t, free)
	if got := bound.State(); got != StateCancelled {
		t.Fatalf("lease-bound job state = %s, want %s", got, StateCancelled)
	}
	if !strings.Contains(bound.Err(), "lease "+l.ID+" expired") {
		t.Fatalf("bound job error %q does not name the expired lease", bound.Err())
	}
	if got := free.State(); got != StateDone {
		t.Fatalf("unleased job state = %s, want %s", got, StateDone)
	}
	snap := proc.Snapshot()
	if got := snap.Counters["serve.jobs.orphaned"]; got != 1 {
		t.Fatalf("orphaned counter = %d, want 1", got)
	}
	if got := snap.Counters["serve.leases.expired"]; got != 1 {
		t.Fatalf("expired counter = %d, want 1", got)
	}
	// Renewing a reaped lease reports it gone.
	if _, ok := m.Renew(l.ID); ok {
		t.Fatal("Renew succeeded on an expired lease")
	}
}

// TestReadyzSplitsFromLivez pins the readiness/liveness split: a
// draining worker stays live (200 on /livez) but stops being ready (503 + queue depth on /readyz), which is what
// steers a coordinator away from it.
func TestReadyzSplitsFromLivez(t *testing.T) {
	m, _ := newTestManager(t, 2, 4)
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()

	var h struct {
		Status string `json:"status"`
		Queued int    `json:"queued"`
	}
	resp := httpJSON(t, http.MethodGet, srv.URL+"/readyz", "", &h)
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("pre-drain readyz: %d %q", resp.StatusCode, h.Status)
	}

	// Drain with nothing running completes immediately; the probes must
	// reflect the drained state afterwards.
	m.Drain(context.Background())

	resp = httpJSON(t, http.MethodGet, srv.URL+"/readyz", "", &h)
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("draining readyz: %d %q, want 503 draining", resp.StatusCode, h.Status)
	}
	resp = httpJSON(t, http.MethodGet, srv.URL+"/livez", "", &h)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining livez: %d, want 200", resp.StatusCode)
	}
}

// TestLeaseHTTPEndpoints pins the lease API surface.
func TestLeaseHTTPEndpoints(t *testing.T) {
	m, _ := newTestManager(t, 2, 4)
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()

	var l Lease
	resp := httpJSON(t, http.MethodPost, srv.URL+"/leases", `{"owner":"coord-1","ttl_ms":60000}`, &l)
	if resp.StatusCode != http.StatusCreated || l.ID == "" {
		t.Fatalf("grant: %d %+v", resp.StatusCode, l)
	}
	resp = httpJSON(t, http.MethodPut, srv.URL+"/leases/"+l.ID, "", &l)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("renew: %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/leases/"+l.ID, nil)
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
	if del.StatusCode != http.StatusNoContent {
		t.Fatalf("release: %d, want 204", del.StatusCode)
	}
	var apiErr struct {
		Error string `json:"error"`
	}
	resp = httpJSON(t, http.MethodPut, srv.URL+"/leases/"+l.ID, "", &apiErr)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("renew released lease: %d, want 404", resp.StatusCode)
	}
}
