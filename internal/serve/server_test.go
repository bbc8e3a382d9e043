package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/telemetry"
)

// httpJSON performs a request against the test server and decodes the
// JSON body into out (which may be nil to discard it).
func httpJSON(t *testing.T, method, url string, body string, out any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, raw, err)
		}
	}
	return resp
}

// TestHTTPAPIEndToEnd walks the whole API surface for one study job:
// submit, poll per-phase progress to completion, list and fetch
// artifacts, fetch the dataset manifest, stream a shard and verify its
// CRC header, and read both metric registries and the health check.
func TestHTTPAPIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e skipped in -short mode")
	}
	m, _ := newTestManager(t, 2, 0)
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()

	// Bad specs are rejected before anything is enqueued.
	if resp := httpJSON(t, "POST", srv.URL+"/jobs", `{"kind":"bogus"}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus kind: status %d, want 400", resp.StatusCode)
	}

	var st Status
	resp := httpJSON(t, "POST", srv.URL+"/jobs",
		`{"kind":"study","window":"2018-01..2018-01","weight":2}`, &st)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", resp.StatusCode)
	}
	if st.ID == "" || st.Kind != KindStudy {
		t.Fatalf("submit returned %+v", st)
	}
	jobURL := srv.URL + "/jobs/" + st.ID

	// Poll until terminal; the phase list must end fully done.
	deadline := time.Now().Add(2 * time.Minute)
	for st.State != StateDone && st.State != StateFailed {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", st.ID, st.State)
		}
		time.Sleep(50 * time.Millisecond)
		httpJSON(t, "GET", jobURL, "", &st)
	}
	if st.State != StateDone {
		t.Fatalf("job finished %s (err %q)", st.State, st.Error)
	}
	if len(st.Phases) != len(runAllPhases) {
		t.Fatalf("status has %d phases, want %d", len(st.Phases), len(runAllPhases))
	}
	for _, p := range st.Phases {
		if p.State != "done" {
			t.Errorf("phase %s = %s, want done", p.Name, p.State)
		}
	}

	// The job listing carries the scheduler gauges.
	var listing struct {
		Budget int      `json:"budget"`
		Jobs   []Status `json:"jobs"`
	}
	httpJSON(t, "GET", srv.URL+"/jobs", "", &listing)
	if listing.Budget != 2 || len(listing.Jobs) != 1 {
		t.Errorf("listing budget=%d jobs=%d, want 2 and 1", listing.Budget, len(listing.Jobs))
	}

	// Artifacts: index present, files fetch as text.
	var arts struct {
		Artifacts []string `json:"artifacts"`
	}
	httpJSON(t, "GET", jobURL+"/artifacts", "", &arts)
	found := false
	for _, a := range arts.Artifacts {
		if a == "index.md" {
			found = true
		}
	}
	if !found {
		t.Fatalf("artifact listing %v has no index.md", arts.Artifacts)
	}
	resp, err := http.Get(jobURL + "/artifacts/index.md")
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(idx) == 0 {
		t.Fatalf("index.md: status %d, %d bytes", resp.StatusCode, len(idx))
	}
	if resp := httpJSON(t, "GET", jobURL+"/artifacts/..secret", "", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("dotfile artifact name: status %d, want 400", resp.StatusCode)
	}

	// Dataset manifest and shard streaming with CRC verification.
	var man dataset.Manifest
	httpJSON(t, "GET", jobURL+"/dataset", "", &man)
	if len(man.Shards) == 0 {
		t.Fatal("dataset manifest lists no shards")
	}
	sh := man.Shards[0]
	resp, err = http.Get(jobURL + "/dataset/" + sh.File)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shard %s: status %d", sh.File, resp.StatusCode)
	}
	wantCRC := fmt.Sprintf("%08x", sh.CRC32)
	if got := resp.Header.Get(CRCHeader); got != wantCRC {
		t.Errorf("shard %s: %s = %q, want %q", sh.File, CRCHeader, got, wantCRC)
	}
	// The job was submitted without gzip, so the file bytes are the
	// uncompressed stream the manifest CRC covers.
	if got := crc32.ChecksumIEEE(body); got != sh.CRC32 {
		t.Errorf("shard %s: body CRC %08x, manifest says %08x", sh.File, got, sh.CRC32)
	}
	// The manifest's own response carries the CRC of its bytes.
	resp, err = http.Get(jobURL + "/dataset/" + dataset.ManifestName)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if got, want := resp.Header.Get(CRCHeader), fmt.Sprintf("%08x", crc32.ChecksumIEEE(body)); resp.StatusCode != http.StatusOK || got != want {
		t.Errorf("manifest: status %d, %s = %q, want %q", resp.StatusCode, CRCHeader, got, want)
	}
	if resp := httpJSON(t, "GET", jobURL+"/dataset/nope.bin", "", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown shard: status %d, want 404", resp.StatusCode)
	}

	// Metrics: the job registry holds study telemetry, the process
	// registry holds only service counters.
	var jobSnap telemetry.Snapshot
	httpJSON(t, "GET", srv.URL+"/metrics/jobs/"+st.ID, "", &jobSnap)
	if jobSnap.Counters["traffic.months"] != 1 {
		t.Errorf("job metrics traffic.months = %d, want 1", jobSnap.Counters["traffic.months"])
	}
	var procSnap telemetry.Snapshot
	httpJSON(t, "GET", srv.URL+"/metrics", "", &procSnap)
	if procSnap.Counters["serve.jobs.submitted"] != 1 {
		t.Errorf("process metrics serve.jobs.submitted = %d, want 1", procSnap.Counters["serve.jobs.submitted"])
	}
	if _, leaked := procSnap.Counters["traffic.months"]; leaked {
		t.Error("study telemetry leaked into /metrics")
	}

	// Health and not-found handling.
	var hz struct {
		Status string `json:"status"`
	}
	if resp := httpJSON(t, "GET", srv.URL+"/readyz", "", &hz); resp.StatusCode != http.StatusOK || hz.Status != "ok" {
		t.Errorf("readyz = %d %q, want 200 ok", resp.StatusCode, hz.Status)
	}
	if resp := httpJSON(t, "GET", srv.URL+"/jobs/job-999999", "", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestQueueFullSheds429 pins the HTTP backpressure contract: with the
// budget held and the admission queue full, a submission is shed with
// 429 and a Retry-After hint; artifact fetches for the running job
// conflict with 409 until it finishes.
func TestQueueFullSheds429(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e skipped in -short mode")
	}
	m, _ := newTestManager(t, 1, 1)
	entered, release := holdAtPhase(m, "passive")
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()

	spec := `{"kind":"study","window":"2018-01..2018-01"}`
	var running Status
	if resp := httpJSON(t, "POST", srv.URL+"/jobs", spec, &running); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d", resp.StatusCode)
	}
	select {
	case <-entered:
	case <-time.After(2 * time.Minute):
		t.Fatal("first job never reached the passive boundary")
	}

	// The running job's artifacts don't exist yet: 409, not 404.
	if resp := httpJSON(t, "GET", srv.URL+"/jobs/"+running.ID+"/artifacts", "", nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("artifacts while running: status %d, want 409", resp.StatusCode)
	}

	var queued Status
	if resp := httpJSON(t, "POST", srv.URL+"/jobs", spec, &queued); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: status %d", resp.StatusCode)
	}

	var shedBody bytes.Buffer
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(&shedBody, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: status %d, want 429 (body %s)", resp.StatusCode, shedBody.String())
	}
	if got := resp.Header.Get("Retry-After"); got != fmt.Sprintf("%d", RetryAfterSeconds) {
		t.Errorf("Retry-After = %q, want %d", got, RetryAfterSeconds)
	}

	close(release)
	for _, id := range []string{running.ID, queued.ID} {
		j, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		waitDone(t, j)
		if j.State() != StateDone {
			t.Errorf("job %s: state %s (err %q), want done", id, j.State(), j.Err())
		}
	}
}
