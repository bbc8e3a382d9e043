package dataset_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/telemetry"
)

// captureSmall persists a short-window few-device study dataset.
func captureSmall(t *testing.T, dir string) {
	t.Helper()
	from, to, err := core.ParseWindow("2018-01..2018-02")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := deviceHalves(t)
	s, err := core.NewStudyFromConfig(core.Config{
		Parallelism: 8,
		WindowFrom:  from, WindowTo: to,
		Devices: a[:6],
	})
	if err != nil {
		t.Fatalf("NewStudyFromConfig: %v", err)
	}
	rep, err := s.RunAll()
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if err := dataset.Write(dir, dataset.FromStudy(s, rep), dataset.Options{}); err != nil {
		t.Fatalf("Write: %v", err)
	}
}

// flakyFileServer serves a dataset directory with byte-range support
// and a per-file budget of responses to corrupt (one byte flipped) or
// truncate (half the body, then a severed connection).
type flakyFileServer struct {
	dir string

	mu           sync.Mutex
	corruptLeft  map[string]int
	truncateLeft map[string]int
	hits         map[string]int
}

func newFlakyFileServer(dir string) *flakyFileServer {
	return &flakyFileServer{
		dir:          dir,
		corruptLeft:  make(map[string]int),
		truncateLeft: make(map[string]int),
		hits:         make(map[string]int),
	}
}

func (fs *flakyFileServer) hitCount(name string) int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.hits[name]
}

func (fs *flakyFileServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name := path.Base(r.URL.Path)
	raw, err := os.ReadFile(filepath.Join(fs.dir, name))
	if err != nil {
		http.NotFound(w, r)
		return
	}
	fs.mu.Lock()
	fs.hits[name]++
	corrupt := fs.corruptLeft[name] > 0
	if corrupt {
		fs.corruptLeft[name]--
	}
	trunc := !corrupt && fs.truncateLeft[name] > 0
	if trunc {
		fs.truncateLeft[name]--
	}
	fs.mu.Unlock()

	var start int64
	if rg := r.Header.Get("Range"); strings.HasPrefix(rg, "bytes=") && strings.HasSuffix(rg, "-") {
		if n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(rg, "bytes="), "-"), 10, 64); err == nil && n > 0 && n < int64(len(raw)) {
			start = n
		}
	}
	body := append([]byte(nil), raw[start:]...)
	if corrupt && len(body) > 0 {
		body[len(body)/2] ^= 0x20
	}
	w.Header().Set("Accept-Ranges", "bytes")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	if start > 0 {
		w.Header().Set("Content-Range",
			"bytes "+strconv.FormatInt(start, 10)+"-"+strconv.Itoa(len(raw)-1)+"/"+strconv.Itoa(len(raw)))
		w.WriteHeader(http.StatusPartialContent)
	}
	if trunc && len(body) > 1 {
		// Write half of a longer-advertised body: the server closes the
		// connection short and the client sees an unexpected EOF.
		w.Write(body[:len(body)/2])
		return
	}
	w.Write(body)
}

func shardNames(t *testing.T, dir string) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, dataset.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m dataset.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, sh := range m.Shards {
		names = append(names, sh.File)
	}
	return names
}

// TestFetchVerifiedRetryAndResume pins the shard-download robustness
// contract: a corrupted stream is detected by client-side verification
// and refetched whole, a truncated stream resumes from the received
// prefix via a Range request, and the fetched directory ends up
// byte-identical to the server's dataset.
func TestFetchVerifiedRetryAndResume(t *testing.T) {
	src := t.TempDir()
	captureSmall(t, src)
	shards := shardNames(t, src)
	if len(shards) < 2 {
		t.Fatalf("want at least 2 shards, got %v", shards)
	}

	fs := newFlakyFileServer(src)
	fs.corruptLeft[shards[0]] = 1
	fs.truncateLeft[shards[len(shards)-1]] = 1
	srv := httptest.NewServer(fs)
	defer srv.Close()

	tel := telemetry.New(nil)
	dest := t.TempDir()
	if _, err := dataset.Fetch(srv.URL, dest, dataset.FetchOptions{
		Attempts:  5,
		Telemetry: tel,
		Sleep:     func(time.Duration) {},
	}); err != nil {
		t.Fatalf("Fetch: %v", err)
	}

	want, got := dirBytes(t, src), dirBytes(t, dest)
	if len(want) != len(got) {
		t.Fatalf("fetched %d files, want %d", len(got), len(want))
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("file %s differs from server copy", name)
		}
	}

	snap := tel.Snapshot()
	if snap.Counters["dataset.fetch.retries"] < 2 {
		t.Errorf("retries counter = %d, want >= 2", snap.Counters["dataset.fetch.retries"])
	}
	if snap.Counters["dataset.fetch.corrupt"] < 1 {
		t.Errorf("corrupt counter = %d, want >= 1", snap.Counters["dataset.fetch.corrupt"])
	}
	if snap.Counters["dataset.fetch.resumes"] < 1 {
		t.Errorf("resumes counter = %d, want >= 1", snap.Counters["dataset.fetch.resumes"])
	}

	// The fetched dataset is readable and restorable.
	if _, err := dataset.Read(dest, tel); err != nil {
		t.Fatalf("Read(fetched): %v", err)
	}
	// Each operation leaves one outcome counter and one wall-time
	// observation.
	snap = tel.Snapshot()
	for _, op := range []string{"fetch", "read"} {
		if got := snap.Counters["span.dataset."+op+".ok"]; got != 1 {
			t.Errorf("span.dataset.%s.ok = %d, want 1", op, got)
		}
		if got := snap.Histograms["span.dataset."+op+".wall_us"].Count; got != 1 {
			t.Errorf("span.dataset.%s.wall_us count = %d, want 1", op, got)
		}
	}
}

// rewindingRangeServer is a misbehaving byte-range server: it
// truncates the first response for each file (forcing the client to
// attempt a resume), then answers every Range request with a 206 whose
// Content-Range — and body — restart from offset 0 instead of the
// requested offset.
type rewindingRangeServer struct {
	dir string

	mu   sync.Mutex
	hits map[string]int
}

func (fs *rewindingRangeServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name := path.Base(r.URL.Path)
	raw, err := os.ReadFile(filepath.Join(fs.dir, name))
	if err != nil {
		http.NotFound(w, r)
		return
	}
	fs.mu.Lock()
	fs.hits[name]++
	first := fs.hits[name] == 1
	fs.mu.Unlock()

	w.Header().Set("Accept-Ranges", "bytes")
	if r.Header.Get("Range") != "" {
		// The lie: 206, but resuming from the start of the file.
		w.Header().Set("Content-Range",
			"bytes 0-"+strconv.Itoa(len(raw)-1)+"/"+strconv.Itoa(len(raw)))
		w.WriteHeader(http.StatusPartialContent)
		w.Write(raw)
		return
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
	if first && len(raw) > 1 {
		w.Write(raw[:len(raw)/2])
		return
	}
	w.Write(raw)
}

// TestFetchRestartsOnBogusContentRange pins the resume-splice guard: a
// 206 whose Content-Range does not start at the local resume offset
// must trigger a full restart (counted as dataset.fetch.restarts), not
// an append. Pre-guard, the mismatched body was spliced onto the local
// prefix and only caught — wastefully — by post-download verification.
func TestFetchRestartsOnBogusContentRange(t *testing.T) {
	src := t.TempDir()
	captureSmall(t, src)

	fs := &rewindingRangeServer{dir: src, hits: make(map[string]int)}
	srv := httptest.NewServer(fs)
	defer srv.Close()

	tel := telemetry.New(nil)
	dest := t.TempDir()
	if _, err := dataset.Fetch(srv.URL, dest, dataset.FetchOptions{
		Attempts:  5,
		Telemetry: tel,
		Sleep:     func(time.Duration) {},
	}); err != nil {
		t.Fatalf("Fetch: %v", err)
	}

	want, got := dirBytes(t, src), dirBytes(t, dest)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("file %s differs from server copy", name)
		}
	}

	snap := tel.Snapshot()
	if snap.Counters["dataset.fetch.restarts"] < 1 {
		t.Errorf("restarts counter = %d, want >= 1 (bogus Content-Range must force a restart)",
			snap.Counters["dataset.fetch.restarts"])
	}
	if snap.Counters["dataset.fetch.corrupt"] != 0 {
		t.Errorf("corrupt counter = %d, want 0: the splice guard must reject the response before any bytes land",
			snap.Counters["dataset.fetch.corrupt"])
	}
}

// TestFetchGivesUpBounded pins that a persistently corrupt shard fails
// the fetch after exactly Attempts tries, not an unbounded loop.
func TestFetchGivesUpBounded(t *testing.T) {
	src := t.TempDir()
	captureSmall(t, src)
	shards := shardNames(t, src)

	fs := newFlakyFileServer(src)
	fs.corruptLeft[shards[0]] = 1 << 30
	srv := httptest.NewServer(fs)
	defer srv.Close()

	tel := telemetry.New(nil)
	_, err := dataset.Fetch(srv.URL, t.TempDir(), dataset.FetchOptions{
		Attempts:  3,
		Telemetry: tel,
		Sleep:     func(time.Duration) {},
	})
	if err == nil {
		t.Fatal("Fetch succeeded against a permanently corrupt shard")
	}
	if got := tel.Snapshot().Counters["span.dataset.fetch.error"]; got != 1 {
		t.Errorf("span.dataset.fetch.error = %d, want 1", got)
	}
	if !strings.Contains(err.Error(), "gave up after 3 attempts") {
		t.Fatalf("error %q does not report bounded give-up", err)
	}
	if got := fs.hitCount(shards[0]); got != 3 {
		t.Fatalf("server saw %d attempts for %s, want 3", got, shards[0])
	}
}

// TestFetchVerifiesManifest pins that a manifest damaged in transit
// into still-valid JSON — one letter's case flipped inside a device ID
// — is caught against the server's CRC header and refetched, so the
// installed provenance is the server's, byte for byte.
func TestFetchVerifiesManifest(t *testing.T) {
	t.Parallel()
	src := runsDataset(t, t.TempDir(), dataset.Run{WindowFrom: "2018-01", WindowTo: "2018-01", Devices: []string{"samsung-dryer"}})
	var manifestHits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := path.Base(r.URL.Path)
		body, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			http.NotFound(w, r)
			return
		}
		if name == dataset.ManifestName {
			w.Header().Set("X-IoTLS-CRC32", fmt.Sprintf("%08x", crc32.ChecksumIEEE(body)))
			if manifestHits.Add(1) == 1 {
				body = bytes.Replace(body, []byte("samsung-dryer"), []byte("samsung-dryeR"), 1)
			}
		}
		w.Write(body)
	}))
	defer srv.Close()

	tel := telemetry.New(nil)
	dest := t.TempDir()
	if _, err := dataset.Fetch(srv.URL, dest, dataset.FetchOptions{Attempts: 3, Telemetry: tel, Sleep: func(time.Duration) {}}); err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if got := manifestHits.Load(); got != 2 {
		t.Errorf("server saw %d manifest requests, want 2 (one damaged, one retry)", got)
	}
	if got := tel.Snapshot().Counters["dataset.fetch.corrupt"]; got != 1 {
		t.Errorf("dataset.fetch.corrupt = %d, want 1", got)
	}
	if got, want := dirBytes(t, dest)[dataset.ManifestName], dirBytes(t, src)[dataset.ManifestName]; got != want {
		t.Errorf("installed manifest differs from the server's:\n%s", got)
	}
}

// TestFetchBackoffSchedule pins the one retry policy that shard fetches
// and the coordinator's worker-API calls share: a table of
// (seed, key, attempt) → delay, with jitter a pure function of the
// three. The values were computed from the two policies this one
// replaced, which agreed on every row.
func TestFetchBackoffSchedule(t *testing.T) {
	t.Parallel()
	defaults := dataset.FetchOptions{}.WithDefaults()
	fast := dataset.FetchOptions{RetryBase: 20 * time.Millisecond, RetryCap: 200 * time.Millisecond}.WithDefaults()
	cases := []struct {
		opts    dataset.FetchOptions
		seed    uint64
		key     string
		attempt int
		want    time.Duration
	}{
		{defaults, 0, "manifest.json", 1, 48907997},
		{defaults, 0, "manifest.json", 2, 61000198},
		{defaults, 0, "manifest.json", 3, 129990777},
		{defaults, 7, "manifest.json", 1, 42969928},
		{defaults, 7, "passive-2018-01.bin", 2, 60127075},
		{defaults, 7, "w0/jobs", 3, 145350748},
		{defaults, 42, "w2/jobs/job-000001", 1, 43736622},
		{defaults, 42, "trace.bin", 4, 216495582},
		{defaults, 1 << 63, "", 1, 44183215},
		{defaults, 7, "w1/leases", 8, 1180074949}, // capped at 2s
		{fast, 7, "w1/jobs/job-000003", 1, 10075303},
		{fast, 7, "w1/jobs/job-000003", 4, 92976239},
		{fast, 7, "w1/jobs/job-000003", 5, 127254135}, // capped at 200ms
	}
	for _, c := range cases {
		o := c.opts
		o.Seed = c.seed
		if got := o.Backoff(c.key, c.attempt); got != c.want {
			t.Errorf("Backoff(seed=%d, %q, attempt %d) = %d, want %d", c.seed, c.key, c.attempt, got, c.want)
		}
	}
	if defaults.Attempts != 4 || defaults.RetryBase != 50*time.Millisecond || defaults.RetryCap != 2*time.Second {
		t.Errorf("defaults = %d attempts, base %v, cap %v; want 4, 50ms, 2s", defaults.Attempts, defaults.RetryBase, defaults.RetryCap)
	}
}
