package dataset

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// crcHeader mirrors serve.CRCHeader (defining it there would invert the
// dependency): the CRC32 of a streamed dataset file — a shard's
// manifest CRC, or the manifest's own — hex-encoded.
const crcHeader = "X-IoTLS-CRC32"

// FetchOptions configure a remote dataset pull. Their retry fields
// (Attempts, RetryBase, RetryCap, Seed, Sleep) are also the
// coordinator's policy for every worker-API call, so the whole study
// fabric retries on one backoff schedule.
type FetchOptions struct {
	// Client issues the requests; nil means http.DefaultClient.
	Client *http.Client

	// Attempts bounds how many times one shard (or the manifest) is
	// requested before Fetch gives up; 0 means 4.
	Attempts int
	// RetryBase and RetryCap shape the capped exponential backoff
	// between attempts; zero values mean 50ms and 2s.
	RetryBase time.Duration
	RetryCap  time.Duration
	// Seed derives the deterministic backoff jitter (splitmix64 over
	// seed, file name, attempt), so retry schedules are reproducible.
	Seed uint64

	// Telemetry receives dataset.fetch.* counters; nil is fine.
	Telemetry *telemetry.Registry

	// Sleep overrides the inter-attempt sleep (tests pass a no-op).
	Sleep func(time.Duration)
}

// WithDefaults fills every zero field with its documented default.
func (o FetchOptions) WithDefaults() FetchOptions {
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	if o.Attempts <= 0 {
		o.Attempts = 4
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 50 * time.Millisecond
	}
	if o.RetryCap <= 0 {
		o.RetryCap = 2 * time.Second
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	return o
}

// Fetch pulls the dataset served at baseURL (a serve job's
// `/jobs/{id}/dataset` endpoint) into destDir, fully verified: every
// shard is re-scanned against the manifest's record count, byte count,
// and CRC32 after download, a damaged or short stream is retried with
// capped exponential backoff (resuming from the received prefix when
// the server supports byte ranges), and the manifest file lands last —
// so destDir only ever becomes a readable dataset once every byte under
// it has been proven. The result is byte-identical to the server's
// dataset directory.
func Fetch(baseURL, destDir string, opts FetchOptions) (m *Manifest, err error) {
	f := &fetcher{base: strings.TrimRight(baseURL, "/"), dest: destDir, opts: opts.WithDefaults()}
	f.tel = f.opts.Telemetry
	end := timeOp(f.tel, "fetch")
	defer func() { end(err) }()
	if err := os.MkdirAll(destDir, 0o755); err != nil {
		return nil, fmt.Errorf("dataset: fetch dest: %w", err)
	}
	m, raw, err := f.pullManifest()
	if err != nil {
		return nil, err
	}
	for _, sh := range m.Shards {
		if err := f.pullShard(m, sh); err != nil {
			return nil, err
		}
	}
	if err := os.WriteFile(filepath.Join(destDir, ManifestName), raw, 0o644); err != nil {
		return nil, fmt.Errorf("dataset: install fetched manifest: %w", err)
	}
	f.tel.Counter("dataset.fetch.datasets").Inc()
	return m, nil
}

type fetcher struct {
	base string
	dest string
	opts FetchOptions
	tel  *telemetry.Registry
}

// Backoff returns the sleep before retry `attempt` (1-based) of key:
// capped exponential with deterministic jitter in [d/2, d). Call it on
// defaulted options (WithDefaults).
func (o FetchOptions) Backoff(key string, attempt int) time.Duration {
	d := o.RetryBase << (attempt - 1)
	if d <= 0 || d > o.RetryCap {
		d = o.RetryCap
	}
	h := mix64(o.Seed ^ uint64(attempt)*0x9e3779b97f4a7c15)
	for i := 0; i < len(key); i++ {
		h = mix64(h ^ uint64(key[i]))
	}
	jitter := float64(h>>11) / (1 << 53)
	return d/2 + time.Duration(float64(d/2)*jitter)
}

// mix64 is the SplitMix64 finalizer (as in internal/fault), local so
// the jitter schedule needs no shared PRNG state.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// pullManifest fetches and validates the remote manifest, returning the
// raw bytes so the installed copy is verbatim what the server holds.
func (f *fetcher) pullManifest() (*Manifest, []byte, error) {
	var lastErr error
	for attempt := 0; attempt < f.opts.Attempts; attempt++ {
		if attempt > 0 {
			f.tel.Counter("dataset.fetch.retries").Inc()
			f.opts.Sleep(f.opts.Backoff(ManifestName, attempt))
		}
		raw, err := f.get(f.base + "/" + ManifestName)
		if err != nil {
			lastErr = err
			continue
		}
		m, err := decodeManifest(raw, f.base)
		if err != nil {
			lastErr = err
			continue
		}
		return m, raw, nil
	}
	return nil, nil, fmt.Errorf("dataset: fetch manifest from %s: %w", f.base, lastErr)
}

// get issues one bounded GET and returns the body, verified against
// the server's CRC header when it sent one: a manifest damaged in
// transit into still-valid JSON would otherwise install silently.
func (f *fetcher) get(url string) ([]byte, error) {
	resp, err := f.opts.Client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if hdr := resp.Header.Get(crcHeader); hdr != "" {
		want, perr := strconv.ParseUint(hdr, 16, 32)
		if got := crc32.ChecksumIEEE(body); perr != nil || uint32(want) != got {
			f.tel.Counter("dataset.fetch.corrupt").Inc()
			return nil, corruptf("GET %s: body CRC %08x, server CRC header %q", url, got, hdr)
		}
	}
	return body, nil
}

// contentRangeStart parses the first-byte position out of a
// "bytes START-END/TOTAL" Content-Range header.
func contentRangeStart(h string) (int64, bool) {
	h = strings.TrimSpace(h)
	rest, ok := strings.CutPrefix(h, "bytes ")
	if !ok {
		return 0, false
	}
	dash := strings.IndexByte(rest, '-')
	if dash <= 0 {
		return 0, false
	}
	n, err := strconv.ParseInt(rest[:dash], 10, 64)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// pullShard downloads one shard with bounded verified retries.
func (f *fetcher) pullShard(m *Manifest, sh ShardInfo) error {
	path := filepath.Join(f.dest, sh.File)
	os.Remove(path)
	resumable := false
	var lastErr error
	for attempt := 0; attempt < f.opts.Attempts; attempt++ {
		if attempt > 0 {
			f.tel.Counter("dataset.fetch.retries").Inc()
			f.opts.Sleep(f.opts.Backoff(sh.File, attempt))
		}
		err, retryable := f.attemptShard(path, m, sh, &resumable)
		if err == nil {
			f.tel.Counter("dataset.fetch.shards").Inc()
			return nil
		}
		lastErr = err
		if !retryable {
			return fmt.Errorf("dataset: fetch shard %s: %w", sh.File, err)
		}
	}
	return fmt.Errorf("dataset: fetch shard %s: gave up after %d attempts: %w", sh.File, f.opts.Attempts, lastErr)
}

// attemptShard performs one download attempt. A truncated body keeps
// its prefix on disk when the server advertises byte ranges (the next
// attempt resumes with a Range request); a stream that downloads fully
// but fails verification is deleted and refetched whole.
func (f *fetcher) attemptShard(path string, m *Manifest, sh ShardInfo, resumable *bool) (err error, retryable bool) {
	var offset int64
	if *resumable {
		if fi, err := os.Stat(path); err == nil {
			offset = fi.Size()
		}
	}
	req, err := http.NewRequest(http.MethodGet, f.base+"/"+sh.File, nil)
	if err != nil {
		return err, false
	}
	if offset > 0 {
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-", offset))
	}
	resp, err := f.opts.Client.Do(req)
	if err != nil {
		// Transport errors (refused, reset, dropped mid-headers) are the
		// transient class the backoff exists for.
		return err, true
	}
	defer resp.Body.Close()
	*resumable = strings.Contains(resp.Header.Get("Accept-Ranges"), "bytes")

	appendTo := false
	switch resp.StatusCode {
	case http.StatusOK:
		// Full body (or the server ignored the Range): start over.
	case http.StatusPartialContent:
		appendTo = offset > 0
		if appendTo {
			// Trust but verify the splice point: a 206 is only appendable
			// if the server's Content-Range starts exactly at our local
			// prefix. A server that honours Range in form but not in
			// substance (resuming from 0, or from a stale offset) would
			// otherwise have its bytes spliced at the wrong position.
			// Fall back to a full restart instead.
			hdr := resp.Header.Get("Content-Range")
			if start, ok := contentRangeStart(hdr); !ok || start != offset {
				io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
				os.Remove(path)
				f.tel.Counter("dataset.fetch.restarts").Inc()
				return fmt.Errorf("GET %s: 206 Content-Range %q does not resume at offset %d", sh.File, hdr, offset), true
			}
		}
	case http.StatusRequestedRangeNotSatisfiable:
		// Stale partial (the shard changed or shrank): refetch whole.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		os.Remove(path)
		return fmt.Errorf("GET %s: %s", sh.File, resp.Status), true
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		code := resp.StatusCode
		return fmt.Errorf("GET %s: %s", sh.File, resp.Status),
			code >= 500 || code == http.StatusTooManyRequests || code == http.StatusConflict
	}
	if appendTo {
		f.tel.Counter("dataset.fetch.resumes").Inc()
	}

	flags := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if appendTo {
		flags = os.O_CREATE | os.O_WRONLY | os.O_APPEND
	}
	out, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return err, false
	}
	n, copyErr := io.Copy(out, resp.Body)
	closeErr := out.Close()
	f.tel.Counter("dataset.fetch.bytes").Add(n)
	if copyErr == nil {
		copyErr = closeErr
	}
	if copyErr != nil {
		if !*resumable {
			os.Remove(path)
		}
		return fmt.Errorf("stream %s: %w", sh.File, copyErr), true
	}

	// The stream ended cleanly — now prove it: re-scan the file against
	// the manifest's record count, byte count, and CRC32, and cross-check
	// the server's CRC header against the manifest entry it came with.
	if err := scanShard(f.dest, m.Gzip, sh, func([]byte) error { return nil }); err != nil {
		f.tel.Counter("dataset.fetch.corrupt").Inc()
		os.Remove(path)
		return err, errors.Is(err, ErrCorrupt)
	}
	if hdr := resp.Header.Get(crcHeader); hdr != "" {
		got, err := strconv.ParseUint(hdr, 16, 32)
		if err != nil || uint32(got) != sh.CRC32 {
			f.tel.Counter("dataset.fetch.corrupt").Inc()
			os.Remove(path)
			return corruptf("shard %s: server CRC header %q, manifest says %08x", sh.File, hdr, sh.CRC32), true
		}
	}
	return nil, false
}
