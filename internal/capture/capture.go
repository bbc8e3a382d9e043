// Package capture implements the gateway's passive measurement pipeline:
// a byte-level sniffer that reassembles TLS records from mirrored
// traffic (the netem.Mirror integration), extracts handshake metadata
// exactly as the paper's gateway did, and a queryable store of
// handshake observations that every longitudinal analysis consumes.
//
// The sniffer parses real wire bytes — it shares no state with the
// client or server engines, so analyses are honest recoveries from
// traffic, not reads of ground truth.
package capture

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ciphers"
	"repro/internal/clock"
	"repro/internal/fingerprint"
	"repro/internal/netem"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Observation is one observed TLS connection.
type Observation struct {
	// Device is the source host (the device ID).
	Device string
	// Host and Port identify the destination.
	Host string
	Port int
	// Time is the virtual time of the connection; Month its aggregation
	// bucket.
	Time  time.Time
	Month clock.Month
	// Weight is the number of real-world connections this observation
	// stands for (the generator samples one handshake per
	// device/destination/month and weights it).
	Weight int

	// SawClientHello/SawServerHello record handshake progress.
	SawClientHello bool
	SawServerHello bool
	// Established is true when the server completed the handshake
	// (sent ChangeCipherSpec after the client's flight).
	Established bool

	// Client-side features.
	SNI                 string
	AdvertisedMax       ciphers.Version
	AdvertisedVersions  []ciphers.Version
	AdvertisedSuites    []ciphers.Suite
	RequestedOCSPStaple bool
	Fingerprint         fingerprint.Fingerprint

	// Server-side features.
	NegotiatedVersion ciphers.Version
	NegotiatedSuite   ciphers.Suite
	StapledOCSP       bool

	// Alerts seen in either direction.
	ClientAlert *wire.Alert
	ServerAlert *wire.Alert

	// AppDataRecords counts application-data records after
	// establishment.
	AppDataRecords int
}

// AdvertisesInsecure reports whether the ClientHello offered any
// insecure suite (Figure 2's per-connection predicate).
func (o *Observation) AdvertisesInsecure() bool {
	return ciphers.AnyInsecure(o.AdvertisedSuites)
}

// EstablishedInsecure reports whether the connection was established
// with an insecure suite.
func (o *Observation) EstablishedInsecure() bool {
	return o.Established && o.NegotiatedSuite.Insecure()
}

// EstablishedStrong reports whether the connection was established with
// a strong (PFS) suite (Figure 3's predicate).
func (o *Observation) EstablishedStrong() bool {
	return o.Established && o.NegotiatedSuite.Strong()
}

// storeShards is the number of lock-striped buckets the store spreads
// devices over. Concurrent sniffers for different devices publish
// without contending on one mutex.
const storeShards = 16

// storeShard is one lock-striped observation bucket.
type storeShard struct {
	mu  sync.Mutex
	obs []*Observation
}

// Store accumulates observations and revocation events. Observations
// are sharded by device-ID hash so concurrent publishes scale; every
// read-side accessor presents them in a canonical order that is
// independent of arrival order, which is what keeps parallel and
// sequential study runs byte-identical downstream.
type Store struct {
	mu  sync.Mutex // guards tel and rev
	tel *telemetry.Registry
	rev []RevocationEvent

	// hot holds the pre-resolved publish-path counters for the attached
	// registry. It is swapped atomically by SetTelemetry so Add never
	// takes the store mutex just to count.
	hot atomic.Pointer[storeCounters]

	shards [storeShards]storeShard
	count  atomic.Int64
	// gen counts completed Adds; sorted caches the canonical snapshot
	// for the generation it was built at.
	gen    atomic.Int64
	sorted atomic.Pointer[sortedSnapshot]
}

// storeCounters caches the capture counters the publish path bumps per
// observation (and the sniffers bump per record). Registry.Counter is a
// lock-guarded map lookup; resolving once per SetTelemetry keeps the
// hot path to plain atomic adds.
type storeCounters struct {
	tel          *telemetry.Registry
	observations *telemetry.Counter
	weighted     *telemetry.Counter
	established  *telemetry.Counter
	records      *telemetry.Counter
	poisoned     *telemetry.Counter
}

func newStoreCounters(tel *telemetry.Registry) *storeCounters {
	return &storeCounters{
		tel:          tel,
		observations: tel.Counter("capture.observations"),
		weighted:     tel.Counter("capture.weighted_conns"),
		established:  tel.Counter("capture.observations.established"),
		records:      tel.Counter("capture.records"),
		poisoned:     tel.Counter("capture.streams.poisoned"),
	}
}

type sortedSnapshot struct {
	gen int64
	obs []*Observation
}

// NewStore returns an empty store.
func NewStore() *Store {
	s := &Store{}
	s.hot.Store(newStoreCounters(nil))
	return s
}

// SetTelemetry attaches a metrics registry; the store then counts
// observations, revocation events and export throughput. A nil
// registry (the default) disables counting.
func (s *Store) SetTelemetry(r *telemetry.Registry) {
	s.mu.Lock()
	s.tel = r
	s.mu.Unlock()
	s.hot.Store(newStoreCounters(r))
}

// Telemetry returns the attached registry (possibly nil; nil registries
// accept all instrument calls as no-ops).
func (s *Store) Telemetry() *telemetry.Registry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tel
}

// shardFor hashes a device ID onto its bucket (FNV-1a).
func shardFor(device string) int {
	var h uint32 = 2166136261
	for i := 0; i < len(device); i++ {
		h ^= uint32(device[i])
		h *= 16777619
	}
	return int(h % storeShards)
}

// Add appends an observation.
func (s *Store) Add(o *Observation) {
	hot := s.hot.Load()
	s.prepare(o, hot)
	sh := &s.shards[shardFor(o.Device)]
	sh.mu.Lock()
	sh.obs = append(sh.obs, o)
	sh.mu.Unlock()
	s.count.Add(1)
	s.gen.Add(1)
}

// AddAll appends a batch of observations — dataset.Restore's bulk
// load — hoisting the device-shard hash out of the per-observation
// path: consecutive observations for the same device (the natural shape
// of restore streams) hash once, and each touched shard lock is taken
// once per run of same-shard observations instead of once per
// observation. The result is the store a per-observation Add would
// build.
func (s *Store) AddAll(obs []*Observation) {
	if len(obs) == 0 {
		return
	}
	hot := s.hot.Load()
	lastDevice := ""
	shard := -1
	start := 0
	flush := func(end int) {
		if shard < 0 || start == end {
			return
		}
		sh := &s.shards[shard]
		sh.mu.Lock()
		sh.obs = append(sh.obs, obs[start:end]...)
		sh.mu.Unlock()
	}
	for i, o := range obs {
		s.prepare(o, hot)
		if o.Device != lastDevice || shard < 0 {
			next := shardFor(o.Device)
			if next != shard {
				flush(i)
				shard, start = next, i
			}
			lastDevice = o.Device
		}
	}
	flush(len(obs))
	s.count.Add(int64(len(obs)))
	s.gen.Add(int64(len(obs)))
}

// prepare normalises an observation and counts it.
func (s *Store) prepare(o *Observation, hot *storeCounters) {
	if o.Weight <= 0 {
		o.Weight = 1
	}
	o.Month = clock.MonthOf(o.Time)
	hot.observations.Inc()
	hot.weighted.Add(int64(o.Weight))
	if o.Established {
		hot.established.Inc()
	}
	if o.ClientAlert != nil {
		hot.tel.Counter("capture.alerts.client." + o.ClientAlert.Description.String()).Inc()
	}
	if o.ServerAlert != nil {
		hot.tel.Counter("capture.alerts.server." + o.ServerAlert.Description.String()).Inc()
	}
}

// TakeMonth removes and returns every observation and revocation event
// belonging to month m, each in canonical order — the streaming engine's
// spill primitive. The core layer calls it from the traffic generator's
// month barrier, once the month's dialers have returned and
// netem.Network.Settle has found no mirrored connection open (each
// sniffer publishes straight into the store when its connection's
// client end closes): all of month m's records are then in the store
// and no later month has begun. Draining there keeps peak store size
// bounded by one month's traffic instead of the whole run's. Because
// the canonical observation order begins with the timestamp, and every
// month's timestamps precede the next month's,
// sorting each drained month independently yields exactly the per-month
// groups a whole-run canonical sort would: the spilled shard bytes match
// the bulk path's.
func (s *Store) TakeMonth(m clock.Month) ([]*Observation, []RevocationEvent) {
	var obs []*Observation
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		kept := sh.obs[:0]
		for _, o := range sh.obs {
			if o.Month == m {
				obs = append(obs, o)
			} else {
				kept = append(kept, o)
			}
		}
		// Clear the tail so drained observations are collectable.
		for j := len(kept); j < len(sh.obs); j++ {
			sh.obs[j] = nil
		}
		sh.obs = kept
		sh.mu.Unlock()
	}
	sortObservations(obs)
	s.count.Add(-int64(len(obs)))
	// Invalidate the sorted-snapshot cache: a snapshot built before the
	// drain must not be served for the store's new contents.
	s.gen.Add(1)

	s.mu.Lock()
	var revs []RevocationEvent
	keptRev := s.rev[:0]
	for _, ev := range s.rev {
		if clock.MonthOf(ev.Time) == m {
			revs = append(revs, ev)
		} else {
			keptRev = append(keptRev, ev)
		}
	}
	s.rev = keptRev
	s.mu.Unlock()
	sortRevocations(revs)
	return obs, revs
}

// All returns every observation in canonical order. The returned slice
// is a shared snapshot: callers must not modify it.
func (s *Store) All() []*Observation {
	if c := s.sorted.Load(); c != nil && c.gen == s.gen.Load() {
		return c.obs
	}
	gen := s.gen.Load()
	out := make([]*Observation, 0, s.count.Load())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		out = append(out, sh.obs...)
		sh.mu.Unlock()
	}
	sortObservations(out)
	// Publish the snapshot only if no Add completed while building it;
	// a stale publish would serve a missing observation until the next
	// Add bumps the generation.
	if s.gen.Load() == gen {
		s.sorted.Store(&sortedSnapshot{gen: gen, obs: out})
	}
	return out
}

// ByDevice returns observations for one device.
func (s *Store) ByDevice(id string) []*Observation {
	var out []*Observation
	for _, o := range s.All() {
		if o.Device == id {
			out = append(out, o)
		}
	}
	return out
}

// Len reports the number of stored observations (unweighted).
func (s *Store) Len() int {
	return int(s.count.Load())
}

// TotalWeight reports the weighted connection count.
func (s *Store) TotalWeight() int {
	total := 0
	for _, o := range s.All() {
		total += o.Weight
	}
	return total
}

// Collector wires the store into a netem gateway: it is a MirrorFactory
// whose sniffers publish observations on connection close. Weights are
// announced by the traffic generator before each dial.
type Collector struct {
	Store *Store

	mu         sync.Mutex
	nextWeight map[string]int // "src->host:port" -> weight
}

// NewCollector builds a collector around a store.
func NewCollector(store *Store) *Collector {
	return &Collector{Store: store, nextWeight: make(map[string]int)}
}

// WillDial announces that the next connection from src to host carries
// the given weight.
func (c *Collector) WillDial(src, host string, port int, weight int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextWeight[weightKey(src, host, port)] = weight
}

func (c *Collector) takeWeight(src, host string, port int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := weightKey(src, host, port)
	w := c.nextWeight[key]
	delete(c.nextWeight, key)
	if w <= 0 {
		w = 1
	}
	return w
}

func weightKey(src, host string, port int) string {
	return src + "->" + host + ":" + strconv.Itoa(port)
}

// Mirror implements netem.MirrorFactory. Port-443 connections get a TLS
// sniffer; port-80 connections get a plaintext sniffer that detects
// revocation-protocol fetches (Table 8's CRL/OCSP evidence).
func (c *Collector) Mirror(meta netem.ConnMeta) netem.Mirror {
	switch meta.DstPort {
	case 443:
		return newSniffer(c, meta)
	case 80:
		return newPlainSniffer(c, meta)
	default:
		return nil
	}
}

// RevocationKind classifies a revocation fetch.
type RevocationKind int

const (
	// RevocationOCSP is an OCSP status query.
	RevocationOCSP RevocationKind = iota
	// RevocationCRL is a CRL download.
	RevocationCRL
)

// String implements fmt.Stringer.
func (k RevocationKind) String() string {
	if k == RevocationCRL {
		return "CRL"
	}
	return "OCSP"
}

// RevocationEvent records one observed revocation fetch.
type RevocationEvent struct {
	Device string
	Host   string
	Kind   RevocationKind
	Time   time.Time
}

// AddRevocation appends a revocation event.
func (s *Store) AddRevocation(e RevocationEvent) {
	s.mu.Lock()
	s.rev = append(s.rev, e)
	tel := s.tel
	s.mu.Unlock()
	tel.Counter("capture.revocations").Inc()
	tel.Counter("capture.revocations." + e.Kind.String()).Inc()
}

// Revocations returns all revocation events in canonical order
// (time, device, host, kind), independent of arrival order.
func (s *Store) Revocations() []RevocationEvent {
	s.mu.Lock()
	out := append([]RevocationEvent(nil), s.rev...)
	s.mu.Unlock()
	sortRevocations(out)
	return out
}

// sortRevocations orders revocation events canonically (time, device,
// host, kind) — like sortObservations, a time-first total order, so
// per-month groups of a whole-run sort equal independently sorted
// months.
func sortRevocations(out []RevocationEvent) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if !a.Time.Equal(b.Time) {
			return a.Time.Before(b.Time)
		}
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		if a.Host != b.Host {
			return a.Host < b.Host
		}
		return a.Kind < b.Kind
	})
}

// plainSniffer watches a plaintext connection for revocation-protocol
// request lines.
type plainSniffer struct {
	collector *Collector
	meta      netem.ConnMeta

	mu   sync.Mutex
	head []byte
	done bool
}

func newPlainSniffer(c *Collector, meta netem.ConnMeta) *plainSniffer {
	return &plainSniffer{collector: c, meta: meta}
}

// ClientBytes implements netem.Mirror.
func (p *plainSniffer) ClientBytes(b []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done || len(p.head) > 256 {
		return
	}
	p.head = append(p.head, b...)
	head := string(p.head)
	var kind RevocationKind
	switch {
	case strings.HasPrefix(head, "OCSP-CHECK"):
		kind = RevocationOCSP
	case strings.HasPrefix(head, "CRL-FETCH"):
		kind = RevocationCRL
	default:
		return
	}
	p.done = true
	p.collector.Store.AddRevocation(RevocationEvent{
		Device: p.meta.SrcHost,
		Host:   p.meta.DstHost,
		Kind:   kind,
		Time:   p.meta.At,
	})
}

// ServerBytes implements netem.Mirror.
func (p *plainSniffer) ServerBytes([]byte) {}

// CloseMirror implements netem.Mirror.
func (p *plainSniffer) CloseMirror() {}
