// Package fleet generates parameterized, seeded synthetic device
// fleets: it samples the catalog's behavioural dimensions — TLS
// library × protocol version era × root-store class × validation
// policy × resilience policy × destination mix — into 10k-1M device
// instances that run through the exact same engine as the 40-device
// catalog. A fleet is a pure function of its Spec: the same (N, Seed)
// always builds the same devices, and device i's sample stream is
// independent of N, so a 10k fleet is a prefix of the 100k fleet with
// the same seed and device-subset sharding composes across fleet
// sizes.
//
// Scale discipline: everything that can be shared across devices is —
// suite lists, signature-algorithm lists, root-store pools, slot
// timelines, resilience policies, and the destination host pool (the
// cloud builds one TLS endpoint per unique host, so fleet destinations
// draw from a bounded pool instead of minting per-device hosts). The
// per-device footprint is the Device struct, its destination slice,
// and its materialised instance configurations.
package fleet

import (
	"fmt"

	"repro/internal/certs"
	"repro/internal/ciphers"
	"repro/internal/clock"
	"repro/internal/device"
	"repro/internal/rootstore"
	"repro/internal/tlssim"
)

// DefaultHosts is the default shared destination host-pool size.
const DefaultHosts = 48

// DefaultMaxDestinations is the default per-device destination cap.
const DefaultMaxDestinations = 3

// Spec parameterises a synthetic fleet.
type Spec struct {
	// N is the fleet size (required, > 0).
	N int
	// Seed selects the sample; every artifact of a fleet study is a
	// pure function of (N, Seed) and the study config.
	Seed uint64
	// Hosts bounds the shared destination host pool. Every device's
	// destinations are drawn from it, so the cloud's per-unique-host
	// endpoint cost stays fixed as N grows. 0 means DefaultHosts.
	Hosts int
	// MaxDestinations caps destinations per device (each device samples
	// 1..MaxDestinations). 0 means DefaultMaxDestinations.
	MaxDestinations int
}

func (sp Spec) withDefaults() Spec {
	if sp.Hosts <= 0 {
		sp.Hosts = DefaultHosts
	}
	if sp.MaxDestinations <= 0 {
		sp.MaxDestinations = DefaultMaxDestinations
	}
	return sp
}

// rng is a splitmix64 stream: tiny, fast, and deterministic across
// platforms — the fleet's only randomness source.
type rng struct{ x uint64 }

func (r *rng) next() uint64 {
	r.x += 0x9e3779b97f4a7c15
	z := r.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// deviceRng seeds device i's private stream. Mixing the index in (and
// never the fleet size) keeps device i's sample identical at any N.
func deviceRng(seed uint64, i int) rng {
	return rng{x: seed ^ (uint64(i)+1)*0xd1342543de82ef95}
}

// Suite and signature-algorithm lists shared by every fleet device of
// the same stack era (the sharing is what keeps a 1M-device fleet's
// footprint dominated by the Device structs, not their configs).
var (
	fleetSuitesOld = []ciphers.Suite{
		ciphers.TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
		ciphers.TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA,
		ciphers.TLS_RSA_WITH_AES_128_GCM_SHA256,
		ciphers.TLS_RSA_WITH_AES_128_CBC_SHA,
		ciphers.TLS_RSA_WITH_AES_256_CBC_SHA,
		ciphers.TLS_RSA_WITH_3DES_EDE_CBC_SHA,
		ciphers.TLS_RSA_WITH_RC4_128_SHA,
	}
	fleetSuitesClean = []ciphers.Suite{
		ciphers.TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
		ciphers.TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384,
		ciphers.TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305,
		ciphers.TLS_RSA_WITH_AES_128_GCM_SHA256,
		ciphers.TLS_RSA_WITH_AES_128_CBC_SHA,
	}
	fleetSuitesTLS13 = append([]ciphers.Suite{
		ciphers.TLS_AES_128_GCM_SHA256,
		ciphers.TLS_AES_256_GCM_SHA384,
		ciphers.TLS_CHACHA20_POLY1305_SHA256,
	}, fleetSuitesClean...)
	fleetSuitesEmbedded = []ciphers.Suite{
		ciphers.TLS_RSA_WITH_AES_128_CBC_SHA,
		ciphers.TLS_RSA_WITH_AES_256_CBC_SHA,
		ciphers.TLS_RSA_WITH_3DES_EDE_CBC_SHA,
		ciphers.TLS_RSA_WITH_RC4_128_SHA,
		ciphers.TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA,
	}
	fleetSuitesRSAOnly = []ciphers.Suite{
		ciphers.TLS_RSA_WITH_AES_128_GCM_SHA256,
		ciphers.TLS_RSA_WITH_AES_256_GCM_SHA384,
		ciphers.TLS_RSA_WITH_AES_128_CBC_SHA,
		ciphers.TLS_RSA_WITH_AES_256_CBC_SHA,
	}

	fleetSigalgsModern = []ciphers.SignatureAlgorithm{
		ciphers.ED25519,
		ciphers.RSA_PKCS1_SHA256,
		ciphers.RSA_PKCS1_SHA1,
	}
	fleetSigalgsLegacy = []ciphers.SignatureAlgorithm{
		ciphers.ED25519,
		ciphers.RSA_PKCS1_SHA1,
	}

	fleetGroups       = []uint16{29, 23, 24}
	fleetPointFormats = []uint8{0}
)

// stack is one library/version era archetype.
type stack struct {
	name    string
	lib     *tlssim.LibraryProfile
	min     ciphers.Version
	max     ciphers.Version
	suites  []ciphers.Suite
	sigalgs []ciphers.SignatureAlgorithm
	ticket  bool
	renego  bool
	noSNI   bool
}

// stacks is the library × version-era dimension, shaped after the
// catalog's instance families.
var stacks = []stack{
	{name: "openssl-old", lib: tlssim.ProfileOpenSSL, min: ciphers.TLS10, max: ciphers.TLS12,
		suites: fleetSuitesOld, sigalgs: fleetSigalgsLegacy, ticket: true, renego: true},
	{name: "openssl-12", lib: tlssim.ProfileOpenSSL, min: ciphers.TLS12, max: ciphers.TLS12,
		suites: fleetSuitesClean, sigalgs: fleetSigalgsModern, ticket: true, renego: true},
	{name: "openssl-13", lib: tlssim.ProfileOpenSSL, min: ciphers.TLS12, max: ciphers.TLS13,
		suites: fleetSuitesTLS13, sigalgs: fleetSigalgsModern, ticket: true, renego: true},
	{name: "mbedtls", lib: tlssim.ProfileMbedTLS, min: ciphers.TLS11, max: ciphers.TLS12,
		suites: fleetSuitesEmbedded, sigalgs: fleetSigalgsLegacy},
	{name: "wolfssl", lib: tlssim.ProfileWolfSSL, min: ciphers.TLS10, max: ciphers.TLS12,
		suites: fleetSuitesEmbedded, sigalgs: fleetSigalgsLegacy, noSNI: true},
	{name: "jsse", lib: tlssim.ProfileJavaJSSE, min: ciphers.TLS11, max: ciphers.TLS12,
		suites: fleetSuitesClean, sigalgs: fleetSigalgsModern, ticket: true},
	{name: "gnutls", lib: tlssim.ProfileGnuTLS, min: ciphers.TLS10, max: ciphers.TLS12,
		suites: fleetSuitesOld, sigalgs: fleetSigalgsLegacy, renego: true},
	{name: "securetransport", lib: tlssim.ProfileSecureTransport, min: ciphers.TLS10, max: ciphers.TLS12,
		suites: fleetSuitesRSAOnly, sigalgs: fleetSigalgsLegacy, ticket: true},
}

// validations is the certificate-validation policy dimension, weighted
// towards full validation like the catalog (Table 7: 7 of 32 devices
// skipped validation entirely).
var validations = []tlssim.ValidationMode{
	tlssim.ValidateFull, tlssim.ValidateFull, tlssim.ValidateFull, tlssim.ValidateFull,
	tlssim.ValidateFull, tlssim.ValidateFull,
	tlssim.ValidateNoHostname,
	tlssim.ValidateNone,
}

// template builds the shared device.Template for one (stack,
// validation) cell. The returned config aliases the stack's shared
// suite/sigalg slices: the TLS client treats them as read-only, and
// copying them per device is exactly the per-device cost a 1M fleet
// cannot afford.
func template(st stack, val tlssim.ValidationMode) device.Template {
	return func(roots *certs.Pool, clk clock.Clock) *tlssim.ClientConfig {
		return &tlssim.ClientConfig{
			Library:               st.lib,
			MinVersion:            st.min,
			MaxVersion:            st.max,
			CipherSuites:          st.suites,
			SignatureAlgorithms:   st.sigalgs,
			SupportedGroups:       fleetGroups,
			ECPointFormats:        fleetPointFormats,
			SendSessionTicket:     st.ticket,
			SendRenegotiationInfo: st.renego,
			SendSNI:               !st.noSNI,
			Roots:                 roots,
			Validation:            val,
			Clock:                 clk,
		}
	}
}

// serverProfiles weights the host pool's endpoint capabilities towards
// modern servers, with a legacy tail (§5.1: server-limited security).
var serverProfiles = []device.ServerProfile{
	device.SrvModernPFS, device.SrvModernPFS, device.SrvModernPFS,
	device.SrvModern12, device.SrvModern12,
	device.SrvRSAOnly,
	device.SrvLegacy11,
	device.SrvLegacy10,
}

// hostPool builds the shared destination endpoints: host names and
// their server profiles are a function of (seed, index) only.
func hostPool(seed uint64, n int) []device.Destination {
	out := make([]device.Destination, n)
	for i := range out {
		r := rng{x: seed ^ 0xa24baed4963ee407 ^ uint64(i)*0x9e3779b97f4a7c15}
		out[i] = device.Destination{
			Host:   fmt.Sprintf("edge-%03d.fleet.example", i),
			Server: serverProfiles[r.intn(len(serverProfiles))],
		}
	}
	return out
}

// rootPools builds the shared root-store classes. Every class includes
// the operational CAs so legitimate cloud traffic validates; the
// classes differ in how much of the common and deprecated sets they
// carry (the catalog's spread from lean embedded stores to
// never-pruned vendor images).
func rootPools(u *rootstore.Universe) []*certs.Pool {
	at := device.ActiveSnapshot.Start()
	common := u.CommonCertificates(at)
	deprecated := u.DeprecatedCertificates(at)
	operational := device.OperationalCAs(u)

	lean := certs.NewPool()
	for _, ca := range operational {
		lean.Add(ca.Cert())
	}

	full := certs.NewPool()
	for _, c := range common {
		full.Add(c)
	}

	dated := certs.NewPool()
	for _, c := range common {
		dated.Add(c)
	}
	for i, c := range deprecated {
		if i%3 == 0 {
			dated.Add(c)
		}
	}

	sparse := certs.NewPool()
	for _, ca := range operational {
		sparse.Add(ca.Cert())
	}
	for i, c := range common {
		if i%2 == 0 {
			sparse.Add(c)
		}
	}
	return []*certs.Pool{full, dated, lean, sparse}
}

// resiliences is the shared retry-policy dimension.
var resiliences = func() []*device.Resilience {
	var out []*device.Resilience
	for _, c := range []device.Category{device.CatCamera, device.CatHub, device.CatAppliance} {
		r := device.DefaultResilience(c)
		out = append(out, &r)
	}
	return out
}()

// MaxN is the largest fleet size: the size of ID's fixed-width
// identifier space.
const MaxN = 10_000_000

// ID renders fleet device i's stable identifier.
func ID(i int) string { return fmt.Sprintf("fleet-%07d", i) }

// Devices samples the fleet's device models against u. The result is
// deterministic in (spec, u); NewRegistry is the usual entry point.
func Devices(u *rootstore.Universe, spec Spec) []*device.Device {
	spec = spec.withDefaults()
	hosts := hostPool(spec.Seed, spec.Hosts)
	pools := rootPools(u)

	// Slot timelines are shared per (stack, validation, upgrade) cell:
	// a slot is read-only after construction, so devices sampling the
	// same cell point at one Slot object.
	type cell struct {
		st, upgrade int // upgrade: -1 for single-phase
		val         int
	}
	slots := make(map[cell]*Slot)
	slotFor := func(c cell) *Slot {
		if s, ok := slots[c]; ok {
			return s
		}
		phases := []device.Phase{{Template: template(stacks[c.st], validations[c.val])}}
		if c.upgrade >= 0 {
			// Mid-study firmware upgrade to a newer stack era (the
			// longitudinal behaviour changes of §5.1). The boundary month
			// is a function of the cell, keeping the timeline shared.
			from := clock.Month{Year: 2019, Mon: 1}
			phases = append(phases, device.Phase{
				From:     from,
				Template: template(stacks[c.upgrade], validations[c.val]),
			})
		}
		s := &device.Slot{Label: "main", Phases: phases}
		slots[c] = s
		return s
	}

	devs := make([]*device.Device, spec.N)
	for i := range devs {
		r := deviceRng(spec.Seed, i)
		st := r.intn(len(stacks))
		val := r.intn(len(validations))
		upgrade := -1
		// One in five devices upgrades mid-study to the TLS 1.3 stack.
		if r.intn(5) == 0 && stacks[st].max < ciphers.TLS13 {
			upgrade = 2 // openssl-13
		}
		cat := device.Categories[r.intn(len(device.Categories))]

		ndst := 1 + r.intn(spec.MaxDestinations)
		dsts := make([]device.Destination, 0, ndst)
		seen := make(map[int]bool, ndst)
		for len(dsts) < ndst {
			h := r.intn(len(hosts))
			if seen[h] {
				continue
			}
			seen[h] = true
			dst := hosts[h]
			dst.Slot = 0
			dst.Boot = len(dsts) == 0
			dst.FirstParty = len(dsts) == 0
			dst.MonthlyConns = 20 + r.intn(4000)
			dsts = append(dsts, dst)
		}

		devs[i] = &device.Device{
			ID:           ID(i),
			Name:         fmt.Sprintf("Fleet Device %d", i),
			Category:     cat,
			PassiveOnly:  true,
			Slots:        []*device.Slot{slotFor(cell{st: st, upgrade: upgrade, val: val})},
			Destinations: dsts,
			ActiveFrom:   device.StudyStart,
			ActiveTo:     device.ActiveSnapshot,
			Roots:        pools[r.intn(len(pools))],
			Resilience:   resiliences[r.intn(len(resiliences))],
		}
	}
	return devs
}

// Slot aliases device.Slot for the internal slot cache.
type Slot = device.Slot

// NewRegistry builds a fleet registry against a fresh CA universe:
// the synthetic counterpart of device.NewRegistry.
func NewRegistry(clk clock.Clock, spec Spec) *device.Registry {
	u := rootstore.NewUniverse()
	return device.NewRegistryDevices(u, clk, Devices(u, spec))
}
