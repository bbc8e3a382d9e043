// Package device models the 40 consumer IoT devices of the IoTLS
// testbed (Table 1 of the paper) as behavioural ground truth: each
// device carries one or more TLS instances (library + configuration),
// a destination set, a root store, longitudinal configuration phases,
// and the vulnerability/fallback behaviours the paper measured.
//
// The models are the *simulated devices*; the measurement pipeline
// (mitm, probe, capture, analysis) must recover the paper's tables and
// figures from their observable traffic alone.
package device

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/certs"
	"repro/internal/clock"
	"repro/internal/rootstore"
	"repro/internal/tlssim"
)

// Category is a Table 1 device category.
type Category string

// The six Table 1 categories.
const (
	CatCamera     Category = "Cameras"
	CatHub        Category = "Smart Hubs"
	CatAutomation Category = "Home Automation"
	CatTV         Category = "TV"
	CatAudio      Category = "Audio"
	CatAppliance  Category = "Appliances"
)

// Categories lists the Table 1 categories in column order.
var Categories = []Category{CatCamera, CatHub, CatAutomation, CatTV, CatAudio, CatAppliance}

// ServerProfile describes what a destination's cloud endpoint supports —
// the "server side" that limits many devices' established security
// (§5.1: "the security of TLS connections from IoT devices in many
// cases is limited by servers rather than the devices themselves").
type ServerProfile int

const (
	// SrvModernPFS: TLS up to 1.3, prefers ECDHE-GCM (strong).
	SrvModernPFS ServerProfile = iota
	// SrvModern12: TLS up to 1.2, prefers ECDHE (strong).
	SrvModern12
	// SrvRSAOnly: TLS up to 1.2 but prefers plain-RSA key exchange —
	// established connections lack forward secrecy.
	SrvRSAOnly
	// SrvLegacy11: TLS up to 1.1 only, RSA key exchange.
	SrvLegacy11
	// SrvLegacy10: TLS up to 1.0 only, RSA key exchange.
	SrvLegacy10
	// SrvLegacyRC4: TLS up to 1.0, prefers RC4 — the servers behind the
	// only two devices that *established* insecure-cipher connections
	// (Wink Hub 2 and LG TV, Figure 2).
	SrvLegacyRC4
)

// String implements fmt.Stringer.
func (p ServerProfile) String() string {
	switch p {
	case SrvModernPFS:
		return "modern-pfs"
	case SrvModern12:
		return "modern-12"
	case SrvRSAOnly:
		return "rsa-only"
	case SrvLegacy11:
		return "legacy-11"
	case SrvLegacy10:
		return "legacy-10"
	case SrvLegacyRC4:
		return "legacy-rc4"
	default:
		return "unknown"
	}
}

// Destination is one network endpoint a device talks to.
type Destination struct {
	// Host is the DNS name (SNI value).
	Host string
	// FirstParty marks vendor-operated endpoints.
	FirstParty bool
	// Slot selects which TLS instance serves this destination.
	Slot int
	// Boot marks destinations contacted on power-up — the connections
	// the paper's reboot-triggered active experiments observe.
	Boot bool
	// MonthlyConns is the passive-experiment connection volume per month.
	MonthlyConns int
	// Server selects the cloud endpoint's capability profile.
	Server ServerProfile
	// AfterLogin marks destinations contacted only after the device's
	// first boot connection succeeds (e.g. post-login endpoints). Under
	// full interception these never appear; TrafficPassthrough exposes
	// them — the paper's ≈20.4% additional hostnames (§4.2).
	AfterLogin bool
}

// Template builds a TLS instance configuration for a device. Templates
// close over protocol parameters; the device supplies trust anchors.
type Template func(roots *certs.Pool, clk clock.Clock) *tlssim.ClientConfig

// Phase is one configuration era of a TLS instance slot. Phases model
// the longitudinal behaviour changes of §5.1 (e.g. Apple TV adopting
// TLS 1.3 in 5/2019).
type Phase struct {
	// From is the first month the phase applies; the zero Month means
	// "from the beginning of the study".
	From clock.Month
	// Template builds the configuration.
	Template Template
}

// Fallback models downgrade-on-failure behaviour (Table 5).
type Fallback struct {
	// OnIncomplete triggers the fallback after an incomplete handshake
	// (no ServerHello).
	OnIncomplete bool
	// OnFailed triggers the fallback after a failed handshake.
	OnFailed bool
	// Template builds the downgraded configuration.
	Template Template
}

// Slot is a TLS instance slot: a timeline of configurations plus
// optional fallback behaviour. A device with multiple slots has
// multiple TLS instances (§5.3).
type Slot struct {
	Label    string
	Phases   []Phase
	Fallback *Fallback
}

// RootPlan encodes a Table 9 row: how much of each probe set the device
// trusts and how many probe trials are conclusive.
type RootPlan struct {
	CommonIncluded       int
	CommonConclusive     int
	DeprecatedIncluded   int
	DeprecatedConclusive int
}

// Device is one modelled IoT device.
type Device struct {
	// ID is the stable machine identifier (also the network source
	// host name), e.g. "amazon-echo-dot".
	ID string
	// Name is the Table 1 display name.
	Name string
	// Category is the Table 1 category.
	Category Category
	// PassiveOnly marks the 8 devices used only in passive experiments
	// (the * rows of Table 1).
	PassiveOnly bool
	// RebootSuitable is false for appliances excluded from the
	// reboot-driven probing experiments (§5.2).
	RebootSuitable bool
	// Slots are the device's TLS instances.
	Slots []*Slot
	// Destinations is the endpoint set.
	Destinations []Destination
	// ActiveFrom/ActiveTo bound the months the device generated passive
	// traffic (gray cells outside).
	ActiveFrom, ActiveTo clock.Month
	// Roots is the device's trusted root store.
	Roots *certs.Pool
	// Plan is the Table 9 root-store plan; nil for devices that are not
	// probe targets.
	Plan *RootPlan
	// Resilience overrides the category-default retry policy; nil means
	// DefaultResilience(Category). See ResiliencePolicy.
	Resilience *Resilience
	// SensitiveToken, when non-empty, is included in the device's
	// application payloads — the "potentially sensitive data" the paper
	// recovered from 7 of the 11 intercepted devices (§5.2).
	SensitiveToken string
	// UnitsSoldMillions estimates the product line's install base; the
	// paper notes the tested devices collectively represent over 200
	// million units sold — the reason shared-fingerprint attacks scale.
	UnitsSoldMillions float64

	// probeConclusive marks which probe-set certificates yield
	// conclusive trials (the device reliably reconnects).
	probeConclusive map[string]bool

	// built instance configurations: one ClientConfig per slot phase so
	// instance state (failure counters) persists across handshakes.
	configs   map[string][]*tlssim.ClientConfig // slot label -> per-phase
	fallbacks map[string]*tlssim.ClientConfig
}

// StudyStart and StudyEnd bound the passive dataset (Jan 2018-Mar 2020).
var (
	StudyStart = clock.Month{Year: 2018, Mon: 1}
	StudyEnd   = clock.Month{Year: 2020, Mon: 3}
	// ActiveSnapshot is when the bulk of active experiments ran (§4.1).
	ActiveSnapshot = clock.Month{Year: 2021, Mon: 3}
)

// build finalises a device definition: constructs the root store from
// the universe per the plan, and materialises instance configurations.
func (d *Device) build(u *rootstore.Universe, clk clock.Clock) {
	d.Roots, d.probeConclusive = buildRootStore(d.ID, d.Plan, u)
	d.Finalize(clk)
}

// Finalize materialises the device's per-slot instance configurations
// against its root store, which must already be set. It is the
// exported counterpart of the catalog's build step for externally
// generated devices (the synthetic fleet), whose root pools are shared
// across many devices instead of constructed per device. The fallback
// map is only allocated when a slot declares one, keeping the
// per-device footprint of fleets lean.
func (d *Device) Finalize(clk clock.Clock) {
	d.configs = make(map[string][]*tlssim.ClientConfig, len(d.Slots))
	for _, s := range d.Slots {
		cfgs := make([]*tlssim.ClientConfig, len(s.Phases))
		for i, p := range s.Phases {
			cfgs[i] = p.Template(d.Roots, clk)
		}
		d.configs[s.Label] = cfgs
		if s.Fallback != nil {
			if d.fallbacks == nil {
				d.fallbacks = make(map[string]*tlssim.ClientConfig)
			}
			d.fallbacks[s.Label] = s.Fallback.Template(d.Roots, clk)
		}
	}
}

// ConfigAt returns the TLS instance configuration for slot at the given
// month. Months before the first phase use the first phase.
func (d *Device) ConfigAt(slot int, m clock.Month) *tlssim.ClientConfig {
	s := d.Slots[slot]
	cfgs := d.configs[s.Label]
	idx := 0
	for i, p := range s.Phases {
		zero := clock.Month{}
		if p.From == zero || !m.Before(p.From) {
			idx = i
		}
	}
	return cfgs[idx]
}

// Reset power-cycles the device's TLS instances for month m: every
// slot's instance state (failure counters, given-up validation) starts
// fresh, as after a smart-plug reboot.
func (d *Device) Reset(m clock.Month) {
	for i := range d.Slots {
		d.ConfigAt(i, m).ResetState()
	}
}

// FallbackConfigAt returns the slot's fallback configuration, or nil.
func (d *Device) FallbackConfigAt(slot int) *tlssim.ClientConfig {
	return d.fallbacks[d.Slots[slot].Label]
}

// ActiveIn reports whether the device generated traffic in month m.
func (d *Device) ActiveIn(m clock.Month) bool {
	return !m.Before(d.ActiveFrom) && !d.ActiveTo.Before(m)
}

// BootDestinations returns the destinations contacted unconditionally on
// power-up (AfterLogin destinations excluded).
func (d *Device) BootDestinations() []Destination {
	var out []Destination
	for _, dst := range d.Destinations {
		if dst.Boot && !dst.AfterLogin {
			out = append(out, dst)
		}
	}
	return out
}

// AfterLoginDestinations returns the destinations contacted only after a
// successful first boot connection.
func (d *Device) AfterLoginDestinations() []Destination {
	var out []Destination
	for _, dst := range d.Destinations {
		if dst.AfterLogin {
			out = append(out, dst)
		}
	}
	return out
}

// ProbeConclusive reports whether a probe trial against the given CA
// certificate is conclusive for this device (the device reconnected and
// produced an observable outcome). Devices without a plan always
// respond.
func (d *Device) ProbeConclusive(ca *certs.Certificate) bool {
	if d.probeConclusive == nil {
		return true
	}
	return d.probeConclusive[ca.SubjectKey()]
}

// ProbeDestination returns the destination used for root-store probing:
// the first boot destination of slot 0 (the instance triggered on every
// reboot, §4.2's "same TLS instance every time").
func (d *Device) ProbeDestination() (Destination, bool) {
	for _, dst := range d.Destinations {
		if dst.Boot && dst.Slot == 0 {
			return dst, true
		}
	}
	return Destination{}, false
}

// deviceRank orders certificates deterministically per device.
func deviceRank(devID string, key string) uint64 {
	sum := sha256.Sum256([]byte("probe-plan:" + devID + ":" + key))
	return binary.BigEndian.Uint64(sum[:8])
}

func rankCerts(devID string, cs []*certs.Certificate) []*certs.Certificate {
	// Rank each certificate once; the sort compares the stored ranks.
	type ranked struct {
		rank uint64
		key  string
		cert *certs.Certificate
	}
	rs := make([]ranked, len(cs))
	for i, c := range cs {
		k := c.SubjectKey()
		rs[i] = ranked{deviceRank(devID, k), k, c}
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].rank != rs[j].rank {
			return rs[i].rank < rs[j].rank
		}
		return rs[i].key < rs[j].key
	})
	out := make([]*certs.Certificate, len(rs))
	for i, r := range rs {
		out[i] = r.cert
	}
	return out
}

// operationalCommonCount is the number of leading common CAs (by subject
// key order) that anchor the simulation's cloud PKI. Every device trusts
// them so legitimate traffic validates everywhere.
const operationalCommonCount = 6

// OperationalCAs returns the common CAs used by the cloud PKI.
func OperationalCAs(u *rootstore.Universe) []*rootstore.CA {
	cas := append([]*rootstore.CA(nil), u.Common...)
	sort.Slice(cas, func(i, j int) bool {
		return cas[i].Cert().SubjectKey() < cas[j].Cert().SubjectKey()
	})
	return cas[:operationalCommonCount]
}

// buildRootStore constructs the device's trusted pool and the probe
// conclusiveness map from its plan. Devices without a plan trust the
// full common set plus a small hash-selected deprecated subset.
func buildRootStore(devID string, plan *RootPlan, u *rootstore.Universe) (*certs.Pool, map[string]bool) {
	pool := certs.NewPool()
	common := u.CommonCertificates(probeReferenceTime)
	deprecated := u.DeprecatedCertificates(probeReferenceTime)

	if plan == nil {
		for _, c := range common {
			pool.Add(c)
		}
		for _, c := range rankCerts(devID, deprecated) {
			if deviceRank(devID, c.SubjectKey())%5 == 0 { // ~20%
				pool.Add(c)
			}
		}
		return pool, nil
	}

	conclusive := make(map[string]bool)

	// Common set: conclusive trials are the device-ranked head, with the
	// operational CAs forced in (they must be trusted for cloud traffic
	// to validate). The store holds the head of the conclusive list.
	opSet := make(map[string]bool)
	for _, ca := range OperationalCAs(u) {
		opSet[ca.Cert().SubjectKey()] = true
	}
	rankedCommon := rankCerts(devID, common)
	sort.SliceStable(rankedCommon, func(i, j int) bool {
		// Operational CAs float to the front, preserving rank otherwise.
		return opSet[rankedCommon[i].SubjectKey()] && !opSet[rankedCommon[j].SubjectKey()]
	})
	for i, c := range rankedCommon {
		if i < plan.CommonConclusive {
			conclusive[c.SubjectKey()] = true
		}
		if i < plan.CommonIncluded {
			pool.Add(c)
		}
	}

	// Deprecated set: same scheme, with at least one explicitly
	// distrusted CA forced into the included head (the paper found one
	// in every probed device).
	rankedDep := rankCerts(devID, deprecated)
	distrustedKeys := make(map[string]bool)
	for _, ca := range u.DistrustedCAs() {
		distrustedKeys[ca.Cert().SubjectKey()] = true
	}
	hasDistrustedInHead := false
	for i := 0; i < plan.DeprecatedIncluded && i < len(rankedDep); i++ {
		if distrustedKeys[rankedDep[i].SubjectKey()] {
			hasDistrustedInHead = true
		}
	}
	if !hasDistrustedInHead {
		// Swap the first distrusted CA into the last included position.
		for i := plan.DeprecatedIncluded; i < len(rankedDep); i++ {
			if distrustedKeys[rankedDep[i].SubjectKey()] {
				rankedDep[plan.DeprecatedIncluded-1], rankedDep[i] = rankedDep[i], rankedDep[plan.DeprecatedIncluded-1]
				break
			}
		}
	}
	for i, c := range rankedDep {
		if i < plan.DeprecatedConclusive {
			conclusive[c.SubjectKey()] = true
		}
		if i < plan.DeprecatedIncluded {
			pool.Add(c)
		}
	}
	return pool, conclusive
}

// probeReferenceTime anchors unexpired-set computation to the active
// experiment window.
var probeReferenceTime = ActiveSnapshot.Start()

// Registry holds the built testbed.
type Registry struct {
	Devices  []*Device
	Universe *rootstore.Universe
	byID     map[string]*Device
}

// NewRegistry builds the full 40-device testbed against a fresh CA
// universe, with every instance configuration observing clk.
func NewRegistry(clk clock.Clock) *Registry {
	u := rootstore.NewUniverse()
	devices := catalog()
	r := &Registry{Devices: devices, Universe: u, byID: make(map[string]*Device)}
	for _, d := range devices {
		d.build(u, clk)
		r.byID[d.ID] = d
	}
	return r
}

// NewRegistryDevices builds a registry around an externally generated
// device set — the synthetic-fleet path. Devices arrive with their
// root stores (typically shared pools drawn from u) already set; each
// is finalised against clk here, exactly as the catalog's build step
// does after constructing per-device stores.
func NewRegistryDevices(u *rootstore.Universe, clk clock.Clock, devices []*Device) *Registry {
	r := &Registry{Devices: devices, Universe: u, byID: make(map[string]*Device, len(devices))}
	for _, d := range devices {
		d.Finalize(clk)
		r.byID[d.ID] = d
	}
	return r
}

// Get returns a device by ID.
func (r *Registry) Get(id string) (*Device, bool) {
	d, ok := r.byID[id]
	return d, ok
}

// Subset narrows the registry in place to the named devices — the
// sharded-fleet capture mode, where independent study processes each
// drive a disjoint device subset. Catalog order is preserved for the
// kept devices; an unknown or duplicate ID is an error and leaves the
// registry unchanged.
func (r *Registry) Subset(ids []string) error {
	keep := make(map[string]bool, len(ids))
	for _, id := range ids {
		if _, ok := r.byID[id]; !ok {
			return fmt.Errorf("device: unknown device %q in subset", id)
		}
		if keep[id] {
			return fmt.Errorf("device: duplicate device %q in subset", id)
		}
		keep[id] = true
	}
	devices := make([]*Device, 0, len(ids))
	byID := make(map[string]*Device, len(ids))
	for _, d := range r.Devices {
		if keep[d.ID] {
			devices = append(devices, d)
			byID[d.ID] = d
		}
	}
	r.Devices, r.byID = devices, byID
	return nil
}

// IDs returns every device's ID, in registry order.
func (r *Registry) IDs() []string {
	var out []string
	for _, d := range r.Devices {
		out = append(out, d.ID)
	}
	return out
}

// ActiveDevices returns the 32 devices used in active experiments.
func (r *Registry) ActiveDevices() []*Device {
	var out []*Device
	for _, d := range r.Devices {
		if !d.PassiveOnly {
			out = append(out, d)
		}
	}
	return out
}

// TotalUnitsSoldMillions sums the estimated install base across the
// testbed (the paper: over 200 million units collectively).
func (r *Registry) TotalUnitsSoldMillions() float64 {
	total := 0.0
	for _, d := range r.Devices {
		total += d.UnitsSoldMillions
	}
	return total
}

// ProbeCandidates returns the devices eligible for root-store probing:
// active, reboot-suitable, and validating certificates on at least one
// boot connection (§5.2's exclusion rules).
func (r *Registry) ProbeCandidates() []*Device {
	var out []*Device
	for _, d := range r.ActiveDevices() {
		if !d.RebootSuitable {
			continue
		}
		if !d.validatesSomewhere() {
			continue
		}
		out = append(out, d)
	}
	return out
}

// validatesSomewhere reports whether any instance durably performs
// certificate validation. Instances with a give-up threshold (the Yi
// Camera) do not count: under the paper's repeated-interception
// experiments they behaved as non-validating, so the paper excluded
// them from probing.
func (d *Device) validatesSomewhere() bool {
	for i := range d.Slots {
		cfg := d.ConfigAt(i, ActiveSnapshot)
		if cfg.Validation != tlssim.ValidateNone && cfg.DisableValidationAfter == 0 {
			return true
		}
	}
	return false
}

// String renders a short description.
func (d *Device) String() string {
	return fmt.Sprintf("%s (%s)", d.Name, d.Category)
}

// Payload returns the application data the device sends after a
// successful handshake to host. Devices with a SensitiveToken embed it,
// exactly what an interception attack would expose.
func (d *Device) Payload(host string) string {
	if d.SensitiveToken != "" {
		return fmt.Sprintf("POST /v1/sync HTTP/1.1\r\nHost: %s\r\nAuthorization: %s\r\n\r\n", host, d.SensitiveToken)
	}
	return fmt.Sprintf("GET /v1/status HTTP/1.1\r\nHost: %s\r\n\r\n", host)
}
