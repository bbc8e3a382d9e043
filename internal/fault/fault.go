// Package fault provides the testbed's seeded, fully deterministic
// fault-injection subsystem. A Plan decides, per connection, whether
// the gateway should perturb it — refuse the dial, reset it
// mid-handshake, truncate or corrupt a TLS record, stall it (the
// slow-loris case, served by netem's StallPeer signal), or add a latency
// spike — and every decision is a pure function of (seed, endpoint
// key, per-key dial ordinal, month). No math/rand global state is
// touched, so the same seed yields bit-identical fault schedules at
// any worker count: a device's dials to one destination are serialized
// by the study engine's device-unit dispatch, which pins the per-key
// ordinal sequence regardless of scheduling.
//
// The paper's central observations — devices retrying broken
// handshakes, falling back to older TLS configurations, or going
// silent under interference — are reactions to exactly these faults;
// the plan is what lets the testbed provoke them reproducibly.
package fault

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies one injected fault.
type Kind int

const (
	// KindNone means the connection proceeds unperturbed.
	KindNone Kind = iota
	// KindDialFail refuses the dial outright (connection refused).
	KindDialFail
	// KindReset accepts the ClientHello, then closes the connection
	// abruptly — the mid-handshake RST case.
	KindReset
	// KindTruncate cuts the server's first record short and closes.
	KindTruncate
	// KindCorrupt flips a byte inside the server's Certificate message.
	KindCorrupt
	// KindStall accepts the connection and never answers (slow-loris);
	// netem serves it through the deterministic StallPeer signal.
	KindStall
	// KindLatency adds a connection-setup latency spike. It composes
	// with the other kinds and is counted separately.
	KindLatency

	kindCount
)

// String returns the kind's telemetry segment.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindDialFail:
		return "dial_fail"
	case KindReset:
		return "reset"
	case KindTruncate:
		return "truncate"
	case KindCorrupt:
		return "corrupt"
	case KindStall:
		return "stall"
	case KindLatency:
		return "latency"
	default:
		return "unknown"
	}
}

// ConnKinds lists the connection-level fault kinds (mutually exclusive
// per dial) in the order the decision roll consumes their rates.
var ConnKinds = []Kind{KindDialFail, KindReset, KindTruncate, KindCorrupt, KindStall}

// dialOnlyKinds is the eligible set for non-TLS destinations, where
// record-level surgery has no meaning.
var dialOnlyKinds = []Kind{KindDialFail}

// Kinds lists every injectable kind, for telemetry enumeration.
var Kinds = []Kind{KindDialFail, KindReset, KindTruncate, KindCorrupt, KindStall, KindLatency}

// ErrInjected marks a failure manufactured by the fault plan; retry
// policies treat it as transient.
var ErrInjected = errors.New("fault: injected failure")

// Profile sets per-dial fault probabilities. Connection-level rates
// (DialFail..Stall) are mutually exclusive per dial; Latency composes.
type Profile struct {
	Name string

	// Per-dial probabilities of each connection-level fault.
	DialFail float64
	Reset    float64
	Truncate float64
	Corrupt  float64
	Stall    float64

	// Latency is the per-dial probability of a LatencySpike delay.
	Latency      float64
	LatencySpike time.Duration

	// FlakyWindows is the fraction of (endpoint, month) windows that
	// are flaky; within one, dials additionally fail with probability
	// FlakyDialFail — the "endpoint down for a month" pattern.
	FlakyWindows  float64
	FlakyDialFail float64
}

// rate returns the profile's probability for a connection-level kind.
func (p Profile) rate(k Kind) float64 {
	switch k {
	case KindDialFail:
		return p.DialFail
	case KindReset:
		return p.Reset
	case KindTruncate:
		return p.Truncate
	case KindCorrupt:
		return p.Corrupt
	case KindStall:
		return p.Stall
	default:
		return 0
	}
}

// ConnFaultRate is the total per-dial probability of a connection-level
// fault (excluding flaky windows and latency spikes).
func (p Profile) ConnFaultRate() float64 {
	return p.DialFail + p.Reset + p.Truncate + p.Corrupt + p.Stall
}

// Profiles are the named fault profiles the CLI exposes.
var Profiles = map[string]Profile{
	"off": {Name: "off"},
	"mild": {
		Name:     "mild",
		DialFail: 0.02, Reset: 0.01, Truncate: 0.01, Corrupt: 0.01, Stall: 0.01,
		Latency: 0.05, LatencySpike: time.Millisecond,
		FlakyWindows: 0.05, FlakyDialFail: 0.25,
	},
	// aggressive carries >20% connection-level faults — the chaos
	// matrix's "study must survive this" profile.
	"aggressive": {
		Name:     "aggressive",
		DialFail: 0.08, Reset: 0.05, Truncate: 0.03, Corrupt: 0.03, Stall: 0.04,
		Latency: 0.10, LatencySpike: 2 * time.Millisecond,
		FlakyWindows: 0.15, FlakyDialFail: 0.5,
	},
}

// Decision is the plan's verdict for one dial.
type Decision struct {
	// Kind is the connection-level fault, or KindNone.
	Kind Kind
	// Delay is a latency spike to apply before the connection opens.
	Delay time.Duration
	// Rand is seeded entropy for byte-level fault parameters
	// (truncation cut point, corruption offset and mask).
	Rand uint64
}

// TraceDetails renders the decision's effects as fault-span details for
// the causal trace: one entry per injected effect, latency first (it
// lands before the connection-level fault does). Empty for a clean
// decision.
func (d Decision) TraceDetails() []string {
	var out []string
	if d.Delay > 0 {
		out = append(out, "latency")
	}
	if d.Kind != KindNone {
		out = append(out, d.Kind.String())
	}
	return out
}

// Plan is a seeded fault schedule. It is safe for concurrent use; its
// decisions and counters are identical at any worker count as long as
// each (src, dst) key's dials happen in a fixed order, which the study
// engine's device-unit dispatch guarantees.
type Plan struct {
	seed uint64
	prof Profile

	// ordinals numbers each (src, dst) key's dials 1, 2, 3, ...
	ordinals sync.Map // string -> *atomic.Uint64

	counts [kindCount]atomic.Int64
}

// NewPlan builds a plan from a seed and a profile.
func NewPlan(seed uint64, prof Profile) *Plan {
	return &Plan{seed: seed, prof: prof}
}

// Seed returns the plan's seed.
func (p *Plan) Seed() uint64 { return p.seed }

// Profile returns the plan's profile.
func (p *Plan) Profile() Profile { return p.prof }

// Decide returns the fault verdict for the next dial from src to dst
// (an "host:port" address) at virtual time at, and counts it.
func (p *Plan) Decide(src, dst string, at time.Time) Decision {
	key := src + "|" + dst
	slot, _ := p.ordinals.LoadOrStore(key, new(atomic.Uint64))
	ord := slot.(*atomic.Uint64).Add(1)

	var d Decision
	d.Rand = p.hash(streamEntropy, key, ord)

	month := uint64(at.Year())*12 + uint64(at.Month())
	flaky := p.prof.FlakyWindows > 0 &&
		frac(p.hash(streamWindow, dst, month)) < p.prof.FlakyWindows &&
		frac(p.hash(streamFlaky, key, ord)) < p.prof.FlakyDialFail
	// Mid-connection surgery (reset, truncate, corrupt, stall) assumes
	// TLS record framing on the wire; non-TLS side traffic — the
	// port-80 revocation fetches — only ever experiences dial failures
	// and latency. (A reset handler parsing plaintext as a record
	// header would wait for a body that never comes.)
	kinds := ConnKinds
	if !strings.HasSuffix(dst, ":443") {
		kinds = dialOnlyKinds
	}
	if flaky {
		d.Kind = KindDialFail
	} else {
		r := frac(p.hash(streamConn, key, ord))
		cum := 0.0
		for _, k := range kinds {
			cum += p.prof.rate(k)
			if r < cum {
				d.Kind = k
				break
			}
		}
	}

	if p.prof.Latency > 0 && frac(p.hash(streamLatency, key, ord)) < p.prof.Latency {
		d.Delay = p.prof.LatencySpike
	}

	if d.Kind != KindNone {
		p.counts[d.Kind].Add(1)
	}
	if d.Delay > 0 {
		p.counts[KindLatency].Add(1)
	}
	return d
}

// Counts reports how many faults of each kind the plan has injected so
// far, keyed by Kind.String(). Zero-count kinds are omitted.
func (p *Plan) Counts() map[string]int64 {
	out := make(map[string]int64)
	for _, k := range Kinds {
		if v := p.counts[k].Load(); v > 0 {
			out[k.String()] = v
		}
	}
	return out
}

// Hash streams keep the flaky-window, connection, latency and entropy
// rolls independent of each other.
const (
	streamConn uint64 = iota + 1
	streamWindow
	streamFlaky
	streamLatency
	streamEntropy
)

// hash derives a 64-bit value from the plan seed, a stream tag, a
// string key, and an ordinal — a splitmix64 chain, so decisions are
// pure functions with no shared PRNG state.
func (p *Plan) hash(stream uint64, key string, ord uint64) uint64 {
	h := splitmix64(p.seed ^ stream*0x9e3779b97f4a7c15)
	for i := 0; i < len(key); i++ {
		h = splitmix64(h ^ uint64(key[i]))
	}
	return splitmix64(h ^ ord)
}

// splitmix64 is the SplitMix64 finalizer (public-domain constant set).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// frac maps a hash to [0, 1) with 53-bit precision.
func frac(h uint64) float64 { return float64(h>>11) / (1 << 53) }
