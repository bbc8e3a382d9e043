package traffic

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/ciphers"
	"repro/internal/clock"
	"repro/internal/cloud"
	"repro/internal/device"
	"repro/internal/netem"
)

func newGenerator(t *testing.T) (*Generator, *capture.Store, *cloud.Cloud) {
	t.Helper()
	clk := clock.NewSimulated(device.StudyStart.Start())
	nw := netem.New(clk)
	reg := device.NewRegistry(clk)
	cl := cloud.New(nw, reg)
	store := capture.NewStore()
	return New(nw, reg, capture.NewCollector(store), clk), store, cl
}

func TestRunSingleMonth(t *testing.T) {
	g, store, _ := newGenerator(t)
	stats, err := g.Run(device.StudyStart, device.StudyStart)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Months != 1 {
		t.Fatalf("months = %d", stats.Months)
	}
	if stats.FailedConnects != 0 {
		t.Fatalf("failed connects = %d, want 0 in passive mode", stats.FailedConnects)
	}
	if store.Len() != stats.Handshakes {
		t.Fatalf("store %d != handshakes %d", store.Len(), stats.Handshakes)
	}
	// Echo Dot 3 launched 11/2018; it must be silent in 1/2018.
	if got := len(store.ByDevice("amazon-echo-dot-3")); got != 0 {
		t.Fatalf("echo dot 3 observations in 2018-01 = %d", got)
	}
	// All devices except the late-launching Echo Dot 3 (11/2018) and
	// HomePod (3/2018) are active in 2018-01.
	devices := map[string]bool{}
	for _, o := range store.All() {
		devices[o.Device] = true
		if o.Month != device.StudyStart {
			t.Fatalf("observation month = %v", o.Month)
		}
		if !o.Established {
			t.Errorf("%s -> %s not established", o.Device, o.Host)
		}
	}
	if len(devices) != 38 {
		t.Fatalf("active devices = %d, want 38", len(devices))
	}
}

func TestWeightsApplied(t *testing.T) {
	g, store, _ := newGenerator(t)
	if _, err := g.Run(device.StudyStart, device.StudyStart); err != nil {
		t.Fatal(err)
	}
	for _, o := range store.ByDevice("nest-thermostat") {
		if o.Host == "transport.home.nest.com" && o.Weight != 12000 {
			t.Fatalf("weight = %d, want 12000", o.Weight)
		}
	}
	if store.TotalWeight() <= store.Len() {
		t.Fatal("weights not applied")
	}
}

func TestLongitudinalTransitionVisible(t *testing.T) {
	// Run April and May 2019: the Home Mini switches to TLS 1.3 in May.
	g, store, _ := newGenerator(t)
	apr := clock.Month{Year: 2019, Mon: time.April}
	may := clock.Month{Year: 2019, Mon: time.May}
	if _, err := g.Run(apr, may); err != nil {
		t.Fatal(err)
	}
	for _, o := range store.ByDevice("google-home-mini") {
		want := ciphers.TLS12
		if o.Month == may {
			want = ciphers.TLS13
		}
		if o.AdvertisedMax != want {
			t.Fatalf("%v advertised %v, want %v", o.Month, o.AdvertisedMax, want)
		}
	}
}

func TestRevocationTrafficAcrossStudy(t *testing.T) {
	g, _, cl := newGenerator(t)
	if _, err := g.Run(device.StudyStart, device.StudyStart); err != nil {
		t.Fatal(err)
	}
	if cl.OCSPHits()["samsung-tv"] == 0 {
		t.Error("samsung tv OCSP traffic missing")
	}
	if cl.CRLHits()["samsung-tv"] == 0 {
		t.Error("samsung tv CRL traffic missing")
	}
	if cl.OCSPHits()["apple-tv"] == 0 {
		t.Error("apple tv OCSP traffic missing")
	}
	if cl.CRLHits()["apple-tv"] != 0 {
		t.Error("apple tv should not fetch CRLs")
	}
}

// TestRunFailsOnOpenMirror pins the month barrier: a mirrored
// connection still open when the month's dialers have returned fails
// the month at once, naming the count and the connection, instead of
// losing its observation.
func TestRunFailsOnOpenMirror(t *testing.T) {
	g, store, _ := newGenerator(t)
	g.Network.Listen("leak.example.com", 443, func(c net.Conn, _ netem.ConnMeta) { c.Close() })
	var leaked net.Conn
	g.Stop = func() bool {
		if leaked == nil {
			var err error
			if leaked, err = g.Network.Dial("leaky-device", "leak.example.com", 443); err != nil {
				t.Fatal(err)
			}
		}
		return false
	}
	stats, err := g.Run(device.StudyStart, device.StudyStart)
	if err == nil || !strings.Contains(err.Error(), "1 mirrored connection(s) still open: leaky-device → leak.example.com:443") {
		t.Fatalf("Run = %v, want the barrier to fail naming the 1 open mirrored connection", err)
	}
	if stats.Months != 0 {
		t.Errorf("months = %d, want the failed month uncounted", stats.Months)
	}
	// The leaked connection still publishes on close; a connection
	// dialed after Run returned is not mirrored.
	before := store.Len()
	leaked.Close()
	after, err := g.Network.Dial("leaky-device", "leak.example.com", 443)
	if err != nil {
		t.Fatal(err)
	}
	after.Close()
	if store.Len() != before+1 {
		t.Errorf("store grew by %d, want 1: the leaked connection only", store.Len()-before)
	}
}
