package capture

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/certs"
	"repro/internal/ciphers"
	"repro/internal/clock"
	"repro/internal/netem"
	"repro/internal/tlssim"
	"repro/internal/wire"
)

var captureEpoch = time.Date(2018, 6, 15, 12, 0, 0, 0, time.UTC)

func testMeta() netem.ConnMeta {
	return netem.ConnMeta{SrcHost: "dev-1", DstHost: "srv.example.com", DstPort: 443, At: captureEpoch}
}

// feedHandshake replays a full real handshake through a sniffer by
// running client+server over a pipe wrapped with manual mirroring.
func feedHandshake(t *testing.T, sn *sniffer, failCert bool) {
	t.Helper()
	root := certs.NewRootCA(certs.Name{CommonName: "Cap Root"}, 1,
		captureEpoch.AddDate(-1, 0, 0), captureEpoch.AddDate(10, 0, 0), "cap-root")
	leaf := root.Issue(certs.Template{
		SerialNumber: 2, Subject: certs.Name{CommonName: "srv.example.com"},
		NotBefore: captureEpoch.AddDate(-1, 0, 0), NotAfter: captureEpoch.AddDate(10, 0, 0),
		DNSNames: []string{"srv.example.com"},
	}, "cap-leaf")
	pool := certs.NewPool()
	if !failCert {
		pool.Add(root.Cert)
	}

	cc, sc := net.Pipe()
	mc := &manualMirror{Conn: cc, sn: sn}
	done := make(chan *tlssim.ServerResult, 1)
	go func() {
		done <- tlssim.Serve(sc, &tlssim.ServerConfig{
			Chain: []*certs.Certificate{leaf.Cert, root.Cert}, Key: leaf,
			MinVersion: ciphers.TLS10, MaxVersion: ciphers.TLS12,
			CipherSuites: []ciphers.Suite{ciphers.TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256},
			OCSPStaple:   true,
		})
	}()
	cfg := &tlssim.ClientConfig{
		Library: tlssim.ProfileOpenSSL, MinVersion: ciphers.TLS10, MaxVersion: ciphers.TLS12,
		CipherSuites: []ciphers.Suite{
			ciphers.TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
			ciphers.TLS_RSA_WITH_RC4_128_SHA,
		},
		SendSNI:    true,
		Roots:      pool,
		Validation: tlssim.ValidateFull,
		Revocation: tlssim.RevocationMode{RequestStaple: true},
		Clock:      clock.NewSimulated(captureEpoch),
	}
	sess, err := tlssim.Client(mc, cfg, "srv.example.com", 1)
	res := <-done
	if failCert {
		if err == nil {
			t.Fatal("expected failure")
		}
	} else {
		if err != nil {
			t.Fatalf("client: %v", err)
		}
		go func() {
			buf := make([]byte, 16)
			res.Session.Conn.Read(buf)
			res.Session.Close()
		}()
		sess.Conn.Write([]byte("payload"))
		buf := make([]byte, 1)
		sess.Conn.Conn.SetDeadline(time.Now().Add(100 * time.Millisecond))
		sess.Conn.Read(buf)
		sess.Close()
	}
	mc.Close()
}

// manualMirror wraps a conn, feeding the sniffer like netem does.
type manualMirror struct {
	net.Conn
	sn     *sniffer
	closed bool
}

func (m *manualMirror) Read(p []byte) (int, error) {
	n, err := m.Conn.Read(p)
	if n > 0 {
		m.sn.ServerBytes(p[:n])
	}
	return n, err
}

func (m *manualMirror) Write(p []byte) (int, error) {
	n, err := m.Conn.Write(p)
	if n > 0 {
		m.sn.ClientBytes(p[:n])
	}
	return n, err
}

func (m *manualMirror) Close() error {
	err := m.Conn.Close()
	if !m.closed {
		m.closed = true
		m.sn.CloseMirror()
	}
	return err
}

func TestSnifferSuccessfulHandshake(t *testing.T) {
	store := NewStore()
	col := NewCollector(store)
	col.WillDial("dev-1", "srv.example.com", 443, 777)
	sn := newSniffer(col, testMeta())
	feedHandshake(t, sn, false)

	if store.Len() != 1 {
		t.Fatalf("observations = %d", store.Len())
	}
	o := store.All()[0]
	if !o.SawClientHello || !o.SawServerHello || !o.Established {
		t.Fatalf("incomplete observation: %+v", o)
	}
	if o.SNI != "srv.example.com" {
		t.Errorf("SNI = %q", o.SNI)
	}
	if o.AdvertisedMax != ciphers.TLS12 || o.NegotiatedVersion != ciphers.TLS12 {
		t.Errorf("versions = %v/%v", o.AdvertisedMax, o.NegotiatedVersion)
	}
	if o.NegotiatedSuite != ciphers.TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256 {
		t.Errorf("suite = %v", o.NegotiatedSuite)
	}
	if !o.AdvertisesInsecure() {
		t.Error("RC4 in offer not detected")
	}
	if !o.EstablishedStrong() {
		t.Error("strong establishment not detected")
	}
	if !o.RequestedOCSPStaple || !o.StapledOCSP {
		t.Errorf("staple flags = %v/%v", o.RequestedOCSPStaple, o.StapledOCSP)
	}
	if o.Weight != 777 {
		t.Errorf("weight = %d", o.Weight)
	}
	if o.Month != (clock.Month{Year: 2018, Mon: 6}) {
		t.Errorf("month = %v", o.Month)
	}
	if o.AppDataRecords == 0 {
		t.Error("app data not counted")
	}
	if o.ClientAlert != nil && o.ClientAlert.Description != wire.AlertCloseNotify {
		t.Errorf("unexpected client alert %v", o.ClientAlert)
	}
}

func TestSnifferFailedHandshakeCapturesAlert(t *testing.T) {
	store := NewStore()
	col := NewCollector(store)
	sn := newSniffer(col, testMeta())
	feedHandshake(t, sn, true)

	o := store.All()[0]
	if o.Established {
		t.Fatal("failed handshake marked established")
	}
	if o.ClientAlert == nil || o.ClientAlert.Description != wire.AlertUnknownCA {
		t.Fatalf("client alert = %v, want unknown_ca", o.ClientAlert)
	}
	if o.Weight != 1 {
		t.Errorf("default weight = %d, want 1", o.Weight)
	}
}

func TestPlainSnifferRevocation(t *testing.T) {
	store := NewStore()
	col := NewCollector(store)
	meta := netem.ConnMeta{SrcHost: "samsung-tv", DstHost: "ocsp.sim-ca.com", DstPort: 80, At: captureEpoch}
	m := col.Mirror(meta)
	if m == nil {
		t.Fatal("no mirror for port 80")
	}
	m.ClientBytes([]byte("OCSP-CHECK serial=7\n"))
	m.ServerBytes([]byte("OCSP-GOOD\n"))
	m.CloseMirror()

	meta.DstHost = "crl.sim-ca.com"
	m = col.Mirror(meta)
	m.ClientBytes([]byte("CRL-"))
	m.ClientBytes([]byte("FETCH issuer=x\n"))
	m.CloseMirror()

	// Canonical order sorts by host at equal times: crl.* before ocsp.*.
	evs := store.Revocations()
	if len(evs) != 2 {
		t.Fatalf("revocation events = %d", len(evs))
	}
	if evs[0].Kind != RevocationCRL || evs[1].Kind != RevocationOCSP {
		t.Fatalf("kinds = %v, %v", evs[0].Kind, evs[1].Kind)
	}
	if evs[0].Kind.String() != "CRL" || evs[1].Kind.String() != "OCSP" {
		t.Fatal("kind names wrong")
	}
	// Non-revocation plaintext records nothing.
	m = col.Mirror(netem.ConnMeta{SrcHost: "d", DstHost: "h", DstPort: 80, At: captureEpoch})
	m.ClientBytes([]byte("GET / HTTP/1.1\r\n"))
	m.CloseMirror()
	if len(store.Revocations()) != 2 {
		t.Fatal("spurious revocation event")
	}
}

func TestMirrorIgnoresOtherPorts(t *testing.T) {
	col := NewCollector(NewStore())
	if col.Mirror(netem.ConnMeta{DstPort: 8080}) != nil {
		t.Fatal("mirror created for port 8080")
	}
}

func TestExportJSONLAndCSV(t *testing.T) {
	store := NewStore()
	col := NewCollector(store)
	sn := newSniffer(col, testMeta())
	feedHandshake(t, sn, false)

	var jbuf bytes.Buffer
	n, err := WriteJSONL(&jbuf, store)
	if err != nil || n != 1 {
		t.Fatalf("WriteJSONL = %d, %v", n, err)
	}
	out := jbuf.String()
	for _, want := range []string{`"device":"dev-1"`, `"established":true`, `"negotiated_suite":"TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256"`, `"month":"2018-06"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSONL missing %s in %s", want, out)
		}
	}

	var cbuf bytes.Buffer
	n, err = WriteCSV(&cbuf, store)
	if err != nil || n != 1 {
		t.Fatalf("WriteCSV = %d, %v", n, err)
	}
	lines := strings.Split(strings.TrimSpace(cbuf.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "device,host,month") {
		t.Fatalf("CSV output: %v", lines)
	}
	if !strings.Contains(lines[1], "dev-1,srv.example.com,2018-06") {
		t.Fatalf("CSV row: %s", lines[1])
	}
}

func TestStoreQueries(t *testing.T) {
	store := NewStore()
	store.Add(&Observation{Device: "a", Host: "x", Time: captureEpoch, Weight: 10})
	store.Add(&Observation{Device: "b", Host: "y", Time: captureEpoch}) // weight defaults to 1
	if store.Len() != 2 || store.TotalWeight() != 11 {
		t.Fatalf("len/weight = %d/%d", store.Len(), store.TotalWeight())
	}
	if got := store.ByDevice("a"); len(got) != 1 || got[0].Host != "x" {
		t.Fatalf("ByDevice = %v", got)
	}
}

// TestAddAllMatchesAdd pins the bulk publish path dataset.Restore uses
// against the per-observation path the sniffers use: splitting the same
// observations into device-affine batches and loading each with AddAll
// must yield exactly the store a per-observation Add builds — at 1 and
// 8 batches.
func TestAddAllMatchesAdd(t *testing.T) {
	// A mixed workload: many devices, interleaved months, duplicate
	// timestamps, and ties that exercise every canonical sort key.
	build := func() []*Observation {
		var obs []*Observation
		for i := 0; i < 240; i++ {
			dev := "dev-" + string(rune('a'+i%12))
			obs = append(obs, &Observation{
				Device:            dev,
				Host:              "host-" + string(rune('a'+i%5)) + ".example.com",
				Port:              443 + i%3,
				Time:              captureEpoch.AddDate(0, i%4, i%7).Add(time.Duration(i%9) * time.Minute),
				Weight:            i%6 + 1,
				NegotiatedVersion: ciphers.TLS12,
			})
		}
		return obs
	}

	direct := NewStore()
	for _, o := range build() {
		direct.Add(o)
	}
	want := direct.All()

	for _, nbatch := range []int{1, 8} {
		batched := NewStore()
		// Device-affine batches: one device's observations always land
		// in the same batch, keeping their relative order.
		batches := make([][]*Observation, nbatch)
		for _, o := range build() {
			b := shardFor(o.Device) % nbatch
			batches[b] = append(batches[b], o)
		}
		for _, b := range batches {
			batched.AddAll(b)
		}
		if batched.Len() != direct.Len() {
			t.Fatalf("batches=%d: Len %d, want %d", nbatch, batched.Len(), direct.Len())
		}
		got := batched.All()
		if len(got) != len(want) {
			t.Fatalf("batches=%d: %d observations, want %d", nbatch, len(got), len(want))
		}
		for i := range want {
			if got[i].Device != want[i].Device || got[i].Host != want[i].Host ||
				got[i].Port != want[i].Port || !got[i].Time.Equal(want[i].Time) ||
				got[i].Weight != want[i].Weight || got[i].Month != want[i].Month {
				t.Errorf("batches=%d: observation %d differs:\n got %+v\nwant %+v", nbatch, i, *got[i], *want[i])
			}
		}
		if batched.TotalWeight() != direct.TotalWeight() {
			t.Errorf("batches=%d: total weight %d, want %d", nbatch, batched.TotalWeight(), direct.TotalWeight())
		}
	}
}
