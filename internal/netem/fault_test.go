package netem

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/fault"
)

// onlyKind builds a profile injecting one fault kind on every dial.
func onlyKind(k fault.Kind) fault.Profile {
	p := fault.Profile{Name: "test-" + k.String()}
	switch k {
	case fault.KindDialFail:
		p.DialFail = 1
	case fault.KindReset:
		p.Reset = 1
	case fault.KindTruncate:
		p.Truncate = 1
	case fault.KindCorrupt:
		p.Corrupt = 1
	case fault.KindStall:
		p.Stall = 1
	}
	return p
}

// fakeRecord is a minimal well-formed TLS record (header + payload),
// standing in for a ClientHello.
func fakeRecord(payload []byte) []byte {
	hdr := []byte{22, 3, 3, byte(len(payload) >> 8), byte(len(payload))}
	return append(hdr, payload...)
}

func TestFaultDialFail(t *testing.T) {
	n, _ := newTestNetwork()
	n.Listen("s.com", 443, echoHandler)
	n.SetFaultPlan(fault.NewPlan(1, onlyKind(fault.KindDialFail)))
	if _, err := n.Dial("d", "s.com", 443); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Dial error = %v, want fault.ErrInjected", err)
	}
}

func TestFaultReset(t *testing.T) {
	n, _ := newTestNetwork()
	n.Listen("s.com", 443, echoHandler)
	n.SetFaultPlan(fault.NewPlan(1, onlyKind(fault.KindReset)))
	conn, err := n.Dial("d", "s.com", 443)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The full record write must succeed (the handler consumes it).
	if _, err := conn.Write(fakeRecord([]byte("hello"))); err != nil {
		t.Fatalf("record write failed: %v", err)
	}
	// Then the connection is gone: the read fails with a closed pipe,
	// not a timeout — the mid-handshake reset signature.
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("read succeeded on a reset connection")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("reset surfaced as a timeout (%v), want abrupt close", err)
	}
}

func TestFaultStall(t *testing.T) {
	n, _ := newTestNetwork()
	n.Listen("s.com", 443, echoHandler)
	n.SetFaultPlan(fault.NewPlan(1, onlyKind(fault.KindStall)))
	conn, err := n.Dial("d", "s.com", 443)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(fakeRecord([]byte("hello"))); err != nil {
		t.Fatalf("record write failed: %v", err)
	}
	// The StallPeer signal must fail the read immediately as a timeout —
	// no wall-clock wait.
	start := time.Now()
	_, err = conn.Read(make([]byte, 1))
	ne, ok := err.(net.Error)
	if !ok || !ne.Timeout() {
		t.Fatalf("stalled read error = %v, want timeout", err)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("stalled read took %v, want immediate failure", time.Since(start))
	}
}

func TestFaultTruncate(t *testing.T) {
	n, _ := newTestNetwork()
	n.Listen("s.com", 443, echoHandler)
	n.SetFaultPlan(fault.NewPlan(1, onlyKind(fault.KindTruncate)))
	conn, err := n.Dial("d", "s.com", 443)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := []byte("0123456789abcdef")
	if _, err := conn.Write(msg); err != nil {
		t.Fatalf("write failed: %v", err)
	}
	got, err := io.ReadAll(conn)
	if err != nil && !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("read error = %v", err)
	}
	// The cut falls inside the first record's 5-byte header.
	if len(got) == 0 || len(got) >= 5 {
		t.Fatalf("received %d echoed bytes, want a cut inside the first 5 of %d", len(got), len(msg))
	}
}

// serverFlight stands in for a server's first flight: three records,
// the second in the Certificate's place.
var serverFlight = [][]byte{fakeRecord([]byte("aaaa")), fakeRecord([]byte("bbbbbbbb")), fakeRecord([]byte("cc"))}

// writeChunks serves the given writes after the client's first one.
func writeChunks(chunks [][]byte) Handler {
	return func(conn net.Conn, _ ConnMeta) {
		defer conn.Close()
		if _, err := conn.Read(make([]byte, 64)); err != nil {
			return
		}
		for _, p := range chunks {
			if _, err := conn.Write(p); err != nil {
				return
			}
		}
	}
}

// TestFaultCorruptTargetsCertificatePayload checks the corrupt fault
// flips exactly one byte, inside the second record's payload, and the
// same byte whether the server writes its flight in one Write, one
// record per Write, headers apart from payloads, or byte by byte.
func TestFaultCorruptTargetsCertificatePayload(t *testing.T) {
	flight := bytes.Join(serverFlight, nil)
	var perRecord, split, perByte [][]byte
	for _, r := range serverFlight {
		perRecord = append(perRecord, r)
		split = append(split, r[:5], r[5:])
	}
	for i := range flight {
		perByte = append(perByte, flight[i:i+1])
	}
	lo := len(serverFlight[0]) + 5 // the second record's payload
	hi := len(serverFlight[0]) + len(serverFlight[1])
	var first []byte
	for _, b := range []struct {
		name   string
		chunks [][]byte
	}{{"flight", [][]byte{flight}}, {"records", perRecord}, {"headers apart", split}, {"bytes", perByte}} {
		n, _ := newTestNetwork()
		n.Listen("s.com", 443, writeChunks(b.chunks))
		n.SetFaultPlan(fault.NewPlan(1, onlyKind(fault.KindCorrupt)))
		conn, err := n.Dial("d", "s.com", 443)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte("go")); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(flight))
		if _, err := io.ReadFull(conn, got); err != nil {
			t.Fatalf("%s: read: %v", b.name, err)
		}
		conn.Close()
		diffs := 0
		for i := range flight {
			if got[i] != flight[i] {
				diffs++
				if i < lo || i >= hi {
					t.Errorf("%s: byte %d corrupted; only the second record's payload [%d,%d) may be", b.name, i, lo, hi)
				}
			}
		}
		if diffs != 1 {
			t.Errorf("%s: %d bytes differ, want exactly 1", b.name, diffs)
		}
		if first == nil {
			first = got
		} else if !bytes.Equal(got, first) {
			t.Errorf("%s: delivered %q, the single-write flight delivered %q", b.name, got, first)
		}
	}
}

// FuzzCorruptWalk drives the corrupt fault's record walk with arbitrary
// bytes, TLS or not, batched into writes whose sizes cuts gives,
// cycled. It must never panic; it must deliver every byte, the same
// bytes at any batching, and differ from the input in at most one
// byte: byte entropy mod n of the second record's n-byte payload,
// flipped, when the input reaches it.
func FuzzCorruptWalk(f *testing.F) {
	f.Add(bytes.Join(serverFlight, nil), []byte{5}, uint64(7))
	f.Add(bytes.Join(serverFlight, nil), []byte{0, 3, 1}, uint64(0))
	f.Add([]byte("OCSP-GOOD\n"), []byte{1}, uint64(3))
	f.Add([]byte{22, 3, 3, 0, 0, 22, 3, 3, 0, 0, 1, 2}, []byte{2}, uint64(9))
	f.Fuzz(func(t *testing.T, data, cuts []byte, entropy uint64) {
		var whole recordWalk
		once := whole.corrupt(data, entropy)
		var walk recordWalk
		var batched []byte
		for i, pos := 0, 0; pos < len(data); i++ {
			// A zero cut is an empty write; once every cut has had
			// its turn for every byte, the rest goes at once, so
			// cuts of zeros still end the loop.
			n := len(data) - pos
			if len(cuts) > 0 && i < len(data)+len(cuts) {
				n = min(n, int(cuts[i%len(cuts)]))
			}
			batched = append(batched, walk.corrupt(data[pos:pos+n], entropy)...)
			pos += n
		}
		if len(once) != len(data) || len(batched) != len(data) {
			t.Fatalf("delivered %d and %d bytes of %d", len(once), len(batched), len(data))
		}
		if !bytes.Equal(once, batched) {
			t.Fatalf("one write delivered %x, batched writes %x", once, batched)
		}
		want := -1 // the byte the fault must flip, if the input reaches it
		if len(data) >= 5 {
			start := 5 + (int(data[3])<<8 | int(data[4]))
			if start+5 <= len(data) {
				if n := int(data[start+3])<<8 | int(data[start+4]); n > 0 {
					if at := start + 5 + int(entropy%uint64(n)); at < len(data) {
						want = at
					}
				}
			}
		}
		for i := range data {
			if flipped := once[i] != data[i]; flipped != (i == want) {
				t.Fatalf("byte %d flipped=%v; want only byte %d flipped", i, flipped, want)
			}
		}
	})
}

func TestFaultLatency(t *testing.T) {
	n, _ := newTestNetwork()
	n.Listen("s.com", 443, echoHandler)
	n.SetFaultPlan(fault.NewPlan(1, fault.Profile{Name: "lat", Latency: 1, LatencySpike: 30 * time.Millisecond}))
	start := time.Now()
	conn, err := n.Dial("d", "s.com", 443)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("dial took %v, want >= 30ms latency spike", elapsed)
	}
}

// TestFaultCountersMatchPlan checks the gateway's per-kind telemetry
// agrees with the plan's own tally.
func TestFaultCountersMatchPlan(t *testing.T) {
	n, _ := newTestNetwork()
	n.Listen("s.com", 443, echoHandler)
	plan := fault.NewPlan(99, fault.Profiles["aggressive"])
	n.SetFaultPlan(plan)
	for i := 0; i < 300; i++ {
		conn, err := n.Dial("d", "s.com", 443)
		if err != nil {
			continue
		}
		conn.Close()
	}
	counts := plan.Counts()
	if len(counts) == 0 {
		t.Fatal("aggressive plan injected nothing over 300 dials")
	}
	for kind, v := range counts {
		if got := n.Telemetry().Counter("netem.faults." + kind).Value(); got != v {
			t.Errorf("netem.faults.%s = %d, plan counted %d", kind, got, v)
		}
	}
}

// TestFaultsBypassTaps checks reset and stall faults hijack before any
// interception tap.
func TestFaultsBypassTaps(t *testing.T) {
	for _, kind := range []fault.Kind{fault.KindReset, fault.KindStall} {
		n, _ := newTestNetwork()
		n.Listen("s.com", 443, echoHandler)
		tapped := 0
		n.AddTap(func(ConnMeta) Handler {
			tapped++
			return echoHandler
		})
		n.SetFaultPlan(fault.NewPlan(1, onlyKind(kind)))
		conn, err := n.Dial("d", "s.com", 443)
		if err != nil {
			t.Fatal(err)
		}
		conn.Close()
		if tapped != 0 {
			t.Fatalf("%v: tap consulted %d times on a faulted connection", kind, tapped)
		}
	}
}
