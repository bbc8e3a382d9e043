package driver

import (
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/ciphers"
	"repro/internal/device"
	"repro/internal/netem"
	"repro/internal/tlssim"
)

// dropEveryN models packet loss: a tap that black-holes every nth dial
// counted from its registration. The peer accepts bytes but never
// answers, so the client sees an incomplete handshake. Register it
// before any experiment tap so it sees every dial. It returns the tap's
// remove function and a count of the dials it dropped.
func dropEveryN(nw *netem.Network, n int64) (remove func(), dropped func() int64) {
	var dials, drops atomic.Int64
	remove = nw.AddTap(func(netem.ConnMeta) netem.Handler {
		if dials.Add(1)%n != 0 {
			return nil
		}
		drops.Add(1)
		return func(conn net.Conn, _ netem.ConnMeta) {
			defer conn.Close()
			conn.(*netem.Conn).StallPeer()
			io.Copy(io.Discard, conn)
		}
	})
	return remove, drops.Load
}

func TestFlakyNetworkTriggersFallbackOrganically(t *testing.T) {
	// The Table 5 behaviour exists to survive flaky networks — verify
	// that packet loss alone (no attacker) triggers the Amazon SSL 3.0
	// retry, exactly the compatibility motive the paper describes.
	nw, reg, _, _, _ := testbed(t)
	dev, _ := reg.Get("amazon-echo-plus")
	dst := dev.BootDestinations()[0] // fallback-capable slot

	remove, dropped := dropEveryN(nw, 1) // every connection dies
	out := Connect(nw, dev, dst, device.ActiveSnapshot, 1)
	remove()
	if !out.UsedFallback {
		t.Fatal("incomplete handshake did not trigger the fallback")
	}
	// Both the primary and the SSL 3.0 retry were black-holed.
	if out.Established {
		t.Fatal("connection established through a dead network")
	}
	var he *tlssim.HandshakeError
	if !errors.As(out.Err, &he) || he.Class != tlssim.FailIncomplete {
		t.Fatalf("err = %v, want incomplete", out.Err)
	}
	if got := dropped(); got != 2 {
		t.Fatalf("dropped = %d, want 2 (primary + fallback)", got)
	}
}

func TestIntermittentLossRecovers(t *testing.T) {
	// Drop every second connection: the primary dies, the fallback gets
	// through — and lands on SSL 3.0 only if the server still accepts
	// it. Against the modern cloud it does not, so the device retries
	// and fails; a device without fallback simply fails once.
	nw, reg, _, _, _ := testbed(t)
	nest, _ := reg.Get("nest-thermostat")
	remove, _ := dropEveryN(nw, 2)
	defer remove()

	// First connection passes (drop counter hits on the 2nd).
	out := Connect(nw, nest, nest.Destinations[0], device.ActiveSnapshot, 1)
	if !out.Established || out.Version != ciphers.TLS12 {
		t.Fatalf("first connection failed: %+v", out.Err)
	}
	// Second is black-holed; nest has no fallback.
	out = Connect(nw, nest, nest.Destinations[0], device.ActiveSnapshot, 2)
	if out.Established || out.UsedFallback {
		t.Fatalf("second connection = %+v, want plain failure", out)
	}
}
