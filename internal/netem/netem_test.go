package netem

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

func newTestNetwork() (*Network, *clock.Simulated) {
	clk := clock.NewSimulated(time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC))
	return New(clk), clk
}

// echoHandler writes back whatever it reads, once, then closes.
func echoHandler(conn net.Conn, _ ConnMeta) {
	defer conn.Close()
	buf := make([]byte, 64)
	n, err := conn.Read(buf)
	if err != nil {
		return
	}
	conn.Write(buf[:n])
}

func TestDialAndEcho(t *testing.T) {
	n, _ := newTestNetwork()
	n.Listen("cloud.vendor.com", 443, echoHandler)
	conn, err := n.Dial("camera-1", "cloud.vendor.com", 443)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "ping" {
		t.Fatalf("echo = %q", buf)
	}
}

func TestDialNoRoute(t *testing.T) {
	n, _ := newTestNetwork()
	_, err := n.Dial("camera-1", "nonexistent.example.com", 443)
	if !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
}

func TestUnlisten(t *testing.T) {
	n, _ := newTestNetwork()
	n.Listen("a.com", 443, echoHandler)
	n.Unlisten("a.com", 443)
	if _, err := n.Dial("d", "a.com", 443); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v after Unlisten", err)
	}
}

func TestConnAddresses(t *testing.T) {
	n, _ := newTestNetwork()
	done := make(chan ConnMeta, 1)
	n.Listen("srv.com", 8443, func(conn net.Conn, meta ConnMeta) {
		defer conn.Close()
		if conn.LocalAddr().String() != "srv.com:8443" || conn.RemoteAddr().String() != "dev-1" {
			panic("server addresses wrong: " + conn.LocalAddr().String())
		}
		done <- meta
	})
	conn, err := n.Dial("dev-1", "srv.com", 8443)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.LocalAddr().String() != "dev-1" || conn.RemoteAddr().String() != "srv.com:8443" {
		t.Fatalf("client addrs = %v -> %v", conn.LocalAddr(), conn.RemoteAddr())
	}
	if conn.LocalAddr().Network() != "iotls" {
		t.Fatalf("network = %q", conn.LocalAddr().Network())
	}
	meta := <-done
	if meta.SrcHost != "dev-1" || meta.DstHost != "srv.com" || meta.DstPort != 8443 {
		t.Fatalf("meta = %+v", meta)
	}
	if meta.Addr() != "srv.com:8443" {
		t.Fatalf("meta.Addr() = %q", meta.Addr())
	}
}

func TestMetaCarriesVirtualTime(t *testing.T) {
	n, clk := newTestNetwork()
	clk.Advance(42 * time.Hour)
	got := make(chan time.Time, 1)
	n.Listen("s.com", 443, func(conn net.Conn, meta ConnMeta) {
		conn.Close()
		got <- meta.At
	})
	conn, err := n.Dial("d", "s.com", 443)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if at := <-got; !at.Equal(clk.Now()) {
		t.Fatalf("meta.At = %v, want %v", at, clk.Now())
	}
}

func TestTapHijacksConnection(t *testing.T) {
	n, _ := newTestNetwork()
	n.Listen("real.com", 443, func(conn net.Conn, _ ConnMeta) {
		defer conn.Close()
		conn.Write([]byte("real"))
	})
	n.AddTap(func(meta ConnMeta) Handler {
		if meta.DstHost == "real.com" {
			return func(conn net.Conn, _ ConnMeta) {
				defer conn.Close()
				conn.Write([]byte("mitm"))
			}
		}
		return nil
	})
	conn, err := n.Dial("dev", "real.com", 443)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 4)
	io.ReadFull(conn, buf)
	if string(buf) != "mitm" {
		t.Fatalf("tap did not hijack: got %q", buf)
	}
}

func TestTapPassthrough(t *testing.T) {
	n, _ := newTestNetwork()
	n.Listen("real.com", 443, func(conn net.Conn, _ ConnMeta) {
		defer conn.Close()
		conn.Write([]byte("real"))
	})
	n.AddTap(func(ConnMeta) Handler { return nil })
	conn, err := n.Dial("dev", "real.com", 443)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 4)
	io.ReadFull(conn, buf)
	if string(buf) != "real" {
		t.Fatalf("passthrough failed: got %q", buf)
	}
}

func TestTapCanServeUnroutedDestination(t *testing.T) {
	// An interceptor can answer for destinations with no real listener
	// (as mitmproxy does for any SNI).
	n, _ := newTestNetwork()
	n.AddTap(func(ConnMeta) Handler {
		return func(conn net.Conn, _ ConnMeta) { conn.Close() }
	})
	conn, err := n.Dial("dev", "no-listener.com", 443)
	if err != nil {
		t.Fatalf("tap should route: %v", err)
	}
	conn.Close()
}

// recordingMirror captures both directions for assertions.
type recordingMirror struct {
	mu             sync.Mutex
	client, server bytes.Buffer
	closed         int
}

func (m *recordingMirror) ClientBytes(p []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.client.Write(p)
}

func (m *recordingMirror) ServerBytes(p []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.server.Write(p)
}

func (m *recordingMirror) CloseMirror() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed++
}

func TestMirrorSeesBothDirections(t *testing.T) {
	n, _ := newTestNetwork()
	n.Listen("srv.com", 443, func(conn net.Conn, _ ConnMeta) {
		defer conn.Close()
		buf := make([]byte, 5)
		io.ReadFull(conn, buf)
		conn.Write([]byte("reply"))
	})
	mir := &recordingMirror{}
	n.SetMirror(func(meta ConnMeta) Mirror {
		if meta.DstHost != "srv.com" {
			t.Errorf("mirror meta = %+v", meta)
		}
		return mir
	})
	conn, err := n.Dial("dev", "srv.com", 443)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("query"))
	buf := make([]byte, 5)
	io.ReadFull(conn, buf)
	conn.Close()
	conn.Close() // double close must not double CloseMirror

	mir.mu.Lock()
	defer mir.mu.Unlock()
	if mir.client.String() != "query" {
		t.Errorf("client bytes = %q", mir.client.String())
	}
	if mir.server.String() != "reply" {
		t.Errorf("server bytes = %q", mir.server.String())
	}
	if mir.closed != 1 {
		t.Errorf("CloseMirror called %d times, want 1", mir.closed)
	}
}

func TestMirrorFactoryNilSkips(t *testing.T) {
	n, _ := newTestNetwork()
	n.Listen("srv.com", 443, echoHandler)
	n.SetMirror(func(ConnMeta) Mirror { return nil })
	conn, err := n.Dial("dev", "srv.com", 443)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("x"))
	buf := make([]byte, 1)
	io.ReadFull(conn, buf)
	conn.Close()
}

func TestConnCount(t *testing.T) {
	n, _ := newTestNetwork()
	n.Listen("s.com", 443, func(conn net.Conn, _ ConnMeta) { conn.Close() })
	for i := 0; i < 3; i++ {
		c, err := n.Dial("d", "s.com", 443)
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	// Failed dials also count (the device attempted a connection).
	n.Dial("d", "missing.com", 443)
	if got := n.Telemetry().Counter("netem.dials").Value(); got != 4 {
		t.Fatalf("netem.dials = %d, want 4", got)
	}
}

func TestConcurrentDials(t *testing.T) {
	n, _ := newTestNetwork()
	n.Listen("s.com", 443, echoHandler)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := n.Dial("d", "s.com", 443)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			conn.Write([]byte("hi"))
			buf := make([]byte, 2)
			io.ReadFull(conn, buf)
		}()
	}
	wg.Wait()
	if got := n.Telemetry().Counter("netem.dials").Value(); got != 16 {
		t.Fatalf("netem.dials = %d", got)
	}
}

func TestDeadlinesPropagate(t *testing.T) {
	n, _ := newTestNetwork()
	n.Listen("slow.com", 443, func(conn net.Conn, _ ConnMeta) {
		// Never respond; wait for the client to give up.
		buf := make([]byte, 1)
		conn.Read(buf)
		conn.Close()
	})
	conn, err := n.Dial("dev", "slow.com", 443)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	buf := make([]byte, 1)
	_, err = conn.Read(buf)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("err = %v, want timeout", err)
	}
}

// TestClosedConnsReleaseDeadlines checks that closing a dialed
// connection frees both pipe ends even when each still has a deadline
// armed. A pipe deadline is a runtime timer holding its pipe, so
// without the clear on Close every pair would stay live until its
// timers fired, minutes from now.
func TestClosedConnsReleaseDeadlines(t *testing.T) {
	const pairs = 10000
	n, _ := newTestNetwork()
	armed := make(chan struct{})
	n.Listen("s.com", 443, func(conn net.Conn, _ ConnMeta) {
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Minute))
		armed <- struct{}{}
		buf := make([]byte, 1)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	})
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := 0; i < pairs; i++ {
		conn, err := n.Dial("d", "s.com", 443)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(10 * time.Minute))
		<-armed
		conn.Close()
	}
	n.WaitHandlers()
	after := heap()
	var retained uint64
	if after > before {
		retained = after - before
	}
	if retained > 2<<20 {
		t.Fatalf("%d closed pairs retain %.1f MiB of heap, want < 2 MiB", pairs, float64(retained)/(1<<20))
	}
}
