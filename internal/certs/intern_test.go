package certs

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"sync"
	"testing"
	"time"
)

// internPKI builds a root, an intermediate and a leaf from seeds no
// other test uses, so the intern entries these tests inspect are theirs
// alone. It returns the pool trusting the root and the wire chain
// (leaf, intermediate).
func internPKI(t testing.TB, tag string) (*Pool, []byte) {
	t.Helper()
	root := NewRootCA(Name{CommonName: "Intern Root " + tag}, 1, t2018, t2030, "intern-root-"+tag)
	inter := root.Issue(Template{
		SerialNumber: 2,
		Subject:      Name{CommonName: "Intern Intermediate " + tag},
		NotBefore:    t2018, NotAfter: t2030,
		IsCA: true, MaxPathLen: 0,
	}, "intern-inter-"+tag)
	leaf := inter.Issue(Template{
		SerialNumber: 3,
		Subject:      Name{CommonName: "intern.example.com"},
		NotBefore:    t2018, NotAfter: t2030,
		DNSNames: []string{"intern.example.com"},
	}, "intern-leaf-"+tag)
	pool := NewPool()
	pool.Add(root.Cert)
	return pool, MarshalChain([]*Certificate{leaf.Cert, inter.Cert})
}

func internOpts(pool *Pool) VerifyOptions {
	return VerifyOptions{Roots: pool, Hostname: "intern.example.com", At: t2021}
}

func mustParseChain(t *testing.T, enc []byte) []*Certificate {
	t.Helper()
	chain, err := ParseChain(enc)
	if err != nil {
		t.Fatalf("ParseChain: %v", err)
	}
	return chain
}

func TestParseChainInternsByContent(t *testing.T) {
	pool, enc := internPKI(t, "same")
	first := mustParseChain(t, enc)
	second := mustParseChain(t, append([]byte(nil), enc...))
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("certificate %d: re-parsing the same bytes gave a new pointer", i)
		}
	}
	path, err := Verify(first, internOpts(pool))
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	leaf, inter, root := first[0], first[1], path[2]
	for _, link := range []struct{ child, parent *Certificate }{{leaf, inter}, {inter, root}} {
		v, ok := link.child.sigMemo.Load(link.parent.Fingerprint())
		if !ok || v != nil {
			t.Fatalf("%s: memo entry for its parent = %v (present %v), want a memoized success",
				link.child.Subject, v, ok)
		}
	}

	// Prove the re-parsed chain's verdict comes from the memo: a
	// planted outcome for the leaf's link surfaces, untouched by
	// ed25519, and removing it restores the real verdict.
	planted := errors.New("planted memo outcome")
	leaf.sigMemo.Store(inter.Fingerprint(), planted)
	if _, err := Verify(second, internOpts(pool)); !errors.Is(err, planted) {
		t.Fatalf("second Verify = %v, want the memoized outcome", err)
	}
	leaf.sigMemo.Delete(inter.Fingerprint())
	if _, err := Verify(second, internOpts(pool)); err != nil {
		t.Fatalf("Verify after dropping the planted outcome: %v", err)
	}
}

func TestParseChainCorruptionGetsOwnVerdict(t *testing.T) {
	pool, enc := internPKI(t, "corrupt")
	good := mustParseChain(t, enc)
	if _, err := Verify(good, internOpts(pool)); err != nil {
		t.Fatalf("Verify of the good chain: %v", err)
	}
	leafLen := int(enc[0])<<16 | int(enc[1])<<8 | int(enc[2])
	for _, tc := range []struct {
		name string
		at   int // byte offset in enc
	}{
		{"signature", 3 + leafLen - 1}, // last byte of the leaf's signature
		{"tbs", 3 + 1 + 7},             // low byte of the leaf's serial number
	} {
		bad := append([]byte(nil), enc...)
		bad[tc.at] ^= 0x01
		chain := mustParseChain(t, bad)
		if chain[0] == good[0] {
			t.Fatalf("%s flip: corrupted leaf shares the good leaf's pointer", tc.name)
		}
		if chain[0].Fingerprint() == good[0].Fingerprint() {
			t.Fatalf("%s flip: corrupted leaf shares the good leaf's fingerprint", tc.name)
		}
		if chain[1] != good[1] {
			t.Fatalf("%s flip: the untouched intermediate was not shared", tc.name)
		}
		if _, err := Verify(chain, internOpts(pool)); !errors.Is(err, ErrSignature) {
			t.Fatalf("%s flip: Verify = %v, want ErrSignature", tc.name, err)
		}
	}
	if _, err := Verify(mustParseChain(t, enc), internOpts(pool)); err != nil {
		t.Fatalf("good chain after the corrupted ones: %v", err)
	}
}

func TestParseChainPastInternCap(t *testing.T) {
	_, enc := internPKI(t, "cap")
	leafLen := int(enc[0])<<16 | int(enc[1])<<8 | int(enc[2])
	frame := append([]byte(nil), enc[:3+leafLen]...)
	for i := 0; i < internCap+16; i++ {
		// Distinct serial numbers give distinct encodings that still
		// parse (their signatures no longer verify, which Parse does
		// not check).
		serial := uint64(1)<<62 | uint64(i)
		binary.BigEndian.PutUint64(frame[3+1:], serial)
		chain := mustParseChain(t, frame)
		c := chain[0]
		sum := sha256.Sum256(frame[3:])
		if c.self != c || c.SerialNumber != serial ||
			c.Fingerprint() != hex.EncodeToString(sum[:]) || !bytes.Equal(c.Marshal(), frame[3:]) {
			t.Fatalf("parse %d: certificate is not the sealed decoding of its bytes", i)
		}
	}
	interned.Lock()
	n := len(interned.m)
	interned.Unlock()
	if n > internCap {
		t.Fatalf("intern table holds %d certificates, cap %d", n, internCap)
	}
}

func TestParseChainConcurrent(t *testing.T) {
	pool, enc := internPKI(t, "concurrent")
	const workers = 8
	chains := make([][]*Certificate, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				chain, err := ParseChain(enc)
				if err == nil {
					_, err = Verify(chain, internOpts(pool))
				}
				if err != nil {
					errs[w] = err
					return
				}
				chains[w] = chain
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		for i := range chains[w] {
			if chains[w][i] != chains[0][i] {
				t.Fatalf("worker %d got its own certificate %d", w, i)
			}
		}
	}
}

func TestMarshalReturnsACopy(t *testing.T) {
	_, enc := internPKI(t, "copy")
	c := mustParseChain(t, enc)[0]
	out := c.Marshal()
	out[len(out)-1] ^= 0xff
	if !bytes.Equal(c.Marshal(), enc[3:3+len(out)]) {
		t.Fatal("modifying Marshal's result changed the certificate's encoding")
	}
}

// BenchmarkChainVerifyWire times what a handshake does with a presented
// chain: parse it from the wire, then verify it at a time that advances
// one second per iteration.
func BenchmarkChainVerifyWire(b *testing.B) {
	pool, enc := internPKI(b, "bench")
	opts := internOpts(pool)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chain, err := ParseChain(enc)
		if err != nil {
			b.Fatal(err)
		}
		opts.At = t2021.Add(time.Duration(i) * time.Second)
		if _, err := Verify(chain, opts); err != nil {
			b.Fatal(err)
		}
	}
}
