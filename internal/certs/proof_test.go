package certs

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/sha512"
	"fmt"
	"sync"
	"testing"
)

// proofInput stands in for a catalog handshake's proof input: the
// proof prefix plus a ClientHello, ServerHello, a two-certificate
// Certificate message and framing come to about 1.2 KB.
var proofInput = func() []byte {
	b := make([]byte, 1200)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}()

func TestProofVerdicts(t *testing.T) {
	root := NewRootCA(Name{CommonName: "Proof Root"}, 1, t2018, t2030, "proof-root")
	leaf := root.Issue(Template{
		SerialNumber: 2,
		Subject:      Name{CommonName: "proof.example.com"},
		NotBefore:    t2018, NotAfter: t2030,
		DNSNames: []string{"proof.example.com"},
	}, "proof-leaf")
	spoof := Spoof(root.Cert, "proof-spoofer")
	pub := leaf.Cert.PublicKey
	good := leaf.Prove(proofInput)
	flipped := append([]byte(nil), good...)
	flipped[17] ^= 0x04
	otherInput := append([]byte(nil), proofInput...)
	otherInput[len(otherInput)-1] ^= 0x01
	copied := leaf

	cases := []struct {
		name  string
		pub   ed25519.PublicKey
		input []byte
		proof []byte
		want  bool
	}{
		{"genuine pair", pub, proofInput, good, true},
		{"genuine root", root.Cert.PublicKey, proofInput, root.Prove(proofInput), true},
		{"genuine spoof", spoof.Cert.PublicKey, proofInput, spoof.Prove(proofInput), true},
		{"copied pair", pub, proofInput, copied.Prove(proofInput), true},
		{"flipped bit", pub, proofInput, flipped, false},
		{"different input", pub, otherInput, good, false},
		{"different public key", root.Cert.PublicKey, proofInput, good, false},
		{"same names, spoofed key", spoof.Cert.PublicKey, proofInput, root.Prove(proofInput), false},
		{"short proof", pub, proofInput, good[:proofSize-1], false},
		{"long proof", pub, proofInput, append(append([]byte(nil), good...), 0), false},
		{"empty proof", pub, proofInput, nil, false},
		{"short public key", pub[:ed25519.PublicKeySize-1], proofInput, good, false},
		{"hand-built pair", pub, proofInput, KeyPair{Cert: leaf.Cert}.Prove(proofInput), false},
		{"hand-built pair with the private key", pub, proofInput, KeyPair{Cert: leaf.Cert, Key: leaf.Key}.Prove(proofInput), false},
	}
	for _, tc := range cases {
		if got := CheckProof(tc.pub, tc.input, tc.proof); got != tc.want {
			t.Errorf("%s: CheckProof = %v, want %v", tc.name, got, tc.want)
		}
	}
	if n := len(KeyPair{Cert: leaf.Cert}.Prove(proofInput)); n != proofSize {
		t.Fatalf("hand-built pair's proof is %d bytes, want %d", n, proofSize)
	}
}

// TestProofIsHMACSHA512 pins mac to the RFC 2104 construction that
// crypto/hmac implements.
func TestProofIsHMACSHA512(t *testing.T) {
	key := proofKeyOf(make(ed25519.PublicKey, ed25519.PublicKeySize))
	for _, n := range []int{0, 1, 127, 128, 129, len(proofInput)} {
		h := hmac.New(sha512.New, key[:])
		h.Write(proofInput[:n])
		var got [proofSize]byte
		mac(&got, &key, proofInput[:n])
		if !hmac.Equal(got[:], h.Sum(nil)) {
			t.Fatalf("mac over %d bytes differs from crypto/hmac", n)
		}
	}
}

func TestProofAllocations(t *testing.T) {
	leaf := NewRootCA(Name{CommonName: "Proof Allocs"}, 1, t2018, t2030, "proof-allocs")
	proof := leaf.Prove(proofInput)
	if n := testing.AllocsPerRun(50, func() { leaf.Prove(proofInput) }); n > 1 {
		t.Errorf("Prove allocates %v times, want at most the proof itself", n)
	}
	if n := testing.AllocsPerRun(50, func() { CheckProof(leaf.Cert.PublicKey, proofInput, proof) }); n != 0 {
		t.Errorf("CheckProof allocates %v times, want 0", n)
	}
}

func TestDeterministicKeyDerivedOnce(t *testing.T) {
	const seed = "derived-once"
	const workers = 8
	keys := make([]namedKey, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			keys[w] = deterministicKey(seed)
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if keys[w].proof != keys[0].proof || &keys[w].priv[0] != &keys[0].priv[0] {
			t.Fatalf("worker %d got its own derivation of %q", w, seed)
		}
	}
	sum := sha256.Sum256([]byte("iotls-key:" + seed))
	want := ed25519.NewKeyFromSeed(sum[:])
	if !want.Equal(keys[0].priv) || !want.Public().(ed25519.PublicKey).Equal(keys[0].pub) ||
		*keys[0].proof != proofKeyOf(keys[0].pub) {
		t.Fatal("memoized key material is not the derivation of its seed")
	}
}

func TestDeterministicKeyPastCap(t *testing.T) {
	first := deterministicKey("past-cap-0")
	for i := 1; i < keyCap+16; i++ {
		deterministicKey(fmt.Sprintf("past-cap-%d", i))
	}
	derivedKeys.Lock()
	n := len(derivedKeys.m)
	derivedKeys.Unlock()
	if n > keyCap {
		t.Fatalf("derived-key table holds %d keys, cap %d", n, keyCap)
	}
	again := deterministicKey("past-cap-0")
	if !again.priv.Equal(first.priv) || *again.proof != *first.proof {
		t.Fatal("re-deriving a seed after the table started over gave different keys")
	}
}

// BenchmarkProof compares the possession proof a handshake makes and
// checks, Prove plus CheckProof, with the Ed25519 Sign plus Verify it
// replaced, over a catalog-sized proof input.
func BenchmarkProof(b *testing.B) {
	leaf := NewRootCA(Name{CommonName: "Proof Bench"}, 1, t2018, t2030, "proof-bench")
	pub := leaf.Cert.PublicKey
	b.Run("mac", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !CheckProof(pub, proofInput, leaf.Prove(proofInput)) {
				b.Fatal("proof rejected")
			}
		}
	})
	b.Run("ed25519", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !ed25519.Verify(pub, proofInput, ed25519.Sign(leaf.Key, proofInput)) {
				b.Fatal("signature rejected")
			}
		}
	})
}
