package certs

import (
	"crypto/ed25519"
	"crypto/sha512"
	"crypto/subtle"
)

// proofSize is the length of a possession proof. It equals Ed25519's
// signature length, so a ServerHelloDone is as long as one carrying a
// real signature, and record sizes, netem byte counts and captures do
// not depend on the proof's primitive.
const proofSize = sha512.Size

// proofKeyLabel domain-separates proof keys from every other hash of a
// public key.
const proofKeyLabel = "iotls-proof-key:"

// proofKeyOf derives the proof key of an Ed25519 public key. It is
// unexported on purpose: outside this package the only way to hold a
// proof key is to hold a KeyPair that NewRootCA, Issue or Spoof
// derived, so a presenter that has only a certificate chain cannot
// prove possession of its key.
func proofKeyOf(pub ed25519.PublicKey) [sha512.Size]byte {
	h := sha512.New()
	h.Write([]byte(proofKeyLabel))
	h.Write(pub)
	var key [sha512.Size]byte
	h.Sum(key[:0])
	return key
}

// mac writes HMAC-SHA512(key, input) (RFC 2104) to dst. It hashes
// through stack-allocated digests rather than crypto/hmac, which
// allocates five objects per call; a proof runs on every handshake.
func mac(dst *[proofSize]byte, key *[sha512.Size]byte, input []byte) {
	var pad [sha512.BlockSize]byte
	for i := range pad {
		pad[i] = 0x36
	}
	for i, b := range key {
		pad[i] ^= b
	}
	inner := sha512.New()
	inner.Write(pad[:])
	inner.Write(input)
	inner.Sum(dst[:0])
	for i := range pad {
		pad[i] ^= 0x36 ^ 0x5c
	}
	outer := sha512.New()
	outer.Write(pad[:])
	outer.Write(dst[:])
	outer.Sum(dst[:0])
}

// Prove returns the pair's proof of possession over input: a keyed MAC
// that CheckProof accepts only under the pair's public key. A pair that
// this package did not derive — for example KeyPair{Cert: c} built by
// hand — holds no proof key, and its proof is 64 zero bytes,
// which no key's MAC equals in practice.
func (kp KeyPair) Prove(input []byte) []byte {
	// Small enough to inline, so the proof can live on the caller's
	// stack.
	proof := make([]byte, proofSize)
	if kp.proofKey != nil {
		mac((*[proofSize]byte)(proof), kp.proofKey, input)
	}
	return proof
}

// CheckProof reports whether proof is the possession proof over input
// by the holder of pub's key pair. The comparison runs in constant
// time.
func CheckProof(pub ed25519.PublicKey, input, proof []byte) bool {
	if len(pub) != ed25519.PublicKeySize || len(proof) != proofSize {
		return false
	}
	key := proofKeyOf(pub)
	var want [proofSize]byte
	mac(&want, &key, input)
	return subtle.ConstantTimeCompare(want[:], proof) == 1
}
