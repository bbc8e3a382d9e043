package certs

import (
	"errors"
	"fmt"
	"time"
)

// ErrSignature is returned when a certificate's signature does not verify
// under the purported issuer's public key. In TLS this maps to the
// decrypt_error / bad_certificate alerts, depending on the library.
var ErrSignature = errors.New("certs: signature verification failed")

// UnknownAuthorityError reports that chain building reached a certificate
// whose issuer is not in the trust pool. In TLS this maps to the
// unknown_ca alert.
type UnknownAuthorityError struct {
	Cert *Certificate
}

func (e UnknownAuthorityError) Error() string {
	return fmt.Sprintf("certs: certificate signed by unknown authority %s", e.Cert.Issuer)
}

// HostnameError reports an RFC 2818 hostname mismatch.
type HostnameError struct {
	Certificate *Certificate
	Host        string
}

func (e HostnameError) Error() string {
	return fmt.Sprintf("certs: certificate %s is not valid for host %q", e.Certificate.Subject, e.Host)
}

// ExpiredError reports that a certificate was outside its validity window
// at the verification time.
type ExpiredError struct {
	Cert *Certificate
	At   time.Time
}

func (e ExpiredError) Error() string {
	return fmt.Sprintf("certs: certificate %s not valid at %s (window %s..%s)",
		e.Cert.Subject, e.At.Format(time.RFC3339),
		e.Cert.NotBefore.Format(time.RFC3339), e.Cert.NotAfter.Format(time.RFC3339))
}

// BasicConstraintsError reports a certificate used as a CA without a valid
// CA=true BasicConstraints extension (the InvalidBasicConstraints attack).
type BasicConstraintsError struct {
	Cert *Certificate
}

func (e BasicConstraintsError) Error() string {
	return fmt.Sprintf("certs: certificate %s used as CA without CA basic constraints", e.Cert.Subject)
}

// Pool is a set of trusted root certificates indexed by subject name.
// It models a device's trusted root store. Concurrent Verify calls
// against a fixed pool are safe; mutating the pool itself is not
// synchronised.
type Pool struct {
	bySubject map[string][]*Certificate
	count     int
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{bySubject: make(map[string][]*Certificate)}
}

// Add inserts a root certificate. Duplicate fingerprints are ignored.
func (p *Pool) Add(c *Certificate) {
	key := c.Subject.String()
	for _, existing := range p.bySubject[key] {
		if existing.Fingerprint() == c.Fingerprint() {
			return
		}
	}
	p.bySubject[key] = append(p.bySubject[key], c)
	p.count++
}

// Remove deletes any stored certificate with the same fingerprint.
func (p *Pool) Remove(c *Certificate) {
	key := c.Subject.String()
	list := p.bySubject[key]
	for i, existing := range list {
		if existing.Fingerprint() == c.Fingerprint() {
			p.bySubject[key] = append(list[:i], list[i+1:]...)
			p.count--
			if len(p.bySubject[key]) == 0 {
				delete(p.bySubject, key)
			}
			return
		}
	}
}

// Len reports the number of certificates in the pool.
func (p *Pool) Len() int { return p.count }

// FindBySubject returns the trusted certificates whose subject matches
// name. This is the chain-building lookup; it intentionally matches by
// name (not key), which is what makes spoofed-CA probing possible.
func (p *Pool) FindBySubject(name Name) []*Certificate {
	return p.bySubject[name.String()]
}

// Contains reports whether the exact certificate (by fingerprint) is in
// the pool.
func (p *Pool) Contains(c *Certificate) bool {
	for _, existing := range p.bySubject[c.Subject.String()] {
		if existing.Fingerprint() == c.Fingerprint() {
			return true
		}
	}
	return false
}

// All returns every certificate in the pool in unspecified order.
func (p *Pool) All() []*Certificate {
	var out []*Certificate
	for _, list := range p.bySubject {
		out = append(out, list...)
	}
	return out
}

// Clone returns a shallow copy of the pool (certificates are shared).
func (p *Pool) Clone() *Pool {
	q := NewPool()
	for _, list := range p.bySubject {
		for _, c := range list {
			q.Add(c)
		}
	}
	return q
}

// VerifyOptions controls chain verification.
type VerifyOptions struct {
	// Roots is the trust anchor pool. Required.
	Roots *Pool
	// Hostname, when non-empty, is checked against the leaf per RFC 2818.
	Hostname string
	// At is the verification time; expiry checks are skipped if zero.
	At time.Time
	// SkipHostname disables hostname verification even when Hostname is
	// set (models clients that validate chains but not names, like the
	// paper's four Amazon devices in Table 7).
	SkipHostname bool
	// SkipBasicConstraints disables the RFC 5280 CA=true check on
	// intermediates (models clients vulnerable to the
	// InvalidBasicConstraints attack in Table 2).
	SkipBasicConstraints bool
}

// Verify validates the presented chain (leaf first) against opts. On
// success it returns the constructed path ending at the matched root.
// Every check runs on every call; only the signature of a link between
// two sealed certificates is memoized, by CheckSignatureFrom.
//
// The error type encodes the failure class precisely because the paper's
// root-store probing technique depends on distinguishing "unknown CA"
// from "known CA, bad signature":
//
//   - UnknownAuthorityError: no root store entry matched any issuer;
//   - ErrSignature: an issuer entry matched by name but the signature
//     did not verify under its key (the spoofed-CA case);
//   - HostnameError, ExpiredError, BasicConstraintsError: the
//     corresponding check failed.
func Verify(chain []*Certificate, opts VerifyOptions) ([]*Certificate, error) {
	if len(chain) == 0 {
		return nil, errors.New("certs: empty certificate chain")
	}
	if opts.Roots == nil {
		return nil, errors.New("certs: no root pool configured")
	}
	leaf := chain[0]

	if !opts.At.IsZero() && !leaf.ValidAt(opts.At) {
		return nil, ExpiredError{Cert: leaf, At: opts.At}
	}
	if opts.Hostname != "" && !opts.SkipHostname {
		if err := leaf.VerifyHostname(opts.Hostname); err != nil {
			return nil, err
		}
	}

	// Walk the presented chain, validating each link, until an issuer is
	// found in the root pool.
	path := append(make([]*Certificate, 0, len(chain)+1), leaf)
	current := leaf
	rest := chain[1:]
	for {
		// Does a trusted root claim the current cert's issuer name?
		if roots := opts.Roots.bySubject[current.issuerString()]; len(roots) > 0 {
			var sigErr error
			for _, root := range roots {
				if !opts.At.IsZero() && !root.ValidAt(opts.At) {
					sigErr = ExpiredError{Cert: root, At: opts.At}
					continue
				}
				if err := current.CheckSignatureFrom(root); err != nil {
					sigErr = err
					continue
				}
				return append(path, root), nil
			}
			// A name-matching root exists but none verified: this is the
			// spoofed-CA signal (or a stale root). Report the signature
			// failure rather than unknown authority.
			return nil, sigErr
		}

		// Otherwise the issuer must be the next certificate presented.
		if len(rest) == 0 {
			return nil, UnknownAuthorityError{Cert: current}
		}
		parent := rest[0]
		rest = rest[1:]
		if !parent.Subject.Equal(current.Issuer) {
			return nil, UnknownAuthorityError{Cert: current}
		}
		if !opts.At.IsZero() && !parent.ValidAt(opts.At) {
			return nil, ExpiredError{Cert: parent, At: opts.At}
		}
		if !opts.SkipBasicConstraints {
			if !parent.BasicConstraintsValid || !parent.IsCA {
				return nil, BasicConstraintsError{Cert: parent}
			}
			// MaxPathLen: number of intermediates allowed below parent.
			if parent.MaxPathLen >= 0 && len(path)-1 > parent.MaxPathLen {
				return nil, BasicConstraintsError{Cert: parent}
			}
		}
		if err := current.CheckSignatureFrom(parent); err != nil {
			return nil, err
		}
		path = append(path, parent)
		current = parent
		if len(path) > 8 {
			return nil, errors.New("certs: chain too long")
		}
	}
}
