package device

import (
	"repro/internal/certs"
	"repro/internal/ciphers"
	"repro/internal/clock"
	"repro/internal/tlssim"
)

// Suite lists shared by instance templates. Devices sharing a template
// produce identical TLS fingerprints — the sharing structure behind
// Figure 5.
var (
	// suitesOpenSSLOld mirrors an OpenSSL 1.0.2-era default: strong
	// ECDHE suites first but RC4/3DES still advertised.
	suitesOpenSSLOld = []ciphers.Suite{
		ciphers.TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
		ciphers.TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384,
		ciphers.TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA,
		ciphers.TLS_ECDHE_RSA_WITH_AES_256_CBC_SHA,
		ciphers.TLS_DHE_RSA_WITH_AES_128_CBC_SHA,
		ciphers.TLS_RSA_WITH_AES_128_GCM_SHA256,
		ciphers.TLS_RSA_WITH_AES_128_CBC_SHA,
		ciphers.TLS_RSA_WITH_AES_256_CBC_SHA,
		ciphers.TLS_RSA_WITH_3DES_EDE_CBC_SHA,
		ciphers.TLS_ECDHE_RSA_WITH_3DES_EDE_CBC_SHA,
		ciphers.TLS_RSA_WITH_RC4_128_SHA,
		ciphers.TLS_RSA_WITH_RC4_128_MD5,
		ciphers.TLS_ECDHE_RSA_WITH_RC4_128_SHA,
	}

	// suitesModernClean has no insecure members (the six clean devices
	// of Figure 2).
	suitesModernClean = []ciphers.Suite{
		ciphers.TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
		ciphers.TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384,
		ciphers.TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305,
		ciphers.TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256,
		ciphers.TLS_RSA_WITH_AES_128_GCM_SHA256,
		ciphers.TLS_RSA_WITH_AES_128_CBC_SHA,
	}

	// suitesTLS13 prefixes the 1.3 suites onto the clean list.
	suitesTLS13 = append([]ciphers.Suite{
		ciphers.TLS_AES_128_GCM_SHA256,
		ciphers.TLS_AES_256_GCM_SHA384,
		ciphers.TLS_CHACHA20_POLY1305_SHA256,
	}, suitesModernClean...)

	// suitesEmbedded is a small embedded-stack list with weak members,
	// RSA key exchange first (no PFS established against RSA-preferring
	// servers).
	suitesEmbedded = []ciphers.Suite{
		ciphers.TLS_RSA_WITH_AES_128_CBC_SHA,
		ciphers.TLS_RSA_WITH_AES_256_CBC_SHA,
		ciphers.TLS_RSA_WITH_3DES_EDE_CBC_SHA,
		ciphers.TLS_RSA_WITH_RC4_128_SHA,
		ciphers.TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA,
	}

	// suitesRSAOnlyLegacy: pre-PFS Apple-era list — no PFS but no
	// insecure members either (Apple TV only *added* weak suites in
	// 10/2018, Figure 2).
	suitesRSAOnlyLegacy = []ciphers.Suite{
		ciphers.TLS_RSA_WITH_AES_128_GCM_SHA256,
		ciphers.TLS_RSA_WITH_AES_256_GCM_SHA384,
		ciphers.TLS_RSA_WITH_AES_128_CBC_SHA,
		ciphers.TLS_RSA_WITH_AES_256_CBC_SHA,
	}

	// suitesRSAOnlyWeak extends the RSA-only list with 3DES/RC4 (the
	// Samsung appliance stacks).
	suitesRSAOnlyWeak = []ciphers.Suite{
		ciphers.TLS_RSA_WITH_AES_128_GCM_SHA256,
		ciphers.TLS_RSA_WITH_AES_128_CBC_SHA,
		ciphers.TLS_RSA_WITH_AES_256_CBC_SHA,
		ciphers.TLS_RSA_WITH_3DES_EDE_CBC_SHA,
		ciphers.TLS_RSA_WITH_RC4_128_SHA,
	}

	// suitesAppleWeakened is the post-10/2018 Apple TV list that added
	// weak members (Figure 2's surprising increase).
	suitesAppleWeakened = append(append([]ciphers.Suite(nil), suitesRSAOnlyLegacy...),
		ciphers.TLS_RSA_WITH_RC4_128_SHA,
	)

	// suitesApplePFS is the post-3/2019 list (ECDHE first).
	suitesApplePFS = []ciphers.Suite{
		ciphers.TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
		ciphers.TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384,
		ciphers.TLS_RSA_WITH_AES_128_GCM_SHA256,
		ciphers.TLS_RSA_WITH_AES_128_CBC_SHA,
		ciphers.TLS_RSA_WITH_RC4_128_SHA,
	}

	// suitesAppleTLS13 adds the 1.3 suites (5/2019).
	suitesAppleTLS13 = append([]ciphers.Suite{
		ciphers.TLS_AES_128_GCM_SHA256,
		ciphers.TLS_AES_256_GCM_SHA384,
	}, suitesApplePFS...)

	// suitesAmazon is the Amazon-family shared list.
	suitesAmazon = []ciphers.Suite{
		ciphers.TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
		ciphers.TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA,
		ciphers.TLS_RSA_WITH_AES_128_GCM_SHA256,
		ciphers.TLS_RSA_WITH_AES_128_CBC_SHA,
		ciphers.TLS_RSA_WITH_AES_256_CBC_SHA,
		ciphers.TLS_RSA_WITH_3DES_EDE_CBC_SHA,
		ciphers.TLS_RSA_WITH_RC4_128_SHA,
	}

	// suitesSSL3Fallback is the Amazon downgrade list (Table 5): SSL 3.0
	// with RC4/3DES only.
	suitesSSL3Fallback = []ciphers.Suite{
		ciphers.TLS_RSA_WITH_RC4_128_SHA,
		ciphers.TLS_RSA_WITH_RC4_128_MD5,
		ciphers.TLS_RSA_WITH_3DES_EDE_CBC_SHA,
	}

	sigalgsModern = []ciphers.SignatureAlgorithm{
		ciphers.ED25519,
		ciphers.RSA_PSS_SHA256,
		ciphers.RSA_PKCS1_SHA256,
		ciphers.ECDSA_SHA256,
	}
	sigalgsLegacy = []ciphers.SignatureAlgorithm{
		ciphers.ED25519,
		ciphers.RSA_PKCS1_SHA256,
		ciphers.RSA_PKCS1_SHA1,
	}
	// sigalgsWeakFallback is the Google Home Mini fallback (Table 5):
	// RSA_PKCS1_SHA1 only (plus ED25519, which the simulation's PKI
	// requires to verify any chain at all).
	sigalgsWeakFallback = []ciphers.SignatureAlgorithm{
		ciphers.ED25519,
		ciphers.RSA_PKCS1_SHA1,
	}
)

// rokuSuiteList approximates Roku's 73-suite ClientHello: every pre-1.3
// suite in the registry, insecure ones included.
func rokuSuiteList() []ciphers.Suite {
	var out []ciphers.Suite
	for _, info := range ciphers.All() {
		if !info.TLS13Only && !ciphers.Suite(info.ID).NullOrAnon() {
			out = append(out, info.ID)
		}
	}
	return out
}

// tmplOpts parameterises an instance template.
type tmplOpts struct {
	lib          *tlssim.LibraryProfile
	min, max     ciphers.Version
	suites       []ciphers.Suite
	sigalgs      []ciphers.SignatureAlgorithm
	groups       []uint16
	pointFormats []uint8
	alpn         []string
	ticket       bool
	renego       bool
	noSNI        bool
	validation   tlssim.ValidationMode
	disableAfter int
	revocation   tlssim.RevocationMode
}

// mk builds a Template from options.
func mk(o tmplOpts) Template {
	return func(roots *certs.Pool, clk clock.Clock) *tlssim.ClientConfig {
		sig := o.sigalgs
		if sig == nil {
			sig = sigalgsModern
		}
		groups := o.groups
		if groups == nil {
			groups = []uint16{29, 23, 24}
		}
		pf := o.pointFormats
		if pf == nil {
			pf = []uint8{0}
		}
		return &tlssim.ClientConfig{
			Library:                o.lib,
			MinVersion:             o.min,
			MaxVersion:             o.max,
			CipherSuites:           append([]ciphers.Suite(nil), o.suites...),
			SignatureAlgorithms:    sig,
			SupportedGroups:        groups,
			ECPointFormats:         pf,
			ALPNProtocols:          o.alpn,
			SendSessionTicket:      o.ticket,
			SendRenegotiationInfo:  o.renego,
			SendSNI:                !o.noSNI,
			Roots:                  roots,
			Validation:             o.validation,
			DisableValidationAfter: o.disableAfter,
			Revocation:             o.revocation,
			Clock:                  clk,
		}
	}
}

// Shared templates. Devices referencing the same template share a
// fingerprint.
var (
	// tmplOpenSSLOld: the OpenSSL 1.0.2 profile shared by six devices
	// (LG TV, Wink Hub 2, Harman Invoke, Roku TV, Google Home Mini's
	// pre-1.3 era, D-Link Camera's media instance).
	tmplOpenSSLOld = mk(tmplOpts{
		lib: tlssim.ProfileOpenSSL, min: ciphers.TLS10, max: ciphers.TLS12,
		suites: suitesOpenSSLOld, sigalgs: sigalgsLegacy,
		ticket: true, renego: true,
		validation: tlssim.ValidateFull,
	})

	// tmplOpenSSLOld12: the same wire fingerprint but refusing versions
	// below TLS 1.2 (devices absent from Table 6).
	tmplOpenSSLOld12 = mk(tmplOpts{
		lib: tlssim.ProfileOpenSSL, min: ciphers.TLS12, max: ciphers.TLS12,
		suites: suitesOpenSSLOld, sigalgs: sigalgsLegacy,
		ticket: true, renego: true,
		validation: tlssim.ValidateFull,
	})

	// tmplOpenSSLOld12Staple: min-1.2 variant with OCSP stapling
	// (Harman Invoke).
	tmplOpenSSLOld12Staple = mk(tmplOpts{
		lib: tlssim.ProfileOpenSSL, min: ciphers.TLS12, max: ciphers.TLS12,
		suites: suitesOpenSSLOld, sigalgs: sigalgsLegacy,
		ticket: true, renego: true,
		validation: tlssim.ValidateFull,
		revocation: tlssim.RevocationMode{RequestStaple: true},
	})

	// tmplNoValidation12: no-validation instance that still refuses old
	// protocol versions (SmartThings' metrics instance). Clean suites —
	// the weakness here is validation, not ciphersuites.
	tmplNoValidation12 = mk(tmplOpts{
		lib: tlssim.ProfileWolfSSL, min: ciphers.TLS12, max: ciphers.TLS12,
		suites: suitesModernClean, groups: []uint16{29, 23},
		validation: tlssim.ValidateNone,
	})

	// Per-vendor no-validation variants: same broken validation, small
	// configuration differences, so each camera keeps its own
	// fingerprint (the paper's fully-vulnerable devices do not cluster).
	tmplNoValidationZmodo = mk(tmplOpts{
		lib: tlssim.ProfileWolfSSL, min: ciphers.TLS10, max: ciphers.TLS12,
		suites: suitesEmbedded, groups: []uint16{23},
		validation: tlssim.ValidateNone,
	})
	tmplNoValidationAmcrest = mk(tmplOpts{
		lib: tlssim.ProfileWolfSSL, min: ciphers.TLS10, max: ciphers.TLS12,
		suites: suitesEmbedded, groups: []uint16{29},
		validation: tlssim.ValidateNone,
	})
	tmplNoValidationKettle = mk(tmplOpts{
		lib: tlssim.ProfileWolfSSL, min: ciphers.TLS10, max: ciphers.TLS12,
		suites: suitesEmbedded, pointFormats: []uint8{0, 1},
		validation: tlssim.ValidateNone,
	})

	// tmplAppleLegacy12: Apple stack refusing old versions (HomePod CDN
	// instance at the 2021 snapshot).
	tmplAppleLegacy12 = mk(tmplOpts{
		lib: tlssim.ProfileSecureTransport, min: ciphers.TLS12, max: ciphers.TLS12,
		suites: suitesRSAOnlyLegacy, alpn: []string{"h2", "http/1.1"},
		validation: tlssim.ValidateFull,
		revocation: tlssim.RevocationMode{CheckOCSP: true, RequestStaple: true},
	})

	// tmplGnuTLSModernWeak: hub/appliance GnuTLS stack that still
	// advertises 3DES (keeps GE Microwave and Behmor Brewer among
	// Figure 2's 34 weak-advertising devices).
	tmplGnuTLSModernWeak = mk(tmplOpts{
		lib: tlssim.ProfileGnuTLS, min: ciphers.TLS12, max: ciphers.TLS12,
		suites:     append(append([]ciphers.Suite(nil), suitesModernClean...), ciphers.TLS_RSA_WITH_3DES_EDE_CBC_SHA),
		renego:     true,
		validation: tlssim.ValidateFull,
	})

	// tmplOpenSSLOldStaple: the same instance requesting OCSP staples.
	tmplOpenSSLOldStaple = mk(tmplOpts{
		lib: tlssim.ProfileOpenSSL, min: ciphers.TLS10, max: ciphers.TLS12,
		suites: suitesOpenSSLOld, sigalgs: sigalgsLegacy,
		ticket: true, renego: true,
		validation: tlssim.ValidateFull,
		revocation: tlssim.RevocationMode{RequestStaple: true},
	})

	// tmplAmazon: the Amazon-family shared instance (Echo Plus/Dot/Spot,
	// Fire TV base), OpenSSL-derived, stapling.
	tmplAmazon = mk(tmplOpts{
		lib: tlssim.ProfileOpenSSL, min: ciphers.TLS10, max: ciphers.TLS12,
		suites: suitesAmazon, sigalgs: sigalgsLegacy,
		ticket:     true,
		validation: tlssim.ValidateFull,
		revocation: tlssim.RevocationMode{RequestStaple: true},
	})

	// tmplAmazonNoStaple: Echo Plus variant (not in Table 8's stapling
	// list).
	tmplAmazonNoStaple = mk(tmplOpts{
		lib: tlssim.ProfileOpenSSL, min: ciphers.TLS10, max: ciphers.TLS12,
		suites: suitesAmazon, sigalgs: sigalgsLegacy,
		ticket:     true,
		validation: tlssim.ValidateFull,
	})

	// tmplAmazonSSL3Fallback: the Table 5 downgrade configuration.
	tmplAmazonSSL3Fallback = mk(tmplOpts{
		lib: tlssim.ProfileOpenSSL, min: ciphers.SSL30, max: ciphers.SSL30,
		suites: suitesSSL3Fallback, noSNI: true,
		validation: tlssim.ValidateFull,
	})

	// tmplAmazonWrongHostname: the vulnerable Amazon instance — chain
	// validation without Common Name checks (Table 7, four devices).
	tmplAmazonWrongHostname = mk(tmplOpts{
		lib: tlssim.ProfileJavaJSSE, min: ciphers.TLS10, max: ciphers.TLS12,
		suites: suitesAmazon, sigalgs: sigalgsLegacy,
		validation: tlssim.ValidateNoHostname,
	})

	// tmplAndroidJSSE: Android's Java stack (Fire TV, Echo Spot boot
	// instance) — certificate_unknown for everything, not amenable.
	tmplAndroidJSSE = mk(tmplOpts{
		lib: tlssim.ProfileJavaJSSE, min: ciphers.TLS10, max: ciphers.TLS12,
		suites: suitesAmazon, sigalgs: sigalgsModern,
		alpn: []string{"http/1.1"}, ticket: true,
		validation: tlssim.ValidateFull,
		revocation: tlssim.RevocationMode{RequestStaple: true},
	})

	// tmplMbedTLS: the MbedTLS embedded profile (Echo Dot 3) — amenable
	// with bad_certificate/unknown_ca alerts.
	tmplMbedTLS = mk(tmplOpts{
		lib: tlssim.ProfileMbedTLS, min: ciphers.TLS12, max: ciphers.TLS12,
		suites:     suitesEmbedded,
		validation: tlssim.ValidateFull,
	})

	// tmplWolfEmbedded: WolfSSL embedded profile (TP-Link, Smartlife,
	// Meross, Wemo, D-Link boot) — not amenable.
	tmplWolfEmbedded12 = mk(tmplOpts{
		lib: tlssim.ProfileWolfSSL, min: ciphers.TLS12, max: ciphers.TLS12,
		suites:     suitesEmbedded,
		validation: tlssim.ValidateFull,
	})
	tmplWolfEmbeddedOld = mk(tmplOpts{
		lib: tlssim.ProfileWolfSSL, min: ciphers.TLS10, max: ciphers.TLS12,
		suites:     suitesEmbedded,
		validation: tlssim.ValidateFull,
	})

	// tmplNoValidation: the embedded no-validation instance (Zmodo,
	// Amcrest, Smarter iKettle, LG TV's second instance, ...).
	tmplNoValidation = mk(tmplOpts{
		lib: tlssim.ProfileWolfSSL, min: ciphers.TLS10, max: ciphers.TLS12,
		suites:     suitesEmbedded,
		validation: tlssim.ValidateNone,
	})

	// tmplYiGiveUp: full validation that gives up after 3 consecutive
	// failures (§5.2's Yi Camera).
	tmplYiGiveUp = mk(tmplOpts{
		lib: tlssim.ProfileMbedTLS, min: ciphers.TLS10, max: ciphers.TLS12,
		suites:       suitesEmbedded,
		validation:   tlssim.ValidateFull,
		disableAfter: 3,
	})

	// tmplGnuTLSModern: hub-class GnuTLS stack, silent on failure.
	tmplGnuTLSModern = mk(tmplOpts{
		lib: tlssim.ProfileGnuTLS, min: ciphers.TLS12, max: ciphers.TLS12,
		suites: suitesModernClean, renego: true,
		validation: tlssim.ValidateFull,
	})
	tmplGnuTLSOld = mk(tmplOpts{
		lib: tlssim.ProfileGnuTLS, min: ciphers.TLS10, max: ciphers.TLS12,
		suites: suitesOpenSSLOld, renego: true,
		validation: tlssim.ValidateFull,
	})
	tmplGnuTLSModernStaple = mk(tmplOpts{
		lib: tlssim.ProfileGnuTLS, min: ciphers.TLS12, max: ciphers.TLS12,
		suites: suitesModernClean, renego: true,
		validation: tlssim.ValidateFull,
		revocation: tlssim.RevocationMode{RequestStaple: true},
	})

	// tmplClean12: the clean single-instance profile of the six
	// Figure 2 exclusions. GnuTLS-profile (silent on failure) so the
	// clean devices stay outside Table 9's amenable set.
	tmplClean12 = mk(tmplOpts{
		lib: tlssim.ProfileGnuTLS, min: ciphers.TLS12, max: ciphers.TLS12,
		suites: suitesModernClean, ticket: true,
		validation: tlssim.ValidateFull,
	})

	// tmplHomeMini12 / tmplHomeMini13: Google Home Mini before and after
	// its 5/2019 TLS 1.3 transition. OpenSSL-profile (BoringSSL), clean
	// suites, stapling.
	tmplHomeMini12 = mk(tmplOpts{
		lib: tlssim.ProfileOpenSSL, min: ciphers.TLS10, max: ciphers.TLS12,
		suites: suitesModernClean, ticket: true, renego: true,
		validation: tlssim.ValidateFull,
		revocation: tlssim.RevocationMode{RequestStaple: true},
	})
	tmplHomeMini13 = mk(tmplOpts{
		lib: tlssim.ProfileOpenSSL, min: ciphers.TLS10, max: ciphers.TLS13,
		suites: suitesTLS13, ticket: true, renego: true,
		validation: tlssim.ValidateFull,
		revocation: tlssim.RevocationMode{RequestStaple: true},
	})
	// tmplHomeMiniFallback: Table 5's cipher/signature downgrade.
	tmplHomeMiniFallback = mk(tmplOpts{
		lib: tlssim.ProfileOpenSSL, min: ciphers.TLS10, max: ciphers.TLS12,
		suites:     []ciphers.Suite{ciphers.TLS_RSA_WITH_3DES_EDE_CBC_SHA},
		sigalgs:    sigalgsWeakFallback,
		validation: tlssim.ValidateFull,
	})

	// Apple templates (SecureTransport: silent on failure, OCSP).
	tmplAppleLegacy = mk(tmplOpts{
		lib: tlssim.ProfileSecureTransport, min: ciphers.TLS10, max: ciphers.TLS12,
		suites: suitesRSAOnlyLegacy, alpn: []string{"h2", "http/1.1"},
		validation: tlssim.ValidateFull,
		revocation: tlssim.RevocationMode{CheckOCSP: true, RequestStaple: true},
	})
	tmplAppleWeakened = mk(tmplOpts{
		lib: tlssim.ProfileSecureTransport, min: ciphers.TLS10, max: ciphers.TLS12,
		suites: suitesAppleWeakened, alpn: []string{"h2", "http/1.1"},
		validation: tlssim.ValidateFull,
		revocation: tlssim.RevocationMode{CheckOCSP: true, RequestStaple: true},
	})
	tmplApplePFS = mk(tmplOpts{
		lib: tlssim.ProfileSecureTransport, min: ciphers.TLS10, max: ciphers.TLS12,
		suites: suitesApplePFS, alpn: []string{"h2", "http/1.1"},
		validation: tlssim.ValidateFull,
		revocation: tlssim.RevocationMode{CheckOCSP: true, RequestStaple: true},
	})
	tmplAppleTLS13 = mk(tmplOpts{
		lib: tlssim.ProfileSecureTransport, min: ciphers.TLS12, max: ciphers.TLS13,
		suites: suitesAppleTLS13, alpn: []string{"h2", "http/1.1"},
		validation: tlssim.ValidateFull,
		revocation: tlssim.RevocationMode{CheckOCSP: true, RequestStaple: true},
	})
	// tmplAppleTLS10Fallback: the HomePod downgrade (Table 5).
	tmplAppleTLS10Fallback = mk(tmplOpts{
		lib: tlssim.ProfileSecureTransport, min: ciphers.TLS10, max: ciphers.TLS10,
		suites:     suitesRSAOnlyLegacy,
		validation: tlssim.ValidateFull,
		revocation: tlssim.RevocationMode{CheckOCSP: true},
	})
	// tmplHomePod13 advertises TLS 1.3 (Figure 1) while its 1.2 suite
	// list remains RSA-only — PFS arrives only with the 1/2020 update
	// (Figure 3). Its servers cap at TLS 1.2, so establishment stays RSA.
	tmplHomePod13 = mk(tmplOpts{
		lib: tlssim.ProfileSecureTransport, min: ciphers.TLS12, max: ciphers.TLS13,
		suites: append([]ciphers.Suite{
			ciphers.TLS_AES_128_GCM_SHA256,
			ciphers.TLS_AES_256_GCM_SHA384,
		}, append(append([]ciphers.Suite(nil), suitesRSAOnlyLegacy...), ciphers.TLS_RSA_WITH_RC4_128_SHA)...),
		alpn:       []string{"h2", "http/1.1"},
		validation: tlssim.ValidateFull,
		revocation: tlssim.RevocationMode{CheckOCSP: true, RequestStaple: true},
	})
	tmplHomePodPFS13 = mk(tmplOpts{
		lib: tlssim.ProfileSecureTransport, min: ciphers.TLS12, max: ciphers.TLS13,
		suites: append([]ciphers.Suite{
			ciphers.TLS_AES_128_GCM_SHA256,
			ciphers.TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
			ciphers.TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384,
		}, suitesRSAOnlyLegacy...), alpn: []string{"h2", "http/1.1"},
		validation: tlssim.ValidateFull,
		revocation: tlssim.RevocationMode{CheckOCSP: true, RequestStaple: true},
	})

	// Roku: a 73-suite-style hello, OpenSSL-derived, with the Table 5
	// single-RC4-suite fallback.
	tmplRoku = mk(tmplOpts{
		lib: tlssim.ProfileOpenSSL, min: ciphers.TLS10, max: ciphers.TLS12,
		suites: rokuSuiteList(), sigalgs: sigalgsLegacy, ticket: true,
		validation: tlssim.ValidateFull,
	})
	tmplRokuFallback = mk(tmplOpts{
		lib: tlssim.ProfileOpenSSL, min: ciphers.TLS10, max: ciphers.TLS12,
		suites:     []ciphers.Suite{ciphers.TLS_RSA_WITH_RC4_128_SHA},
		validation: tlssim.ValidateFull,
	})
	// tmplRokuSecondary: Roku's second instance (platform apps).
	tmplRokuSecondary = mk(tmplOpts{
		lib: tlssim.ProfileJavaJSSE, min: ciphers.TLS12, max: ciphers.TLS12,
		suites:     suitesModernClean,
		validation: tlssim.ValidateFull,
	})

	// Samsung appliances: Java-stack, TLS 1.1 minimum (Table 6's
	// Fridge/Dryer rows), talking to legacy servers (Figure 1).
	tmplSamsungAppliance = mk(tmplOpts{
		lib: tlssim.ProfileJavaJSSE, min: ciphers.TLS11, max: ciphers.TLS12,
		suites:     suitesRSAOnlyWeak,
		validation: tlssim.ValidateFull,
	})
	tmplSamsungApplianceStaple = mk(tmplOpts{
		lib: tlssim.ProfileJavaJSSE, min: ciphers.TLS11, max: ciphers.TLS12,
		suites:     suitesRSAOnlyWeak,
		validation: tlssim.ValidateFull,
		revocation: tlssim.RevocationMode{RequestStaple: true},
	})
	// tmplSamsungTV: CRL + OCSP + stapling (the Table 8 outlier).
	tmplSamsungTV = mk(tmplOpts{
		lib: tlssim.ProfileJavaJSSE, min: ciphers.TLS10, max: ciphers.TLS12,
		suites: suitesOpenSSLOld, sigalgs: sigalgsModern,
		validation: tlssim.ValidateFull,
		revocation: tlssim.RevocationMode{CheckCRL: true, CheckOCSP: true, RequestStaple: true},
	})

	// Wemo: frozen at TLS 1.0 for the entire study (Figure 1's only
	// always-insecure advertiser; Table 6's 1.0-but-not-1.1 row).
	tmplWemo = mk(tmplOpts{
		lib: tlssim.ProfileWolfSSL, min: ciphers.SSL30, max: ciphers.TLS10,
		suites: suitesEmbedded, noSNI: false,
		validation: tlssim.ValidateFull,
	})

	// Blink Hub's three eras: TLS 1.1 with weak suites, then TLS 1.2
	// (7/2018), then clean suites (5/2019), then PFS (10/2019 — folded
	// into the clean list which is ECDHE-first).
	tmplBlinkHub11 = mk(tmplOpts{
		lib: tlssim.ProfileGnuTLS, min: ciphers.TLS10, max: ciphers.TLS11,
		suites:     suitesEmbedded,
		validation: tlssim.ValidateFull,
	})
	tmplBlinkHub12 = mk(tmplOpts{
		lib: tlssim.ProfileGnuTLS, min: ciphers.TLS10, max: ciphers.TLS12,
		suites:     suitesEmbedded,
		validation: tlssim.ValidateFull,
	})
	tmplBlinkHubClean = mk(tmplOpts{
		lib: tlssim.ProfileGnuTLS, min: ciphers.TLS12, max: ciphers.TLS12,
		suites:     suitesRSAOnlyLegacy[:2],
		validation: tlssim.ValidateFull,
	})
	tmplBlinkHubPFS = mk(tmplOpts{
		lib: tlssim.ProfileGnuTLS, min: ciphers.TLS12, max: ciphers.TLS12,
		suites:     suitesModernClean,
		validation: tlssim.ValidateFull,
	})

	// SmartThings Hub: weak-advertising until 3/2020 (Figure 2).
	tmplSmartThingsOld = mk(tmplOpts{
		lib: tlssim.ProfileGnuTLS, min: ciphers.TLS12, max: ciphers.TLS12,
		suites:     suitesOpenSSLOld,
		validation: tlssim.ValidateFull,
		revocation: tlssim.RevocationMode{RequestStaple: true},
	})
	tmplSmartThingsClean = mk(tmplOpts{
		lib: tlssim.ProfileGnuTLS, min: ciphers.TLS12, max: ciphers.TLS12,
		suites:     suitesModernClean,
		validation: tlssim.ValidateFull,
		revocation: tlssim.RevocationMode{RequestStaple: true},
	})

	// Ring Doorbell: RSA-only until its 4/2018 PFS adoption (Figure 3).
	tmplRingLegacy = mk(tmplOpts{
		lib: tlssim.ProfileOpenSSL, min: ciphers.TLS12, max: ciphers.TLS12,
		suites:     append(append([]ciphers.Suite(nil), suitesRSAOnlyLegacy...), ciphers.TLS_RSA_WITH_RC4_128_SHA),
		validation: tlssim.ValidateFull,
	})
	tmplRingPFS = mk(tmplOpts{
		lib: tlssim.ProfileOpenSSL, min: ciphers.TLS12, max: ciphers.TLS12,
		suites: append([]ciphers.Suite{
			ciphers.TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
			ciphers.TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384,
		}, append(append([]ciphers.Suite(nil), suitesRSAOnlyLegacy...), ciphers.TLS_RSA_WITH_RC4_128_SHA)...),
		validation: tlssim.ValidateFull,
	})

	// Insteon Hub's eras: TLS 1.2, a TLS 1.0-heavy period (7/2018 -
	// 8/2019), then TLS 1.2 exclusively (9/2019).
	tmplInsteon12 = mk(tmplOpts{
		lib: tlssim.ProfileWolfSSL, min: ciphers.TLS10, max: ciphers.TLS12,
		suites:     suitesEmbedded,
		validation: tlssim.ValidateFull,
	})
	tmplInsteonOld = mk(tmplOpts{
		lib: tlssim.ProfileWolfSSL, min: ciphers.SSL30, max: ciphers.TLS10,
		suites:     suitesEmbedded,
		validation: tlssim.ValidateFull,
	})
	tmplInsteonFinal = mk(tmplOpts{
		lib: tlssim.ProfileWolfSSL, min: ciphers.TLS12, max: ciphers.TLS12,
		suites:     suitesEmbedded,
		validation: tlssim.ValidateFull,
	})

	// Harman Invoke: OpenSSL boot instance plus a Microsoft-stack
	// second instance (the Figure 5 Microsoft cluster).
	tmplMicrosoftSDK = mk(tmplOpts{
		lib: tlssim.ProfileJavaJSSE, min: ciphers.TLS12, max: ciphers.TLS12,
		suites: suitesModernClean, alpn: []string{"h2"},
		validation: tlssim.ValidateFull,
	})

	// LG appliances (Dishwasher): TLS 1.0-1.2, legacy servers.
	tmplLGAppliance = mk(tmplOpts{
		lib: tlssim.ProfileOpenSSL, min: ciphers.TLS10, max: ciphers.TLS12,
		suites:     suitesEmbedded,
		validation: tlssim.ValidateFull,
	})
)
