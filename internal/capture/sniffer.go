package capture

import (
	"sync"

	"repro/internal/fingerprint"
	"repro/internal/netem"
	"repro/internal/wire"
)

// sniffer reassembles the TLS record stream of one mirrored connection,
// direction by direction, and publishes an Observation when the
// connection closes. It tolerates arbitrary byte fragmentation: mirrors
// deliver whatever chunks the transport produced.
type sniffer struct {
	collector *Collector
	hot       *storeCounters
	meta      netem.ConnMeta

	mu        sync.Mutex
	c2s, s2c  wire.Framer
	obs       *Observation
	published bool
	// ccsFromServer tracks establishment: the server sends CCS only
	// after validating the client's Finished.
	ccsFromServer bool
	// poisoned remembers that a desynchronised direction was already
	// counted, so the counter moves once per stream.
	poisonedC2S, poisonedS2C bool
}

func newSniffer(c *Collector, meta netem.ConnMeta) *sniffer {
	return &sniffer{
		collector: c,
		hot:       c.Store.hot.Load(),
		meta:      meta,
		obs: &Observation{
			Device: meta.SrcHost,
			Host:   meta.DstHost,
			Port:   meta.DstPort,
			Time:   meta.At,
		},
	}
}

// ClientBytes implements netem.Mirror.
func (s *sniffer) ClientBytes(p []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.c2s.Feed(p, func(rec wire.Record) { s.onRecord(rec, true) })
	if s.c2s.Poisoned() && !s.poisonedC2S {
		s.poisonedC2S = true
		s.hot.poisoned.Inc()
	}
}

// ServerBytes implements netem.Mirror.
func (s *sniffer) ServerBytes(p []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.s2c.Feed(p, func(rec wire.Record) { s.onRecord(rec, false) })
	if s.s2c.Poisoned() && !s.poisonedS2C {
		s.poisonedS2C = true
		s.hot.poisoned.Inc()
	}
}

// CloseMirror implements netem.Mirror.
func (s *sniffer) CloseMirror() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.published {
		return
	}
	s.published = true
	// The publish runs on the goroutine that closed the connection —
	// the connection attempt's own — so the capture-write span is
	// deterministically the attempt's last child.
	wsp := s.meta.Trace.Child("capture_write", s.meta.SrcHost+"->"+s.meta.DstHost)
	s.obs.Weight = s.collector.takeWeight(s.meta.SrcHost, s.meta.DstHost, s.meta.DstPort)
	s.collector.Store.Add(s.obs)
	wsp.End("ok")
}

// onRecord dissects one reassembled record.
func (s *sniffer) onRecord(rec wire.Record, fromClient bool) {
	s.hot.records.Inc()
	switch rec.Type {
	case wire.TypeHandshake:
		wire.EachHandshake(rec.Payload, func(msg wire.Handshake) bool {
			s.onHandshake(msg, fromClient)
			return true
		})
	case wire.TypeAlert:
		a, err := wire.ParseAlert(rec.Payload)
		if err != nil {
			return
		}
		if fromClient {
			if s.obs.ClientAlert == nil {
				s.obs.ClientAlert = &a
			}
		} else if s.obs.ServerAlert == nil {
			s.obs.ServerAlert = &a
		}
	case wire.TypeChangeCipherSpec:
		if !fromClient {
			s.ccsFromServer = true
			s.obs.Established = true
		}
	case wire.TypeApplicationData:
		if s.ccsFromServer {
			s.obs.AppDataRecords++
		}
	}
}

func (s *sniffer) onHandshake(msg wire.Handshake, fromClient bool) {
	switch {
	case fromClient && msg.Type == wire.TypeClientHello:
		ch, err := wire.ParseClientHello(msg.Body)
		if err != nil {
			return
		}
		s.obs.SawClientHello = true
		if sni, ok := ch.SNI(); ok {
			s.obs.SNI = sni
		}
		s.obs.AdvertisedMax = ch.MaxVersion()
		s.obs.AdvertisedVersions = ch.SupportedVersions()
		s.obs.AdvertisedSuites = ch.CipherSuites
		s.obs.RequestedOCSPStaple = ch.RequestsOCSPStaple()
		s.obs.Fingerprint = fingerprint.FromClientHello(ch)
	case !fromClient && msg.Type == wire.TypeServerHello:
		sh, err := wire.ParseServerHello(msg.Body)
		if err != nil {
			return
		}
		s.obs.SawServerHello = true
		s.obs.NegotiatedVersion = sh.Version
		s.obs.NegotiatedSuite = sh.CipherSuite
		s.obs.StapledOCSP = sh.HasStaple()
	}
}
