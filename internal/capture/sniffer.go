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
	c2s, s2c  recordAssembler
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
	s.c2s.feed(p, func(rec wire.Record) { s.onRecord(rec, true) })
	if s.c2s.dead && !s.poisonedC2S {
		s.poisonedC2S = true
		s.hot.poisoned.Inc()
	}
}

// ServerBytes implements netem.Mirror.
func (s *sniffer) ServerBytes(p []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.s2c.feed(p, func(rec wire.Record) { s.onRecord(rec, false) })
	if s.s2c.dead && !s.poisonedS2C {
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
		rest := rec.Payload
		for len(rest) > 0 {
			msg, r, err := wire.ParseHandshake(rest)
			if err != nil {
				return
			}
			rest = r
			s.onHandshake(msg, fromClient)
		}
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

// recordAssembler buffers a directional byte stream and emits complete
// TLS records. A stream that desynchronises (impossible record length)
// is permanently poisoned: without a valid framing anchor nothing after
// the corruption can be trusted.
type recordAssembler struct {
	buf  []byte
	dead bool
}

// feed appends bytes and calls emit with each complete record. The
// record's Payload is a view into the assembler's buffer, valid only
// for the duration of the emit call: the wire parsers copy whatever
// they retain, and the sniffer consumes records synchronously, so the
// hot path avoids one payload copy (and one records-slice allocation)
// per mirrored chunk.
func (a *recordAssembler) feed(p []byte, emit func(wire.Record)) {
	if a.dead {
		return
	}
	a.buf = append(a.buf, p...)
	for {
		if len(a.buf) < 5 {
			return
		}
		n := int(a.buf[3])<<8 | int(a.buf[4])
		if n > wire.MaxRecordPayload {
			// Corrupt stream: stop parsing this direction.
			a.buf = nil
			a.dead = true
			return
		}
		if len(a.buf) < 5+n {
			return
		}
		emit(wire.Record{
			Type:    wire.ContentType(a.buf[0]),
			Version: wire.RecordVersion(a.buf[1], a.buf[2]),
			Payload: a.buf[5 : 5+n : 5+n],
		})
		a.buf = a.buf[5+n:]
	}
}
