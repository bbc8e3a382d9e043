package tlssim

import (
	"errors"
	"fmt"
	"io"
	"net"

	"repro/internal/ciphers"
	"repro/internal/wire"
)

// msgReader pulls handshake messages off the record layer, handling
// coalesced messages, interleaved ChangeCipherSpec records, and alert
// records. It classifies transport failures the way the paper's
// analyses need (timeout vs. close vs. alert).
type msgReader struct {
	conn    net.Conn
	pending []byte
	// LastAlert records the most recent alert read, fatal or warning —
	// the probe's observable.
	LastAlert *wire.Alert
}

func newMsgReader(conn net.Conn) *msgReader { return &msgReader{conn: conn} }

// next returns the next handshake message. A fatal alert, clean close,
// or timeout is converted to the corresponding *HandshakeError. The
// message's Body is a view into its record's payload, which
// wire.ReadRecord allocates afresh for every record, so it is never
// overwritten.
func (r *msgReader) next() (wire.Handshake, *HandshakeError) {
	for {
		if len(r.pending) > 0 {
			msg, rest, err := wire.SplitHandshake(r.pending)
			if err != nil {
				return wire.Handshake{}, failure(FailParameters, nil, err)
			}
			r.pending = rest
			return msg, nil
		}
		rec, err := wire.ReadRecord(r.conn)
		if err != nil {
			return wire.Handshake{}, classifyReadError(err)
		}
		switch rec.Type {
		case wire.TypeHandshake:
			r.pending = rec.Payload
		case wire.TypeChangeCipherSpec:
			// Skip: the simulation treats CCS as decorative.
		case wire.TypeAlert:
			a, perr := wire.ParseAlert(rec.Payload)
			if perr != nil {
				return wire.Handshake{}, failure(FailParameters, nil, perr)
			}
			r.LastAlert = &a
			if a.Level == wire.LevelFatal || a.Description == wire.AlertCloseNotify {
				return wire.Handshake{}, failure(FailAlertReceived, &a, a)
			}
			// Warning alerts are skipped.
		default:
			return wire.Handshake{}, failure(FailParameters, nil,
				fmt.Errorf("tlssim: unexpected %s record during handshake", rec.Type))
		}
	}
}

// expect returns the next handshake message, requiring the given type.
func (r *msgReader) expect(t wire.HandshakeType) (wire.Handshake, *HandshakeError) {
	msg, herr := r.next()
	if herr != nil {
		return wire.Handshake{}, herr
	}
	if msg.Type != t {
		return wire.Handshake{}, failure(FailParameters, nil,
			fmt.Errorf("tlssim: expected %s, got %s", t, msg.Type))
	}
	return msg, nil
}

// classifyReadError buckets a transport read error.
func classifyReadError(err error) *HandshakeError {
	var ne net.Error
	switch {
	case errors.As(err, &ne) && ne.Timeout():
		return failure(FailIncomplete, nil, err)
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrClosedPipe), errors.Is(err, net.ErrClosed):
		return failure(FailPeerClosed, nil, err)
	case errors.Is(err, io.ErrUnexpectedEOF):
		return failure(FailPeerClosed, nil, err)
	default:
		return failure(FailIO, nil, err)
	}
}

// failSendingAlert sends a fatal alert and returns the corresponding
// *HandshakeError; Client's and Serve's failure paths close conn.
func failSendingAlert(conn net.Conn, v ciphers.Version, class FailureClass, desc wire.AlertDescription, err error) *HandshakeError {
	a := wire.Alert{Level: wire.LevelFatal, Description: desc}
	wire.WriteAlert(conn, v, a)
	return failure(class, &a, err)
}

// failMidFlight is failSendingAlert for a message that fails to parse
// before the rest of its flight has been read. On netem's rendezvous
// transport the peer's flight Write waits for this side's reads, so the
// alert is written from its own goroutine, which closes conn once the
// peer has read it, while this side drains the flight until conn fails.
func failMidFlight(conn net.Conn, v ciphers.Version, desc wire.AlertDescription, err error) *HandshakeError {
	a := wire.Alert{Level: wire.LevelFatal, Description: desc}
	go func() {
		wire.WriteAlert(conn, v, a)
		conn.Close()
	}()
	io.Copy(io.Discard, conn)
	return failure(FailParameters, &a, err)
}
