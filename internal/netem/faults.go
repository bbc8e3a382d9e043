// Fault materialization: the handlers and server-end write paths that
// turn a fault.Decision into observable connection behaviour. Every
// path here is deadlock-safe on the rendezvous transport (a Write
// returns only once the peer has read it, see Conn) and yields a
// deterministic failure class on the client.
//
// Records and flights are the transport's unit: wire writes each record
// whole, and tlssim writes each flight (ServerHello+Certificate+
// ServerHelloDone, ClientKeyExchange+ChangeCipherSpec+Finished,
// ChangeCipherSpec+Finished) in one Write. So the write faults address
// TLS records, never Write calls, and hit the same bytes however the
// server batches its records:
//
//   - reset:    the ClientHello is consumed in full, then the
//     connection closes abruptly -> FailPeerClosed.
//   - stall:    blackHole (the StallPeer signal) -> FailIncomplete,
//     with no wall-clock wait.
//   - truncate: the server's first write is cut inside the first
//     record's 5-byte header and the connection closes
//     -> FailPeerClosed.
//   - corrupt:  one seeded byte of the payload of the server's second
//     record, its Certificate, flips; the client reads the full flight
//     before reacting, so the alert or close it answers with never
//     crosses a write in flight.
package netem

import (
	"io"
	"net"

	"repro/internal/fault"
)

// resetAfterHello serves the KindReset fault: it reads exactly one TLS
// record (the ClientHello) and then closes. Reading the full record
// matters twice over — the client's blocking record write completes
// (no partial-write deadlock), and the mirror observes the same bytes
// at any scheduling, keeping captured artifacts bit-identical.
func resetAfterHello(conn net.Conn, _ ConnMeta) {
	defer conn.Close()
	var hdr [recordHeaderLen]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return
	}
	bodyLen := int(hdr[3])<<8 | int(hdr[4])
	// Cap at the TLS record-size limit; nonsense lengths (a plaintext
	// peer, say) just close immediately — Close unblocks their writer.
	if bodyLen > 0 && bodyLen <= 1<<14+2048 {
		io.CopyN(io.Discard, conn, int64(bodyLen))
	}
}

// blackHole serves the KindStall fault: it swallows everything the
// client sends and never answers. It declares the stall up front, so
// the client's read fails at once with a timeout, the failure class a
// silent server earns on a real network, with no wall-clock wait.
func blackHole(conn net.Conn, _ ConnMeta) {
	defer conn.Close()
	conn.(*Conn).StallPeer()
	io.Copy(io.Discard, conn)
}

// corruptRecord is the record whose payload the corrupt fault damages:
// the server's second, its Certificate. The first, the ServerHello, is
// parsed on receipt and left intact.
const corruptRecord = 2

// recordHeaderLen is a TLS record header's size: type, version, length.
const recordHeaderLen = 5

// recordWalk follows the record framing of the bytes one end writes,
// across Write calls that may hold many records or part of one, so the
// corrupt fault finds its record whatever the batching.
type recordWalk struct {
	hdr     [recordHeaderLen]byte
	hdrN    int // header bytes seen of the record in progress
	left    int // payload bytes of the current record still to come
	records int // records whose header is complete
	target  int // 1 + the offset of the byte to flip in what is left; 0 for none
}

// corrupt advances the walk over b and returns b, or a copy of b with
// the target byte flipped when b holds it: byte entropy mod n of record
// corruptRecord's n-byte payload. Bytes that are no TLS record are
// walked as if they were; an empty target payload flips nothing.
func (w *recordWalk) corrupt(b []byte, entropy uint64) []byte {
	out := b
	for i := 0; i < len(b) && (w.records < corruptRecord || w.target > 0); {
		if w.left == 0 {
			w.hdr[w.hdrN] = b[i]
			i++
			if w.hdrN++; w.hdrN == recordHeaderLen {
				w.hdrN = 0
				w.records++
				w.left = int(w.hdr[3])<<8 | int(w.hdr[4])
				if w.records == corruptRecord && w.left > 0 {
					w.target = 1 + int(entropy%uint64(w.left))
				}
			}
			continue
		}
		k := min(w.left, len(b)-i)
		if w.target > k {
			w.target -= k
		} else if w.target > 0 {
			out = append([]byte(nil), b...)
			mask := byte(entropy >> 8)
			if mask == 0 {
				mask = 0x5a
			}
			out[i+w.target-1] ^= mask
			w.target = 0
		}
		i += k
		w.left -= k
	}
	return out
}

// degradedWrite is the server end's Write under the truncate and
// corrupt faults; the caller holds wmu. Truncate cuts the first write
// at a seeded offset inside the first record's header and closes; later
// writes fail without touching the transport. Corrupt flips one seeded
// byte of the corruptRecord's payload (recordWalk).
func (c *Conn) degradedWrite(b []byte) (int, error) {
	if c.fault == fault.KindCorrupt {
		return c.write(c.walk.corrupt(b, c.entropy))
	}
	if c.truncated {
		return 0, io.ErrClosedPipe
	}
	c.truncated = true
	if h := min(len(b), recordHeaderLen); h >= 2 {
		b = b[:1+int(c.entropy%uint64(h-1))]
	}
	n, err := c.write(b)
	c.Close()
	if err == nil {
		err = io.ErrClosedPipe
	}
	return n, err
}
